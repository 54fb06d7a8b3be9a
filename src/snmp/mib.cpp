#include "snmp/mib.hpp"

#include <algorithm>
#include <string>

#include "core/audit.hpp"
#include "snmp/oids.hpp"

namespace remos::snmp {

namespace {

using RowIt = std::vector<std::uint32_t>::const_iterator;

/// Row `r` of a column as a [begin, end) range of OID components.
RowIt row_begin(const MibView::Column& c, std::size_t r) {
  return c.rows.begin() + static_cast<std::ptrdiff_t>(r * c.width);
}

std::size_t row_count(const MibView::Column& c) {
  return c.width == 0 ? (c.values.empty() ? 0 : 1) : c.rows.size() / c.width;
}

bool row_less(const MibView::Column& c, std::size_t x, std::size_t y) {
  return std::lexicographical_compare(row_begin(c, x), row_begin(c, x + 1), row_begin(c, y),
                                      row_begin(c, y + 1));
}

/// Truncate a 64-bit octet count to Counter32 semantics (wraps at 2^32).
Counter32 as_counter32(std::uint64_t octets) {
  return Counter32{static_cast<std::uint32_t>(octets & 0xFFFFFFFFull)};
}

/// The column with exactly this prefix, or nullptr.
const MibView::Column* find_column(const std::vector<MibView::Column>& columns, const Oid& prefix) {
  auto it = std::lower_bound(columns.begin(), columns.end(), prefix,
                             [](const MibView::Column& c, const Oid& p) { return c.prefix < p; });
  return it != columns.end() && it->prefix == prefix ? &*it : nullptr;
}

/// The row-index sets of every *present* column in a conceptual table must
/// agree — a GETNEXT table walk pivots between columns by shared index, so
/// a hole in one column silently truncates or skews the walked table.
/// Absent columns are legal (quirky agents omit ifSpeed / ipRouteMask).
void audit_table_columns(const std::vector<MibView::Column>& columns, const char* table,
                         const std::vector<Oid>& prefixes) {
  const MibView::Column* reference = nullptr;
  for (const Oid& prefix : prefixes) {
    const MibView::Column* col = find_column(columns, prefix);
    if (col == nullptr) continue;  // column absent on this agent
    if (reference == nullptr) {
      reference = col;
      continue;
    }
    REMOS_AUDIT(kMib, col->width == reference->width && col->rows == reference->rows,
                std::string(table) + ": column " + prefix.to_string() +
                    " row-index set disagrees with the table's other columns");
  }
}

}  // namespace

void MibView::set_const(Oid oid, Value value) {
  Column column;
  column.prefix = std::move(oid);
  column.values.push_back(std::move(value));
  add_column(std::move(column));
}

void MibView::add_column(Column column) {
  REMOS_CHECK(column.width == 0 || column.rows.size() % column.width == 0,
              "MIB column rows must be whole row suffixes");
  REMOS_CHECK(column.source == Source::kConst || net_ != nullptr,
              "live MIB columns need a device to read");
  const std::size_t n =
      column.width == 0 ? column.values.size() : column.rows.size() / column.width;
  const bool constant = column.source == Source::kConst;
  REMOS_CHECK(!constant || column.values.size() == n,
              "constant MIB column needs one value per row");
  bool increasing = true;
  for (std::size_t r = 1; r < n && increasing; ++r) increasing = row_less(column, r - 1, r);
  if (!increasing) {
    // Sort the rows (stable, so the last of equal suffixes is the last
    // added) and keep one per suffix.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) { return row_less(column, x, y); });
    std::vector<std::uint32_t> kept_rows;
    std::vector<Value> kept_values;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t r = order[k];
      if (k + 1 < n && !row_less(column, r, order[k + 1])) continue;  // a later duplicate wins
      kept_rows.insert(kept_rows.end(), row_begin(column, r), row_begin(column, r + 1));
      if (constant) kept_values.push_back(std::move(column.values[r]));
    }
    column.rows = std::move(kept_rows);
    if (constant) column.values = std::move(kept_values);
  }
  const std::size_t rows = row_count(column);
  if (rows == 0) return;

  auto it = std::lower_bound(columns_.begin(), columns_.end(), column.prefix,
                             [](const Column& c, const Oid& p) { return c.prefix < p; });
  if (it != columns_.end() && it->prefix == column.prefix) {
    object_count_ -= row_count(*it);
    *it = std::move(column);
  } else {
    REMOS_CHECK(it == columns_.begin() || !std::prev(it)->prefix.is_prefix_of(column.prefix),
                "MIB column " + column.prefix.to_string() + " nests inside another column");
    REMOS_CHECK(it == columns_.end() || !column.prefix.is_prefix_of(it->prefix),
                "MIB column " + column.prefix.to_string() + " contains another column");
    columns_.insert(it, std::move(column));
  }
  object_count_ += rows;
}

VarBind MibView::bind(const Column& c, std::size_t row) const {
  std::vector<std::uint32_t> parts;
  parts.reserve(c.prefix.size() + c.width);
  parts.insert(parts.end(), c.prefix.parts().begin(), c.prefix.parts().end());
  parts.insert(parts.end(), row_begin(c, row), row_begin(c, row + 1));
  VarBind vb{Oid(std::move(parts)), {}};
  switch (c.source) {
    case Source::kConst: vb.value = c.values[row]; break;
    case Source::kIfInOctets:
      vb.value = as_counter32(net_->node(node_).find_interface(*row_begin(c, row))->in_octets);
      break;
    case Source::kIfOutOctets:
      vb.value = as_counter32(net_->node(node_).find_interface(*row_begin(c, row))->out_octets);
      break;
    case Source::kFdbPort: {
      std::uint64_t mac = 0;
      for (auto it = row_begin(c, row); it != row_begin(c, row + 1); ++it) {
        mac = (mac << 8) | (*it & 0xFF);
      }
      const auto& fdb = net_->node(node_).fdb;
      auto port = fdb.find(mac);
      vb.value = static_cast<std::int64_t>(port == fdb.end() ? 0 : port->second);
      break;
    }
  }
  return vb;
}

std::optional<VarBind> MibView::get(const Oid& oid) const {
  // The last column whose prefix is <= oid is the only one that can hold
  // it: columns are disjoint subtrees.
  auto it = std::upper_bound(columns_.begin(), columns_.end(), oid,
                             [](const Oid& o, const Column& c) { return o < c.prefix; });
  if (it == columns_.begin()) return std::nullopt;
  const Column& c = *std::prev(it);
  if (oid.size() != c.prefix.size() + c.width || !c.prefix.is_prefix_of(oid)) return std::nullopt;
  const auto key = oid.parts().begin() + static_cast<std::ptrdiff_t>(c.prefix.size());
  const std::size_t n = row_count(c);
  std::size_t lo = 0, hi = n;
  while (lo < hi) {  // first row >= key
    const std::size_t mid = lo + (hi - lo) / 2;
    if (std::lexicographical_compare(row_begin(c, mid), row_begin(c, mid + 1), key,
                                     oid.parts().end())) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == n || !std::equal(row_begin(c, lo), row_begin(c, lo + 1), key)) return std::nullopt;
  return bind(c, lo);
}

std::optional<VarBind> MibView::get_next(const Oid& oid) const {
  // Columns before the last one with prefix <= oid hold only smaller OIDs,
  // columns after it only larger ones; that last column can hold both when
  // its prefix is a prefix of oid.
  auto it = std::upper_bound(columns_.begin(), columns_.end(), oid,
                             [](const Oid& o, const Column& c) { return o < c.prefix; });
  if (it != columns_.begin()) {
    const Column& c = *std::prev(it);
    if (c.prefix.is_prefix_of(oid)) {
      const auto tail = oid.parts().begin() + static_cast<std::ptrdiff_t>(c.prefix.size());
      std::size_t lo = 0, hi = row_count(c);
      while (lo < hi) {  // first row > tail
        const std::size_t mid = lo + (hi - lo) / 2;
        if (std::lexicographical_compare(tail, oid.parts().end(), row_begin(c, mid),
                                         row_begin(c, mid + 1))) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      if (lo < row_count(c)) return bind(c, lo);
    }
  }
  if (it == columns_.end()) return std::nullopt;
  return bind(*it, 0);
}

void MibView::audit() const {
  if constexpr (!core::audit::kEnabled) return;
  // Layout: columns strictly increasing and disjoint, rows strictly
  // increasing inside each column — what the binary searches rely on.
  std::size_t objects = 0;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const Column& c = columns_[i];
    if (i > 0) {
      const Column& prev = columns_[i - 1];
      REMOS_AUDIT(kMib, prev.prefix < c.prefix && !prev.prefix.is_prefix_of(c.prefix),
                  "MIB columns not sorted and disjoint at " + c.prefix.to_string());
    }
    const std::size_t n = row_count(c);
    REMOS_AUDIT(kMib, c.source != Source::kConst || c.values.size() == n,
                "MIB column " + c.prefix.to_string() + " value count disagrees with its rows");
    for (std::size_t r = 1; r < n; ++r) {
      REMOS_AUDIT(kMib, row_less(c, r - 1, r),
                  "MIB column " + c.prefix.to_string() + " rows not strictly increasing");
    }
    objects += n;
  }
  REMOS_AUDIT(kMib, objects == object_count_, "MIB object count disagrees with its columns");

  // GETNEXT termination: starting from the empty OID, stepping with
  // get_next must yield strictly increasing OIDs and reach the end in
  // exactly object_count() steps. Any equal-or-smaller step would make a
  // management walk (and our collectors' walk()) loop forever.
  Oid cursor;
  std::size_t steps = 0;
  while (true) {
    auto next = get_next(cursor);
    if (!next.has_value()) break;
    REMOS_AUDIT(kMib, next->oid > cursor,
                "GETNEXT not strictly increasing at " + next->oid.to_string());
    REMOS_AUDIT(kMib, ++steps <= object_count(),
                "GETNEXT walk did not terminate within object_count() steps");
    cursor = next->oid;
  }
  REMOS_AUDIT(kMib, steps == object_count(),
              "GETNEXT walk visited " + std::to_string(steps) + " of " +
                  std::to_string(object_count()) + " objects");

  audit_table_columns(columns_, "ifTable",
                      {oids::kIfIndex, oids::kIfDescr, oids::kIfType, oids::kIfSpeed,
                       oids::kIfInOctets, oids::kIfOutOctets});
  audit_table_columns(columns_, "ipRouteTable",
                      {oids::kIpRouteDest, oids::kIpRouteIfIndex, oids::kIpRouteNextHop,
                       oids::kIpRouteType, oids::kIpRouteMask});
  audit_table_columns(columns_, "dot1dTpFdbTable",
                      {oids::kDot1dTpFdbAddress, oids::kDot1dTpFdbPort, oids::kDot1dTpFdbStatus});
}

void audit_walk_order(const std::vector<VarBind>& binds) {
  if constexpr (!core::audit::kEnabled) return;
  for (std::size_t i = 1; i < binds.size(); ++i) {
    REMOS_AUDIT(kMib, binds[i - 1].oid < binds[i].oid,
                "walk response not strictly increasing at step " + std::to_string(i) + " (" +
                    binds[i].oid.to_string() + " after " + binds[i - 1].oid.to_string() + ")");
  }
}

namespace {

/// A column under `prefix` whose rows are `width` components wide.
MibView::Column column(const Oid& prefix, std::uint32_t width,
                       MibView::Source source = MibView::Source::kConst) {
  MibView::Column c;
  c.prefix = prefix;
  c.width = width;
  c.source = source;
  return c;
}

void add_system_group(MibView& view, const net::Network& net, net::NodeId id) {
  const net::Node& n = net.node(id);
  view.set_const(oids::kSysDescr,
                 std::string("remos-sim ") + net::to_string(n.kind) + " " + n.name);
  view.set_const(oids::kSysName, n.name);
}

void add_if_table(MibView& view, const net::Network& net, net::NodeId id,
                  const MibQuirks& quirks) {
  const net::Node& n = net.node(id);
  view.set_const(oids::kIfNumber, static_cast<std::int64_t>(n.interfaces.size()));
  MibView::Column index = column(oids::kIfIndex, 1);
  MibView::Column descr = column(oids::kIfDescr, 1);
  MibView::Column type = column(oids::kIfType, 1);
  MibView::Column speed = column(oids::kIfSpeed, 1);
  // Counters read live (and wrap) — the collector must difference them.
  MibView::Column in = column(oids::kIfInOctets, 1, MibView::Source::kIfInOctets);
  MibView::Column out = column(oids::kIfOutOctets, 1, MibView::Source::kIfOutOctets);
  for (const net::Interface& ifc : n.interfaces) {
    const std::uint32_t idx = ifc.ifindex;
    for (MibView::Column* c : {&index, &descr, &type, &speed, &in, &out}) c->rows.push_back(idx);
    index.values.emplace_back(static_cast<std::int64_t>(idx));
    descr.values.emplace_back(ifc.descr);
    type.values.emplace_back(oids::kIfTypeEthernet);
    // ifSpeed is Gauge32 in bits/second; saturates like real agents do.
    const std::uint64_t bps = ifc.speed_bps;
    speed.values.emplace_back(
        Gauge32{bps > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<std::uint32_t>(bps)});
  }
  view.add_column(std::move(index));
  view.add_column(std::move(descr));
  view.add_column(std::move(type));
  if (!quirks.hide_if_speed) view.add_column(std::move(speed));
  view.add_column(std::move(in));
  view.add_column(std::move(out));
}

void add_route_table(MibView& view, const net::Network& net, net::NodeId id,
                     const MibQuirks& quirks) {
  const net::Node& n = net.node(id);
  MibView::Column dest = column(oids::kIpRouteDest, 4);
  MibView::Column ifindex = column(oids::kIpRouteIfIndex, 4);
  MibView::Column next = column(oids::kIpRouteNextHop, 4);
  MibView::Column type = column(oids::kIpRouteType, 4);
  MibView::Column mask = column(oids::kIpRouteMask, 4);
  for (const net::Route& r : n.routes) {
    const std::uint32_t v = r.dest.base().value();
    for (MibView::Column* c : {&dest, &ifindex, &next, &type, &mask}) {
      c->rows.insert(c->rows.end(),
                     {(v >> 24) & 0xFF, (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF});
    }
    const net::Ipv4Address next_hop =
        quirks.force_next_hop.is_zero() ? r.next_hop : quirks.force_next_hop;
    dest.values.emplace_back(r.dest.base());
    ifindex.values.emplace_back(static_cast<std::int64_t>(r.out_ifindex));
    next.values.emplace_back(next_hop);
    type.values.emplace_back(next_hop.is_zero() ? oids::kRouteTypeDirect
                                                : oids::kRouteTypeIndirect);
    mask.values.emplace_back(quirks.corrupt_route_mask ? net::Ipv4Address(0xFF00FF00u)
                                                       : net::Ipv4Address(r.dest.netmask()));
  }
  view.add_column(std::move(dest));
  view.add_column(std::move(ifindex));
  view.add_column(std::move(next));
  view.add_column(std::move(type));
  if (!quirks.hide_route_mask) view.add_column(std::move(mask));
}

void add_bridge_mib(MibView& view, const net::Network& net, net::NodeId id) {
  const net::Node& n = net.node(id);
  view.set_const(oids::kDot1dBaseNumPorts, static_cast<std::int64_t>(n.interfaces.size()));
  // Row keys are the MACs present at build time; the *port* values read
  // live so host moves inside the segment show up without a rebuild.
  MibView::Column address = column(oids::kDot1dTpFdbAddress, 6);
  MibView::Column port = column(oids::kDot1dTpFdbPort, 6, MibView::Source::kFdbPort);
  MibView::Column status = column(oids::kDot1dTpFdbStatus, 6);
  // Rows in MAC order are rows in OID order: the six octets are big-endian.
  std::vector<std::uint64_t> macs;
  macs.reserve(n.fdb.size());
  for (const auto& [mac, p] : n.fdb) macs.push_back(mac);
  std::sort(macs.begin(), macs.end());
  for (std::uint64_t mac : macs) {
    std::string mac_octets(6, '\0');
    for (int i = 0; i < 6; ++i) {
      const auto octet = static_cast<std::uint32_t>((mac >> (40 - 8 * i)) & 0xFF);
      mac_octets[static_cast<std::size_t>(i)] = static_cast<char>(octet);
      for (MibView::Column* c : {&address, &port, &status}) c->rows.push_back(octet);
    }
    address.values.emplace_back(std::move(mac_octets));
    status.values.emplace_back(oids::kFdbStatusLearned);
  }
  view.add_column(std::move(address));
  view.add_column(std::move(port));
  view.add_column(std::move(status));
}

}  // namespace

MibView build_device_mib(const net::Network& net, net::NodeId id, const MibQuirks& quirks) {
  MibView view(net, id);
  add_system_group(view, net, id);
  add_if_table(view, net, id, quirks);
  const net::Node& n = net.node(id);
  if (n.kind == net::NodeKind::kRouter) add_route_table(view, net, id, quirks);
  if (n.kind == net::NodeKind::kSwitch) add_bridge_mib(view, net, id);
  view.audit();
  return view;
}

}  // namespace remos::snmp
