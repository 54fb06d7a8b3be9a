// MIB views: sorted OID -> value mappings served by simulated agents.
//
// A view is a flat table of columns sorted by OID. A column is one OID
// prefix (a table column such as ifInOctets, or a whole scalar OID), the
// sorted row-index suffixes under it, and one value source: per-row
// constants, or a live read of the device's octet counters or forwarding
// database, so counters and FDB ports always reflect the live network
// state. GET and GETNEXT are binary searches over the columns and then over
// one column's rows.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/topology.hpp"
#include "snmp/value.hpp"

namespace remos::snmp {

class MibView {
 public:
  /// Where a column's values come from.
  enum class Source : std::uint8_t {
    kConst,        // `values`, one per row
    kIfInOctets,   // live Counter32 of the interface the row index names
    kIfOutOctets,
    kFdbPort,      // live forwarding-database port of the MAC the row index names
  };

  struct Column {
    Oid prefix;
    /// Components per row suffix; every row of a column has the same width.
    std::uint32_t width = 0;
    /// Row suffixes, `width` components each, back to back.
    std::vector<std::uint32_t> rows;
    Source source = Source::kConst;
    std::vector<Value> values;  // kConst only
  };

  MibView() = default;
  /// A view whose live columns read device `id` of `net`.
  MibView(const net::Network& net, net::NodeId id) : net_(&net), node_(id) {}

  /// Register one scalar object (a column of one empty-suffix row).
  void set_const(Oid oid, Value value);
  /// Register a column. Rows may come in any order; of equal row suffixes
  /// the last one added wins. A column with the prefix of an existing one
  /// replaces it; no prefix may otherwise extend another.
  void add_column(Column column);

  /// Exact lookup.
  [[nodiscard]] std::optional<VarBind> get(const Oid& oid) const;
  /// Lexicographically next object strictly after `oid`; nullopt at end.
  [[nodiscard]] std::optional<VarBind> get_next(const Oid& oid) const;

  [[nodiscard]] std::size_t object_count() const { return object_count_; }

  /// MIB audit (kMib): the columns are sorted and disjoint with strictly
  /// increasing rows, a GETNEXT walk from the root visits every object in
  /// strictly increasing OID order and terminates within object_count()
  /// steps, and the ifTable / ipRouteTable / dot1dTpFdbTable columns expose
  /// consistent row index sets. No-op unless built with -DREMOS_AUDIT=ON.
  void audit() const;

 private:
  [[nodiscard]] VarBind bind(const Column& column, std::size_t row) const;

  std::vector<Column> columns_;  // sorted by prefix
  std::size_t object_count_ = 0;
  const net::Network* net_ = nullptr;
  net::NodeId node_ = 0;
};

/// Audit (kMib) one GETNEXT/WALK response sequence as seen on the wire:
/// OIDs must be strictly lexicographically increasing, otherwise a walker
/// revisits rows forever. Factored out of MibView::audit so corrupted agent
/// responses can be checked (and unit-tested) without a view.
void audit_walk_order(const std::vector<VarBind>& binds);

/// Options simulating non-standard/misconfigured agents (the portability
/// hazards §6.2 reports: "network elements that were misconfigured or have
/// non-standard features").
struct MibQuirks {
  bool hide_if_speed = false;    // agent omits the ifSpeed column
  bool hide_route_mask = false;  // agent omits ipRouteMask (some old IOSes)
  /// Misconfigured static routing: every row reports this next hop. Two
  /// routers pointing at each other produce a routing loop — the case the
  /// collector's hop-following guard must detect and flag as incomplete.
  net::Ipv4Address force_next_hop{};
  /// Agent reports a non-contiguous netmask (255.0.255.0) for every row —
  /// seen on broken stacks; no prefix length represents it, so the
  /// collector must reject the row rather than install a wrong route.
  bool corrupt_route_mask = false;
};

/// Build the full MIB view a device of the given kind exposes:
/// system + interfaces for everything manageable; ipRouteTable for routers;
/// Bridge-MIB for switches. Values read through `net` live.
[[nodiscard]] MibView build_device_mib(const net::Network& net, net::NodeId id,
                                       const MibQuirks& quirks = {});

}  // namespace remos::snmp
