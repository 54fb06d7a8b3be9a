// Reference MIB view for differential tests: every object a std::map leaf
// holding its own value closure, built object by object. This is the
// straightforward layout the column table in src/snmp/mib.cpp must answer
// exactly like; it is kept here only as the oracle.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "net/topology.hpp"
#include "snmp/mib.hpp"
#include "snmp/oids.hpp"

namespace remos::snmp::reference {

class MapMib {
 public:
  using ValueFn = std::function<Value()>;

  void set(Oid oid, ValueFn fn) { objects_[std::move(oid)] = std::move(fn); }
  void set_const(Oid oid, Value value) {
    objects_[std::move(oid)] = [v = std::move(value)] { return v; };
  }

  [[nodiscard]] std::optional<VarBind> get(const Oid& oid) const {
    auto it = objects_.find(oid);
    if (it == objects_.end()) return std::nullopt;
    return VarBind{it->first, it->second()};
  }
  [[nodiscard]] std::optional<VarBind> get_next(const Oid& oid) const {
    auto it = objects_.upper_bound(oid);
    if (it == objects_.end()) return std::nullopt;
    return VarBind{it->first, it->second()};
  }
  /// GetBulk as an agent serves it: up to `max` successive GETNEXTs.
  [[nodiscard]] std::vector<VarBind> get_bulk(const Oid& oid, std::size_t max) const {
    std::vector<VarBind> out;
    Oid cursor = oid;
    for (std::size_t i = 0; i < max; ++i) {
      auto vb = get_next(cursor);
      if (!vb) break;
      cursor = vb->oid;
      out.push_back(std::move(*vb));
    }
    return out;
  }
  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }
  [[nodiscard]] const std::map<Oid, ValueFn>& objects() const { return objects_; }

 private:
  std::map<Oid, ValueFn> objects_;
};

/// The device MIB built leaf by leaf, with the same contents and quirks as
/// snmp::build_device_mib.
inline MapMib build_map_mib(const net::Network& net, net::NodeId id, const MibQuirks& quirks = {}) {
  MapMib view;
  const net::Node& n = net.node(id);
  view.set_const(oids::kSysDescr,
                 std::string("remos-sim ") + net::to_string(n.kind) + " " + n.name);
  view.set_const(oids::kSysName, n.name);

  view.set_const(oids::kIfNumber, static_cast<std::int64_t>(n.interfaces.size()));
  for (const net::Interface& ifc : n.interfaces) {
    const std::uint32_t idx = ifc.ifindex;
    view.set_const(oids::kIfIndex.child(idx), static_cast<std::int64_t>(idx));
    view.set_const(oids::kIfDescr.child(idx), ifc.descr);
    view.set_const(oids::kIfType.child(idx), oids::kIfTypeEthernet);
    if (!quirks.hide_if_speed) {
      const std::uint64_t speed = ifc.speed_bps;
      const std::uint32_t reported =
          speed > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<std::uint32_t>(speed);
      view.set_const(oids::kIfSpeed.child(idx), Gauge32{reported});
    }
    view.set(oids::kIfInOctets.child(idx), [&net, id, idx] {
      const auto octets = net.node(id).find_interface(idx)->in_octets;
      return Value{Counter32{static_cast<std::uint32_t>(octets & 0xFFFFFFFFull)}};
    });
    view.set(oids::kIfOutOctets.child(idx), [&net, id, idx] {
      const auto octets = net.node(id).find_interface(idx)->out_octets;
      return Value{Counter32{static_cast<std::uint32_t>(octets & 0xFFFFFFFFull)}};
    });
  }

  if (n.kind == net::NodeKind::kRouter) {
    for (const net::Route& r : n.routes) {
      const Oid index = oids::ip_index(r.dest.base());
      const net::Ipv4Address next_hop =
          quirks.force_next_hop.is_zero() ? r.next_hop : quirks.force_next_hop;
      view.set_const(oids::kIpRouteDest.concat(index), r.dest.base());
      view.set_const(oids::kIpRouteIfIndex.concat(index),
                     static_cast<std::int64_t>(r.out_ifindex));
      view.set_const(oids::kIpRouteNextHop.concat(index), next_hop);
      view.set_const(oids::kIpRouteType.concat(index),
                     next_hop.is_zero() ? oids::kRouteTypeDirect : oids::kRouteTypeIndirect);
      if (!quirks.hide_route_mask) {
        const net::Ipv4Address mask = quirks.corrupt_route_mask
                                          ? net::Ipv4Address(0xFF00FF00u)
                                          : net::Ipv4Address(r.dest.netmask());
        view.set_const(oids::kIpRouteMask.concat(index), mask);
      }
    }
  }

  if (n.kind == net::NodeKind::kSwitch) {
    view.set_const(oids::kDot1dBaseNumPorts, static_cast<std::int64_t>(n.interfaces.size()));
    for (const auto& [mac, port] : n.fdb) {
      (void)port;
      const Oid index = oids::mac_index(mac);
      std::string mac_octets(6, '\0');
      for (int i = 0; i < 6; ++i) {
        mac_octets[static_cast<std::size_t>(i)] =
            static_cast<char>((mac >> (40 - 8 * i)) & 0xFF);
      }
      view.set_const(oids::kDot1dTpFdbAddress.concat(index), std::move(mac_octets));
      view.set(oids::kDot1dTpFdbPort.concat(index), [&net, id, mac = mac]() -> Value {
        const auto& fdb = net.node(id).fdb;
        auto it = fdb.find(mac);
        return static_cast<std::int64_t>(it == fdb.end() ? 0 : it->second);
      });
      view.set_const(oids::kDot1dTpFdbStatus.concat(index), oids::kFdbStatusLearned);
    }
  }
  return view;
}

}  // namespace remos::snmp::reference
