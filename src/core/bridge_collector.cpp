#include "core/bridge_collector.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "core/audit.hpp"
#include "core/obs.hpp"
#include "snmp/oids.hpp"

namespace remos::core {
namespace {

std::string mac_label(std::uint64_t mac) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%012llx", static_cast<unsigned long long>(mac));
  return std::string("mac:") + buf;
}

constexpr std::uint32_t kNone = ~std::uint32_t{0};
constexpr std::uint32_t kRoot = kNone - 1;

}  // namespace

std::string to_string(const L2Node& node) {
  switch (node.kind) {
    case L2Node::Kind::kSwitch: return "sw@" + node.addr.to_string();
    case L2Node::Kind::kEndpoint: return mac_label(node.mac);
    case L2Node::Kind::kCloud:
      return "cloud@" + node.addr.to_string() + ":" + std::to_string(node.port);
  }
  return "?";
}

BridgeCollector::BridgeCollector(sim::Engine& engine, snmp::AgentRegistry& registry,
                                 BridgeCollectorConfig config)
    : engine_(engine), config_(std::move(config)), client_(registry) {}

BridgeCollector::~BridgeCollector() {
  if (monitor_task_ != 0) engine_.cancel_task(monitor_task_);
}

double BridgeCollector::walk_switch(SwitchData& data) {
  auto walk = [&](const snmp::Oid& subtree) {
    return config_.use_bulk ? client_.walk_bulk(data.addr, config_.community, subtree)
                            : client_.walk(data.addr, config_.community, subtree);
  };
  return client_.metered([&] {
    // dot1dTpFdbPort: mac -> bridge port.
    for (const snmp::VarBind& vb : walk(snmp::oids::kDot1dTpFdbPort)) {
      const snmp::Oid index = vb.oid.suffix_after(snmp::oids::kDot1dTpFdbPort);
      const std::uint64_t mac = snmp::oids::mac_from_index(index);
      if (const auto* port = std::get_if<std::int64_t>(&vb.value)) {
        data.fdb[mac] = static_cast<std::uint32_t>(*port);
      }
    }
    // ifSpeed: port capacities.
    for (const snmp::VarBind& vb : walk(snmp::oids::kIfSpeed)) {
      const snmp::Oid index = vb.oid.suffix_after(snmp::oids::kIfSpeed);
      if (index.size() != 1) continue;
      if (const auto* speed = std::get_if<snmp::Gauge32>(&vb.value)) {
        data.port_speed[index[0]] = static_cast<double>(speed->value);
      }
    }
  });
}

double BridgeCollector::startup() {
  auto sp = obs::span("bridge_collector.startup");
  sp.attr("switches", config_.switches.size());
  sim::metrics().counter("core.bridge_collector.startups_total").inc();
  const double before = client_.consumed_s();
  switches_.clear();
  nodes_.clear();
  edges_.clear();
  trunk_ports_.clear();
  for (net::Ipv4Address addr : config_.switches) {
    SwitchData data;
    data.addr = addr;
    walk_switch(data);
    switches_.push_back(std::move(data));
  }
  infer_topology();
  build_index();
  started_ = true;
  if (config_.location_check_interval_s > 0 && monitor_task_ == 0) {
    monitor_task_ =
        engine_.every(config_.location_check_interval_s, [this] { check_locations(); });
  }
  return client_.consumed_s() - before;
}

double BridgeCollector::port_speed(std::size_t sw, std::uint32_t port) const {
  auto it = switches_[sw].port_speed.find(port);
  return it == switches_[sw].port_speed.end() ? 0.0 : it->second;
}

void BridgeCollector::infer_topology() {
  // One node per switch, at the switch's index.
  for (const SwitchData& sw : switches_) {
    nodes_.push_back(L2Node{L2Node::Kind::kSwitch, sw.addr, 0, 0});
  }

  // Per-switch port -> sorted MAC set, plus the universe of endpoints.
  std::set<std::uint64_t> all_macs;
  std::vector<std::map<std::uint32_t, std::vector<std::uint64_t>>> port_sets(switches_.size());
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    for (const auto& [mac, port] : switches_[i].fdb) {
      port_sets[i][port].push_back(mac);
      all_macs.insert(mac);
    }
    for (auto& [port, macs] : port_sets[i]) std::sort(macs.begin(), macs.end());
  }

  // Inter-switch links via the complete-FDB complement theorem.
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    for (std::size_t j = i + 1; j < switches_.size(); ++j) {
      for (const auto& [pi, si] : port_sets[i]) {
        for (const auto& [pj, sj] : port_sets[j]) {
          if (si.size() + sj.size() != all_macs.size()) continue;
          // Disjoint + jointly exhaustive (sizes already match the union).
          std::vector<std::uint64_t> inter;
          std::set_intersection(si.begin(), si.end(), sj.begin(), sj.end(),
                                std::back_inserter(inter));
          if (!inter.empty()) continue;
          L2Edge e;
          e.a = static_cast<std::uint32_t>(i);
          e.b = static_cast<std::uint32_t>(j);
          e.a_port = pi;
          e.b_port = pj;
          e.capacity_bps = std::min(port_speed(i, pi), port_speed(j, pj));
          e.link_id = "l2:" + switches_[i].addr.to_string() + ":" + std::to_string(pi) + "-" +
                      switches_[j].addr.to_string() + ":" + std::to_string(pj);
          edges_.push_back(std::move(e));
          trunk_ports_.emplace(i, pi);
          trunk_ports_.emplace(j, pj);
        }
      }
    }
  }

  // Endpoint attachment: group non-trunk-port occupants per (switch, port).
  std::map<std::pair<std::size_t, std::uint32_t>, std::vector<std::uint64_t>> access;
  for (std::uint64_t mac : all_macs) {
    for (std::size_t i = 0; i < switches_.size(); ++i) {
      auto it = switches_[i].fdb.find(mac);
      if (it == switches_[i].fdb.end()) continue;
      const auto key = std::make_pair(i, it->second);
      if (trunk_ports_.contains(key)) continue;
      access[key].push_back(mac);
      break;  // unique access port in a tree
    }
  }
  // Several endpoints behind one access port: an invisible shared medium,
  // represented as a cloud. Clouds get their nodes ahead of every endpoint
  // so the forwarding nodes stay contiguous.
  std::vector<std::uint32_t> cloud_of;
  cloud_of.reserve(access.size());
  for (const auto& [key, macs] : access) {
    if (macs.size() < 2) {
      cloud_of.push_back(kNone);
      continue;
    }
    cloud_of.push_back(static_cast<std::uint32_t>(nodes_.size()));
    nodes_.push_back(L2Node{L2Node::Kind::kCloud, switches_[key.first].addr, 0, key.second});
  }
  fabric_count_ = static_cast<std::uint32_t>(nodes_.size());
  std::size_t group = 0;
  for (const auto& [key, macs] : access) {
    const auto [sw, port] = key;
    const std::string at = "@" + switches_[sw].addr.to_string() + ":" + std::to_string(port);
    const double cap = port_speed(sw, port);
    auto attach_to = static_cast<std::uint32_t>(sw);
    std::uint32_t attach_port = port;
    const std::uint32_t cloud = cloud_of[group++];
    if (cloud != kNone) {
      L2Edge up;
      up.a = attach_to;
      up.b = cloud;
      up.a_port = port;
      up.capacity_bps = cap;
      up.shared = true;
      up.link_id = "l2:" + switches_[sw].addr.to_string() + ":" + std::to_string(port) + "-cloud";
      edges_.push_back(std::move(up));
      attach_to = cloud;
      attach_port = 0;
    }
    for (std::uint64_t mac : macs) {
      L2Edge e;
      e.a = attach_to;
      e.b = static_cast<std::uint32_t>(nodes_.size());
      e.a_port = attach_port;
      e.capacity_bps = cap;
      e.shared = cloud != kNone;
      e.link_id = "l2:" + mac_label(mac) + at;
      edges_.push_back(std::move(e));
      nodes_.push_back(L2Node{L2Node::Kind::kEndpoint, {}, mac, 0});
    }
  }
}

void BridgeCollector::build_index() {
  adj_offset_.assign(fabric_count_ + 1, 0);
  endpoints_.clear();
  for (const L2Edge& e : edges_) {
    if (e.b >= fabric_count_) continue;  // endpoint attachment
    ++adj_offset_[e.a + 1];
    ++adj_offset_[e.b + 1];
  }
  for (std::uint32_t v = 0; v < fabric_count_; ++v) adj_offset_[v + 1] += adj_offset_[v];
  adj_.assign(adj_offset_[fabric_count_], 0);
  std::vector<std::uint32_t> cursor(adj_offset_.begin(), adj_offset_.end() - 1);
  for (std::uint32_t ei = 0; ei < edges_.size(); ++ei) {
    const L2Edge& e = edges_[ei];
    if (e.b >= fabric_count_) {
      endpoints_.push_back(Attachment{nodes_[e.b].mac, ei});
      continue;
    }
    adj_[cursor[e.a]++] = ei;
    adj_[cursor[e.b]++] = ei;
  }
  std::sort(endpoints_.begin(), endpoints_.end(),
            [](const Attachment& x, const Attachment& y) { return x.mac < y.mac; });
}

const BridgeCollector::Attachment* BridgeCollector::attachment_of(std::uint64_t mac) const {
  auto it = std::lower_bound(endpoints_.begin(), endpoints_.end(), mac,
                             [](const Attachment& x, std::uint64_t m) { return x.mac < m; });
  return it == endpoints_.end() || it->mac != mac ? nullptr : &*it;
}

std::optional<std::vector<L2PathHop>> BridgeCollector::l2_path(net::Ipv4Address src,
                                                               net::Ipv4Address dst) const {
  if (!started_ || !config_.arp) return std::nullopt;
  const auto src_mac = config_.arp(src);
  const auto dst_mac = config_.arp(dst);
  if (!src_mac || !dst_mac) return std::nullopt;
  const Attachment* from = attachment_of(*src_mac);
  const Attachment* to = attachment_of(*dst_mac);
  if (from == nullptr || to == nullptr) return std::nullopt;
  if (from == to) return std::vector<L2PathHop>{};

  // Endpoints do not forward, so the path is the source's attachment
  // edge, the BFS path between the two attachment nodes over the
  // forwarding nodes, and the destination's attachment edge. BFS visits
  // each node's edges in ascending edge order, so ties break as a BFS
  // over the whole entity graph from the source endpoint would.
  const std::uint32_t first = edges_[from->edge].a;
  const std::uint32_t last = edges_[to->edge].a;
  std::vector<std::uint32_t> via(fabric_count_, kNone);  // edge that reached the node
  std::vector<std::uint32_t> frontier;
  frontier.reserve(fabric_count_);
  via[first] = kRoot;
  frontier.push_back(first);
  for (std::size_t head = 0; head < frontier.size() && via[last] == kNone; ++head) {
    const std::uint32_t u = frontier[head];
    for (std::uint32_t k = adj_offset_[u]; k < adj_offset_[u + 1]; ++k) {
      const L2Edge& e = edges_[adj_[k]];
      const std::uint32_t v = (e.a == u) ? e.b : e.a;
      if (via[v] != kNone) continue;
      via[v] = adj_[k];
      frontier.push_back(v);
    }
  }
  if (via[last] == kNone) return std::nullopt;

  auto hop = [this](std::uint32_t ei, std::uint32_t hop_from, std::uint32_t hop_to) {
    const L2Edge& e = edges_[ei];
    L2PathHop h;
    h.capacity_bps = e.capacity_bps;
    h.link_id = e.link_id;
    h.shared_medium = e.shared;
    h.from = nodes_[hop_from];
    h.to = nodes_[hop_to];
    // Monitor at a switch side when one exists (clouds have none).
    if (nodes_[e.a].kind == L2Node::Kind::kSwitch) {
      h.agent = nodes_[e.a].addr;
      h.port = e.a_port;
      h.agent_on_from_side = (e.a == hop_from);
    } else if (nodes_[e.b].kind == L2Node::Kind::kSwitch) {
      h.agent = nodes_[e.b].addr;
      h.port = e.b_port;
      h.agent_on_from_side = (e.b == hop_from);
    }
    return h;
  };
  std::vector<L2PathHop> hops;
  hops.push_back(hop(to->edge, last, edges_[to->edge].b));
  for (std::uint32_t cur = last; via[cur] != kRoot;) {
    const L2Edge& e = edges_[via[cur]];
    const std::uint32_t prev = (e.a == cur) ? e.b : e.a;
    hops.push_back(hop(via[cur], prev, cur));
    cur = prev;
  }
  hops.push_back(hop(from->edge, edges_[from->edge].b, first));
  std::reverse(hops.begin(), hops.end());
  return hops;
}

std::optional<std::pair<net::Ipv4Address, std::uint32_t>> BridgeCollector::location_of(
    net::Ipv4Address endpoint) const {
  if (!started_ || !config_.arp) return std::nullopt;
  const auto mac = config_.arp(endpoint);
  if (!mac) return std::nullopt;
  const Attachment* at = attachment_of(*mac);
  if (at == nullptr) return std::nullopt;
  const L2Edge& e = edges_[at->edge];
  const L2Node& attach = nodes_[e.a];
  // A cloud member reports the switch port behind which the cloud hangs.
  if (attach.kind == L2Node::Kind::kCloud) return std::make_pair(attach.addr, attach.port);
  return std::make_pair(attach.addr, e.a_port);
}

std::size_t BridgeCollector::check_locations() {
  if (!started_) return 0;
  std::size_t moved = 0;
  for (const Attachment& at : endpoints_) {
    REMOS_CHECK(at.edge < edges_.size(), "endpoint index must reference a live edge");
    L2Edge& e = edges_[at.edge];
    if (nodes_[e.a].kind != L2Node::Kind::kSwitch) continue;  // cloud members skipped
    const std::uint64_t mac = at.mac;
    const net::Ipv4Address sw_addr = nodes_[e.a].addr;
    const std::uint32_t recorded_port = e.a_port;

    // "The location of a host can be monitored merely by checking its
    // forwarding entry in the bridge to which it is connected."
    auto r = client_.get(sw_addr, config_.community,
                         snmp::oids::kDot1dTpFdbPort.concat(snmp::oids::mac_index(mac)));
    std::uint32_t current_port = 0;
    if (r.ok()) {
      if (const auto* p = std::get_if<std::int64_t>(&r.vb.value)) {
        current_port = static_cast<std::uint32_t>(*p);
      }
    }
    if (current_port == recorded_port) continue;

    // Moved (or entry vanished): re-locate by querying every bridge for
    // this MAC and applying the access-port rule against known trunks.
    for (std::size_t i = 0; i < switches_.size(); ++i) {
      auto rr = client_.get(switches_[i].addr, config_.community,
                            snmp::oids::kDot1dTpFdbPort.concat(snmp::oids::mac_index(mac)));
      if (!rr.ok()) continue;
      const auto* p = std::get_if<std::int64_t>(&rr.vb.value);
      if (p == nullptr || *p == 0) continue;
      const auto port = static_cast<std::uint32_t>(*p);
      switches_[i].fdb[mac] = port;
      if (trunk_ports_.contains({i, port})) continue;  // seen through a trunk
      // Rewire the attachment edge to the new access port. Only the
      // edge's switch side changes, so the L2 index stays valid.
      e.a = static_cast<std::uint32_t>(i);  // switch nodes share switch indices
      e.a_port = port;
      if (auto sp = switches_[i].port_speed.find(port); sp != switches_[i].port_speed.end()) {
        e.capacity_bps = sp->second;
      }
      e.link_id = "l2:" + mac_label(mac) + "@" + switches_[i].addr.to_string() + ":" +
                  std::to_string(port);
      ++moved;
      ++moves_;
      ++version_;
      break;
    }
  }
  return moved;
}

std::size_t BridgeCollector::inter_switch_link_count() const {
  std::size_t n = 0;
  for (const L2Edge& e : edges_) {
    if (nodes_[e.a].kind == L2Node::Kind::kSwitch && nodes_[e.b].kind == L2Node::Kind::kSwitch) {
      ++n;
    }
  }
  return n;
}

}  // namespace remos::core
