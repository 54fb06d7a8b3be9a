#include "core/snmp_collector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string_view>

#include "core/audit.hpp"
#include "core/obs.hpp"
#include "snmp/oids.hpp"

namespace remos::core {
namespace {

std::string host_name(net::Ipv4Address addr) { return "host@" + addr.to_string(); }
std::string router_name(net::Ipv4Address addr) { return "rtr@" + addr.to_string(); }

}  // namespace

SnmpCollector::SnmpCollector(sim::Engine& engine, snmp::AgentRegistry& registry,
                             SnmpCollectorConfig config)
    : engine_(engine), config_(std::move(config)), client_(registry) {
  // Health records timestamp successes/failures in simulation time.
  client_.set_clock([this] { return engine_.now(); });
  if (config_.poll_interval_s > 0) {
    poll_task_ = engine_.every(config_.poll_interval_s, [this] { poll_pass(); });
  }
  // Computational-center mode: pre-discover configured resources so the
  // very first application query already hits a warm cache.
  if (!config_.warm_start_nodes.empty()) {
    (void)query(config_.warm_start_nodes);
  }
}

SnmpCollector::~SnmpCollector() {
  if (poll_task_ != 0) engine_.cancel_task(poll_task_);
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

const SnmpCollectorConfig::SubnetInfo* SnmpCollector::subnet_of(net::Ipv4Address addr) const {
  const SnmpCollectorConfig::SubnetInfo* best = nullptr;
  for (const auto& s : config_.subnets) {
    if (s.prefix.contains(addr) && (best == nullptr || s.prefix.length() > best->prefix.length())) {
      best = &s;
    }
  }
  return best;
}

VNode SnmpCollector::node_descriptor(net::Ipv4Address addr) const {
  for (const auto& s : config_.subnets) {
    if (s.gateway == addr && !addr.is_zero()) {
      return VNode{VNodeKind::kRouter, router_name(addr), addr};
    }
  }
  return VNode{VNodeKind::kHost, host_name(addr), addr};
}

VNode SnmpCollector::hop_vnode(const L2Node& node, net::Ipv4Address src, net::Ipv4Address dst,
                               std::uint64_t src_mac, std::uint64_t dst_mac) const {
  switch (node.kind) {
    case L2Node::Kind::kSwitch: return VNode{VNodeKind::kSwitch, to_string(node), node.addr};
    case L2Node::Kind::kEndpoint:
      // Endpoints can only be the two nodes the path was asked for.
      if (node.mac == src_mac) return node_descriptor(src);
      if (node.mac == dst_mac) return node_descriptor(dst);
      break;
    case L2Node::Kind::kCloud:
      // An invisible shared medium becomes a virtual switch in the response.
      break;
  }
  return VNode{VNodeKind::kVirtualSwitch, "vs:" + to_string(node), {}};
}

// ---------------------------------------------------------------------------
// fault handling
// ---------------------------------------------------------------------------

bool SnmpCollector::agent_quarantined(net::Ipv4Address agent) {
  auto it = quarantine_.find(agent);
  if (it == quarantine_.end()) return false;
  if (engine_.now() >= it->second) {
    // Quarantine expired: forget the entry so the next touch re-probes.
    quarantine_.erase(it);
    return false;
  }
  discovery_degraded_ = true;
  return true;
}

bool SnmpCollector::agent_in_quarantine(net::Ipv4Address agent) const {
  auto it = quarantine_.find(agent);
  return it != quarantine_.end() && engine_.now() < it->second;
}

void SnmpCollector::note_agent_failure(net::Ipv4Address agent) {
  discovery_degraded_ = true;
  const snmp::AgentHealth* h = client_.health(agent);
  if (h != nullptr &&
      h->consecutive_failures >= static_cast<std::uint64_t>(config_.quarantine_after_failures)) {
    quarantine_agent(agent);
  }
}

void SnmpCollector::quarantine_agent(net::Ipv4Address agent) {
  const bool fresh = !quarantine_.contains(agent);
  quarantine_[agent] = engine_.now() + config_.quarantine_s;
  if (!fresh) return;
  sim::metrics().counter("core.snmp_collector.quarantine_events_total").inc();
  sim::metrics().gauge("core.snmp_collector.quarantined_agents").set(
      static_cast<double>(quarantine_.size()));
  // Newly quarantined: cached paths that run through this agent describe a
  // topology we can no longer vouch for — flush them so the next query
  // rebuilds around (and later, through) the failed device.
  std::erase_if(path_cache_, [this, agent](const auto& entry) {
    for (const std::string& id : entry.second.edge_ids) {
      auto it = edges_.find(id);
      if (it == edges_.end()) continue;
      const KnownEdge& e = it->second;
      if (e.monitor.agent == agent || e.a.addr == agent || e.b.addr == agent) return true;
    }
    return false;
  });
}

double SnmpCollector::interface_speed(net::Ipv4Address agent, std::uint32_t ifindex) {
  const MonitorPoint key{agent, ifindex};
  auto it = speed_cache_.find(key);
  const bool have_cached = it != speed_cache_.end();
  if (config_.cache_enabled && have_cached && !cache_expired(it->second.fetched_at, config_.speed_cache_ttl_s)) {
    sim::metrics().counter("core.snmp_collector.speed_cache_hits_total").inc();
    return it->second.bps;
  }
  sim::metrics().counter("core.snmp_collector.speed_cache_misses_total").inc();
  if (agent_quarantined(agent)) {
    // Fail fast; a stale capacity beats a timeout storm and beats zero.
    return have_cached ? it->second.bps : 0.0;
  }
  auto r = client_.get(agent, config_.community, snmp::oids::kIfSpeed.child(ifindex));
  if (r.ok()) {
    double speed = 0.0;
    if (const auto* g = std::get_if<snmp::Gauge32>(&r.vb.value)) {
      speed = static_cast<double>(g->value);
    }
    speed_cache_[key] = CachedSpeed{speed, engine_.now()};
    return speed;
  }
  if (r.status == snmp::Status::kNoSuchName || r.status == snmp::Status::kEndOfMib) {
    // The agent answered: it genuinely has no ifSpeed object. That is a
    // definitive (cacheable) zero, unlike a timeout.
    speed_cache_[key] = CachedSpeed{0.0, engine_.now()};
    return 0.0;
  }
  // Timeout/auth failure: do NOT cache the failure as a 0.0 capacity —
  // that poisoned every later query until the cache was dropped.
  note_agent_failure(agent);
  return have_cached ? it->second.bps : 0.0;
}

void SnmpCollector::add_edge(KnownEdge edge) {
  auto it = edges_.find(edge.id);
  if (it == edges_.end()) {
    // Hoist the key: reading edge.id in the same full-expression that
    // moves `edge` trips bugprone-use-after-move.
    std::string id = edge.id;
    edges_.emplace(std::move(id), std::move(edge));
    return;
  }
  // Re-discovered edge. Don't let a degraded rebuild (no capacity, no
  // monitor — e.g. the device is dark right now) clobber an entry that
  // was measured while the device was healthy: staleness already tells
  // the caller the numbers are old.
  const KnownEdge& old = it->second;
  const bool downgrade = edge.capacity_bps <= 0.0 && edge.monitor.agent.is_zero() &&
                         (old.capacity_bps > 0.0 || !old.monitor.agent.is_zero());
  if (downgrade) return;
  // A later discovery may walk the edge the other way. Keep the stored
  // orientation, so an answer does not depend on which queries came first.
  if (edge.a.name != edge.b.name && edge.a.name == old.b.name && edge.b.name == old.a.name) {
    std::swap(edge.a, edge.b);
    edge.monitor_on_a = !edge.monitor_on_a;
  }
  it->second = std::move(edge);
}

void SnmpCollector::ensure_monitored(const MonitorPoint& point, double capacity_bps) {
  auto [it, inserted] = monitored_.try_emplace(point);
  MonitoredIf& m = it->second;
  if (inserted) {
    m.capacity_bps = capacity_bps;
    m.hist_in = std::make_unique<sim::MeasurementHistory>(config_.history_capacity);
    m.hist_out = std::make_unique<sim::MeasurementHistory>(config_.history_capacity);
    sample_interface(point, m);  // baseline counter snapshot
  } else if (!config_.cache_enabled) {
    // Caching disabled: treat every touch as a fresh measurement.
    sample_interface(point, m);
  }
}

void SnmpCollector::sample_interface(const MonitorPoint& point, MonitoredIf& m) {
  // Quarantined agents are skipped fail-fast; their last sample ages,
  // which is exactly what the staleness annotation reports.
  if (agent_quarantined(point.agent)) return;
  auto rin = client_.get(point.agent, config_.community,
                         snmp::oids::kIfInOctets.child(point.ifindex));
  if (rin.status == snmp::Status::kTimeout || rin.status == snmp::Status::kAuthFailure) {
    note_agent_failure(point.agent);
    return;
  }
  auto rout = client_.get(point.agent, config_.community,
                          snmp::oids::kIfOutOctets.child(point.ifindex));
  if (rout.status == snmp::Status::kTimeout || rout.status == snmp::Status::kAuthFailure) {
    note_agent_failure(point.agent);
    return;
  }
  if (!rin.ok() || !rout.ok()) return;  // keep previous sample on failure
  const auto* cin = std::get_if<snmp::Counter32>(&rin.vb.value);
  const auto* cout = std::get_if<snmp::Counter32>(&rout.vb.value);
  if (cin == nullptr || cout == nullptr) return;
  const sim::Time now = engine_.now();
  if (m.last_sample >= 0.0) {
    const double dt = now - m.last_sample;
    if (dt > 0) {
      m.util_in_bps =
          static_cast<double>(snmp::counter32_delta(m.last_in, cin->value)) * 8.0 / dt;
      m.util_out_bps =
          static_cast<double>(snmp::counter32_delta(m.last_out, cout->value)) * 8.0 / dt;
      m.hist_in->add(now, m.util_in_bps);
      m.hist_out->add(now, m.util_out_bps);
    }
  }
  m.last_in = cin->value;
  m.last_out = cout->value;
  m.last_sample = now;
}

void SnmpCollector::poll_pass() {
  if (monitored_.empty()) return;
  auto sp = obs::span("snmp_collector.poll");
  sp.attr("interfaces", monitored_.size());
  sim::metrics().counter("core.snmp_collector.poll_passes_total").inc();
  if (!config_.parallel_queries) {
    for (auto& [point, m] : monitored_) sample_interface(point, m);
    return;
  }
  // One lane per agent: the threaded collector polls routers concurrently.
  std::map<net::Ipv4Address, std::vector<std::pair<const MonitorPoint*, MonitoredIf*>>> by_agent;
  for (auto& [point, m] : monitored_) by_agent[point.agent].emplace_back(&point, &m);
  std::vector<std::function<void()>> lanes;
  lanes.reserve(by_agent.size());
  for (auto& [agent, ifaces] : by_agent) {
    (void)agent;
    lanes.push_back([this, group = std::move(ifaces)] {
      for (auto [point, m] : group) sample_interface(*point, *m);
    });
  }
  client_.parallel(lanes);
}

void SnmpCollector::poll_now() { poll_pass(); }

// ---------------------------------------------------------------------------
// route tables
// ---------------------------------------------------------------------------

std::optional<SnmpCollector::RouteEntry> SnmpCollector::route_lookup(net::Ipv4Address router,
                                                                     net::Ipv4Address dst,
                                                                     bool* agent_ok) {
  *agent_ok = true;
  if (agent_quarantined(router)) {
    *agent_ok = false;
    return std::nullopt;
  }
  auto it = route_tables_.find(router);
  const bool fresh = it != route_tables_.end() && config_.cache_enabled &&
                     !cache_expired(it->second.fetched_at, config_.route_table_ttl_s);
  sim::metrics()
      .counter(fresh ? "core.snmp_collector.route_table_hits_total"
                     : "core.snmp_collector.route_table_misses_total")
      .inc();
  if (!fresh) {
    // Walk the agent's ipRouteTable columns and join rows by index.
    snmp::Status status = snmp::Status::kOk;
    std::map<snmp::Oid, RouteEntry> rows;
    auto column_walk = [&](const snmp::Oid& subtree, snmp::Status* st) {
      return config_.use_bulk ? client_.walk_bulk(router, config_.community, subtree, st)
                              : client_.walk(router, config_.community, subtree, st);
    };
    for (const auto& vb : column_walk(snmp::oids::kIpRouteNextHop, &status)) {
      const snmp::Oid idx = vb.oid.suffix_after(snmp::oids::kIpRouteNextHop);
      if (const auto* ip = std::get_if<net::Ipv4Address>(&vb.value)) rows[idx].next_hop = *ip;
    }
    if (status != snmp::Status::kOk) {
      // A failed walk is decisive evidence the agent is unreachable —
      // quarantine immediately (re-probed once the quarantine expires).
      quarantine_agent(router);
      *agent_ok = false;
      return std::nullopt;
    }
    for (const auto& vb : column_walk(snmp::oids::kIpRouteMask, &status)) {
      const snmp::Oid idx = vb.oid.suffix_after(snmp::oids::kIpRouteMask);
      auto row = rows.find(idx);
      if (row == rows.end()) continue;
      if (const auto* mask = std::get_if<net::Ipv4Address>(&vb.value)) {
        const std::uint32_t v = mask->value();
        const int len = std::countl_one(v);
        if (len < 32 && (v & (0xFFFFFFFFu >> len)) != 0) {
          // Non-contiguous netmask (e.g. 255.0.255.0): no prefix length
          // represents it. Counting leading ones used to silently install
          // a too-short prefix (/8) that hijacked longest-prefix match —
          // reject the row instead.
          rows.erase(row);
          continue;
        }
        row->second.dest = net::Ipv4Prefix(snmp::oids::ip_from_index(idx), len);
      }
    }
    for (const auto& vb : column_walk(snmp::oids::kIpRouteIfIndex, &status)) {
      const snmp::Oid idx = vb.oid.suffix_after(snmp::oids::kIpRouteIfIndex);
      auto row = rows.find(idx);
      if (row == rows.end()) continue;
      if (const auto* v = std::get_if<std::int64_t>(&vb.value)) {
        row->second.out_ifindex = static_cast<std::uint32_t>(*v);
      }
    }
    std::vector<RouteEntry> table;
    table.reserve(rows.size());
    for (auto& [idx, entry] : rows) {
      (void)idx;
      table.push_back(entry);
    }
    it = route_tables_.insert_or_assign(router, CachedRouteTable{std::move(table), engine_.now()})
             .first;
  }
  const RouteEntry* best = nullptr;
  for (const RouteEntry& e : it->second.entries) {
    if (e.dest.contains(dst) && (best == nullptr || e.dest.length() > best->dest.length())) {
      best = &e;
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

// ---------------------------------------------------------------------------
// discovery
// ---------------------------------------------------------------------------

std::vector<std::string> SnmpCollector::direct_subnet_edges(
    const SnmpCollectorConfig::SubnetInfo& subnet, const VNode& a, const VNode& b) {
  // No Bridge Collector covers this subnet, so its internal structure is
  // opaque: join the endpoints through one virtual switch per subnet
  // (§3.1.1's representation for shared Ethernets and unknown segments).
  // Shared subnets annotate the virtual switch with the medium's capacity;
  // edges at SNMP-reachable routers are monitorable via the route table's
  // out-interface.
  std::vector<std::string> ids;
  const VNode vs{VNodeKind::kVirtualSwitch, "vs:" + subnet.prefix.to_string(), {}};
  for (const VNode* ep : {&a, &b}) {
    KnownEdge e;
    e.id = "vs:" + subnet.prefix.to_string() + ":" + ep->name;
    e.a = *ep;
    e.b = vs;
    if (subnet.shared) {
      e.capacity_bps = subnet.shared_capacity_bps;
    } else if (ep->kind == VNodeKind::kRouter) {
      const VNode& far = (ep == &a) ? b : a;
      bool agent_ok = true;
      auto route = route_lookup(ep->addr, far.addr, &agent_ok);
      if (agent_ok && route && route->out_ifindex != 0) {
        e.monitor = MonitorPoint{ep->addr, route->out_ifindex};
        e.monitor_on_a = true;  // edge is router -> vswitch
        e.capacity_bps = interface_speed(ep->addr, route->out_ifindex);
        ensure_monitored(e.monitor, e.capacity_bps);
      }
    }
    ids.push_back(e.id);
    add_edge(std::move(e));
  }
  return ids;
}

std::vector<std::string> SnmpCollector::discover_l2(const SnmpCollectorConfig::SubnetInfo& subnet,
                                                    net::Ipv4Address src, net::Ipv4Address dst,
                                                    bool* complete) {
  std::vector<std::string> ids;
  if (src == dst) return ids;
  const VNode a = node_descriptor(src);
  const VNode b = node_descriptor(dst);
  if (subnet.bridge == nullptr) return direct_subnet_edges(subnet, a, b);

  BridgeCollector& bridge = *subnet.bridge;
  if (!bridge.started()) {
    // Cold bridge: the level-2 database must be built first; its SNMP cost
    // is part of this query's response time.
    client_.charge(bridge.startup());
  }
  const auto src_mac = bridge.resolve_mac(src);
  const auto dst_mac = bridge.resolve_mac(dst);
  auto path = bridge.l2_path(src, dst);
  if (!path || !src_mac || !dst_mac) {
    // Unknown endpoints: connect through a virtual switch so the query
    // still completes (the paper's fallback for unmanageable pieces).
    const VNode vs{VNodeKind::kVirtualSwitch, "vs:l2:" + subnet.prefix.to_string(), {}};
    for (const VNode* ep : {&a, &b}) {
      KnownEdge e;
      e.id = "vs:l2:" + subnet.prefix.to_string() + ":" + ep->name;
      e.a = *ep;
      e.b = vs;
      ids.push_back(e.id);
      add_edge(std::move(e));
    }
    *complete = false;
    discovery_degraded_ = true;
    return ids;
  }
  for (const L2PathHop& hop : *path) {
    KnownEdge e;
    e.id = hop.link_id;
    e.a = hop_vnode(hop.from, src, dst, *src_mac, *dst_mac);
    e.b = hop_vnode(hop.to, src, dst, *src_mac, *dst_mac);
    e.capacity_bps = hop.capacity_bps;
    if (!hop.agent.is_zero()) {
      e.monitor = MonitorPoint{hop.agent, hop.port};
      // agent_on_from_side refers to hop direction (from->to == a->b).
      e.monitor_on_a = hop.agent_on_from_side;
      ensure_monitored(e.monitor, e.capacity_bps);
    }
    ids.push_back(e.id);
    add_edge(std::move(e));
  }
  return ids;
}

std::vector<std::string> SnmpCollector::discover_pair(net::Ipv4Address src, net::Ipv4Address dst,
                                                      bool* complete) {
  const std::pair<net::Ipv4Address, net::Ipv4Address> key = std::minmax(src, dst);
  if (config_.cache_enabled) {
    auto it = path_cache_.find(key);
    if (it != path_cache_.end()) {
      if (!cache_expired(it->second.built_at, config_.path_cache_ttl_s)) {
        sim::metrics().counter("core.snmp_collector.path_cache_hits_total").inc();
        return it->second.edge_ids;
      }
      path_cache_.erase(it);
    }
  }
  sim::metrics().counter("core.snmp_collector.path_cache_misses_total").inc();
  // Track whether this discovery had to degrade (quarantined device, dark
  // router, failed speed read). Degraded paths are served but never
  // cached, so recovery is picked up on the next query instead of TTL.
  discovery_degraded_ = false;
  bool pair_complete = true;
  ++path_discoveries_;
  std::vector<std::string> ids;
  const auto* s_sub = subnet_of(src);
  const auto* d_sub = subnet_of(dst);
  if (s_sub == nullptr || d_sub == nullptr) {
    *complete = false;
    return ids;
  }
  if (s_sub == d_sub) {
    ids = discover_l2(*s_sub, src, dst, &pair_complete);
  } else if (s_sub->gateway.is_zero()) {
    pair_complete = false;
  } else {
    // Host to its first-hop router, inside the source subnet.
    auto first = discover_l2(*s_sub, src, s_sub->gateway, &pair_complete);
    ids.insert(ids.end(), first.begin(), first.end());
    // Follow the route hop-to-hop (§3.1.1), reusing cached router tables.
    net::Ipv4Address cur = s_sub->gateway;
    bool reached = false;
    for (int guard = 0; guard < 32 && !reached; ++guard) {
      bool agent_ok = true;
      auto route = route_lookup(cur, dst, &agent_ok);
      if (!agent_ok) {
        // Inaccessible router: "when the collector discovers nodes ...
        // connected to routers it cannot access, it represents their
        // connection with a virtual switch."
        discovery_degraded_ = true;
        const VNode vs{VNodeKind::kVirtualSwitch, "vs:dark:" + cur.to_string(), {}};
        for (const VNode& ep : {node_descriptor(cur), node_descriptor(dst)}) {
          KnownEdge e;
          e.id = "vs:dark:" + cur.to_string() + ":" + ep.name;
          e.a = ep;
          e.b = vs;
          ids.push_back(e.id);
          add_edge(std::move(e));
        }
        reached = true;  // the virtual switch stands in for the rest
        break;
      }
      if (!route) break;
      if (route->next_hop.is_zero()) {
        auto last = discover_l2(*d_sub, cur, dst, &pair_complete);
        ids.insert(ids.end(), last.begin(), last.end());
        reached = true;
        break;
      }
      const auto* transit = subnet_of(route->next_hop);
      if (transit != nullptr && transit->bridge != nullptr) {
        auto mid = discover_l2(*transit, cur, route->next_hop, &pair_complete);
        ids.insert(ids.end(), mid.begin(), mid.end());
      } else {
        KnownEdge e;
        e.id = "l3:" + cur.to_string() + ":" + std::to_string(route->out_ifindex);
        e.a = node_descriptor(cur);
        e.b = node_descriptor(route->next_hop);
        e.capacity_bps = interface_speed(cur, route->out_ifindex);
        e.monitor = MonitorPoint{cur, route->out_ifindex};
        e.monitor_on_a = true;
        ensure_monitored(e.monitor, e.capacity_bps);
        ids.push_back(e.id);
        add_edge(std::move(e));
      }
      cur = route->next_hop;
    }
    // Routing loop or table gap: the hop chain never reached `dst`. The
    // old code fell out of the guard silently and reported a partial path
    // as complete — misconfigured next hops looked like healthy answers.
    if (!reached) pair_complete = false;
  }
  // Path assembly is collector CPU spent per followed hop, even when the
  // hops came from the bridge database instead of fresh SNMP walks.
  client_.charge(config_.per_hop_discovery_s * static_cast<double>(1 + ids.size()));
  if (config_.cache_enabled && pair_complete && !discovery_degraded_) {
    path_cache_[key] = CachedPath{ids, engine_.now()};
  }
  if (!pair_complete) *complete = false;
  return ids;
}

// ---------------------------------------------------------------------------
// query
// ---------------------------------------------------------------------------

CollectorResponse SnmpCollector::query(const std::vector<net::Ipv4Address>& nodes) {
  auto sp = obs::span("snmp_collector.query");
  sp.attr("nodes", nodes.size());
  sim::metrics().counter("core.snmp_collector.queries_total").inc();
  CollectorResponse resp;
  const double before = client_.consumed_s();

  // Invalidate cached paths when a bridge saw hosts move.
  for (const auto& s : config_.subnets) {
    if (s.bridge == nullptr) continue;
    auto [it, inserted] = bridge_versions_.try_emplace(s.bridge, s.bridge->topology_version());
    if (!inserted && it->second != s.bridge->topology_version()) {
      path_cache_.clear();
      it->second = s.bridge->topology_version();
    }
  }

  bool complete = true;
  // Group query nodes by subnet.
  std::map<const SnmpCollectorConfig::SubnetInfo*, std::vector<net::Ipv4Address>> groups;
  for (net::Ipv4Address addr : nodes) {
    const auto* sub = subnet_of(addr);
    if (sub == nullptr) {
      complete = false;
      continue;
    }
    groups[sub].push_back(addr);
  }

  std::vector<std::string> ids;
  auto append = [&ids](std::vector<std::string> more) {
    ids.insert(ids.end(), more.begin(), more.end());
  };
  // Intra-subnet discovery. Default: star through the gateway (or the
  // first node) — the optimization that keeps large-N LAN queries near
  // O(N) instead of the naive O(N^2) pairwise walk. The pairwise mode
  // reproduces the paper's stated worst case for ablation.
  for (auto& [sub, members] : groups) {
    if (config_.pairwise_discovery) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          append(discover_pair(members[i], members[j], &complete));
        }
      }
      continue;
    }
    // Star through the reference node. When the reference is the gateway
    // (multi-subnet queries) the loop above already discovered every
    // member's leg to it — the old extra member->gateway pass re-ran
    // discover_pair(members.front(), gateway) redundantly, costing one
    // spurious discovery per subnet on cold caches.
    const net::Ipv4Address ref =
        (!sub->gateway.is_zero() && groups.size() > 1) ? sub->gateway : members.front();
    for (net::Ipv4Address addr : members) {
      if (addr != ref) append(discover_pair(addr, ref, &complete));
    }
  }
  // Inter-subnet: one representative pair per subnet pair.
  for (auto it1 = groups.begin(); it1 != groups.end(); ++it1) {
    for (auto it2 = std::next(it1); it2 != groups.end(); ++it2) {
      append(discover_pair(it1->second.front(), it2->second.front(), &complete));
    }
  }

  // Assemble the response topology from the discovered edges, in id
  // order. Nodes are found by name in a local index, not by the topology's
  // ensure_node/add_edge, which scan every node and edge per call. The
  // index views names held by edges_ and `queried`, which outlive it; ids
  // are unique, so no edge needs add_edge's duplicate merge.
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<VNode> queried;
  queried.reserve(nodes.size());
  for (net::Ipv4Address addr : nodes) queried.push_back(node_descriptor(addr));
  std::unordered_map<std::string_view, VNodeIndex> node_index;
  auto node_of = [&](const VNode& node) {
    auto [it, inserted] = node_index.try_emplace(node.name, kNoVNode);
    if (inserted) it->second = resp.topology.add_node(node);
    return it->second;
  };
  for (const std::string& id : ids) {
    auto it = edges_.find(id);
    if (it == edges_.end()) continue;
    const KnownEdge& ke = it->second;
    VEdge ve;
    ve.a = node_of(ke.a);
    ve.b = node_of(ke.b);
    ve.capacity_bps = ke.capacity_bps;
    ve.latency_s = ke.latency_s;
    ve.id = ke.id;
    if (!ke.monitor.agent.is_zero()) {
      auto mit = monitored_.find(ke.monitor);
      if (mit != monitored_.end()) {
        const MonitoredIf& m = mit->second;
        ve.util_ab_bps = ke.monitor_on_a ? m.util_out_bps : m.util_in_bps;
        ve.util_ba_bps = ke.monitor_on_a ? m.util_in_bps : m.util_out_bps;
        // Quality annotation: how old the measurement behind this edge is.
        // Grows while the monitoring agent is down; resets on recovery.
        if (m.last_sample >= 0.0) {
          ve.staleness_s = engine_.now() - m.last_sample;
          resp.max_staleness_s = std::max(resp.max_staleness_s, ve.staleness_s);
        }
      }
    }
    resp.topology.append_edge(std::move(ve));
  }
  // Queried nodes always appear, even when isolated.
  for (const VNode& node : queried) node_of(node);

  // Response assembly cost: cache reads + marshaling scale with the edges
  // reported (the warm-cache O(N) component of Fig 3).
  client_.charge(config_.per_edge_processing_s * static_cast<double>(ids.size()));

  resp.cost_s = client_.consumed_s() - before;
  resp.complete = complete;
  sp.attr("edges", ids.size());
  sp.attr("cost_s", resp.cost_s);
  sp.attr("complete", resp.complete);
  sim::metrics().histogram("core.snmp_collector.query_cost_s").observe(resp.cost_s);
  // Boundary audit: the response graph must be well-formed, its staleness
  // annotations consistent with virtual time, and no internal cache may
  // hold a timestamp from the future.
  audit::audit_response(resp, engine_.now());
  audit_caches();
  return resp;
}

const sim::MeasurementHistory* SnmpCollector::history(const std::string& resource_id) const {
  // Base id: utilization in the edge's a->b orientation; ":ba" suffix for
  // the reverse direction.
  std::string id = resource_id;
  bool reverse = false;
  if (id.size() > 3 && id.ends_with(":ba")) {
    reverse = true;
    id.resize(id.size() - 3);
  }
  auto it = edges_.find(id);
  if (it == edges_.end() || it->second.monitor.agent.is_zero()) return nullptr;
  auto mit = monitored_.find(it->second.monitor);
  if (mit == monitored_.end()) return nullptr;
  // When the monitoring device sits on endpoint a, its out counters carry
  // a->b traffic; otherwise its in counters do.
  const bool want_out = (it->second.monitor_on_a != reverse);
  return want_out ? mit->second.hist_out.get() : mit->second.hist_in.get();
}

std::optional<std::pair<double, double>> SnmpCollector::edge_utilization(
    const std::string& edge_id) const {
  auto it = edges_.find(edge_id);
  if (it == edges_.end() || it->second.monitor.agent.is_zero()) return std::nullopt;
  auto mit = monitored_.find(it->second.monitor);
  if (mit == monitored_.end()) return std::nullopt;
  const KnownEdge& ke = it->second;
  const MonitoredIf& m = mit->second;
  const double ab = ke.monitor_on_a ? m.util_out_bps : m.util_in_bps;
  const double ba = ke.monitor_on_a ? m.util_in_bps : m.util_out_bps;
  return std::make_pair(ab, ba);
}

// remos-analyze: allow(audit): unconditional cache drop — there is no precondition or invariant to assert here; cache health is audited by audit_caches() below.
void SnmpCollector::clear_caches() {
  edges_.clear();
  monitored_.clear();
  path_cache_.clear();
  route_tables_.clear();
  speed_cache_.clear();
  quarantine_.clear();
  bridge_versions_.clear();
}

void SnmpCollector::audit_caches() const {
  if constexpr (!audit::kEnabled) return;
  const double now = engine_.now();
  for (const auto& [key, cached] : path_cache_) {
    audit::audit_timestamp("path-cache built_at", cached.built_at, now);
  }
  for (const auto& [agent, cached] : route_tables_) {
    audit::audit_timestamp("route-table fetched_at", cached.fetched_at, now);
  }
  for (const auto& [point, cached] : speed_cache_) {
    audit::audit_timestamp("speed-cache fetched_at", cached.fetched_at, now);
  }
  for (const auto& [point, m] : monitored_) {
    if (m.last_sample >= 0.0) {  // -1 = never sampled
      audit::audit_timestamp("monitor last_sample", m.last_sample, now);
    }
  }
  // Quarantine entries hold *expiry* times: they live in the future, but
  // never further out than one full quarantine period.
  for (const auto& [agent, expiry] : quarantine_) {
    REMOS_AUDIT(kCache, std::isfinite(expiry) && expiry <= now + config_.quarantine_s + 1e-9,
                "quarantine expiry for " + agent.to_string() + " beyond one period");
  }
}

}  // namespace remos::core
