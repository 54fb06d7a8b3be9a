// SNMP Collector: "the basic collector upon which Remos relies for most of
// its network information."
//
// Responsibilities, mirroring §3.1.1:
//  * topology discovery — follow routes hop-to-hop from the routers' SNMP
//    route tables between the nodes of a query, caching discovered routes;
//  * link capacity — ifSpeed queries along discovered paths;
//  * dynamic monitoring — once a component is discovered it is polled
//    periodically (default every 5 s) by differencing octet counters, and a
//    measurement history is kept per link for prediction;
//  * virtual topology — nodes on shared Ethernets or behind inaccessible
//    devices are joined through virtual switches;
//  * concurrency — router queries are issued in parallel lanes, modeling
//    the Java-threads implementation.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bridge_collector.hpp"
#include "core/collector.hpp"
#include "sim/engine.hpp"
#include "snmp/client.hpp"

namespace remos::core {

struct SnmpCollectorConfig {
  std::string name = "snmp-collector";
  /// The IP domain this collector monitors (its directory entry).
  std::vector<net::Ipv4Prefix> domain;
  std::string community = "public";
  /// Octet-counter polling period; "By default, the utilization is
  /// monitored every five seconds, although this is a configurable
  /// parameter."
  double poll_interval_s = 5.0;
  /// Issue SNMP requests to distinct agents in parallel lanes.
  bool parallel_queries = true;
  /// Use SNMPv2 GetBulk for route-table walks.
  bool use_bulk = false;
  /// Route/path caching (ablation knob; the paper's Fig 3 shows >=3x).
  bool cache_enabled = true;
  /// Naive pairwise discovery: follow the route between *every pair* of
  /// query nodes — the paper's "worst case cost of a cold cache query is
  /// O(N^2)". Off by default: the optimized star discovery is one of the
  /// "number of optimizations that reduce the cost, especially for large
  /// N" the paper implemented.
  bool pairwise_discovery = false;
  /// History ring size per monitored direction.
  std::size_t history_capacity = 4096;
  /// Local processing cost charged per edge assembled into a response
  /// (cache lookup + marshaling). Keeps warm-cache query time O(N) as the
  /// paper's Fig 3 observes, instead of free.
  double per_edge_processing_s = 0.002;
  /// Processing cost charged per hop when a path is discovered for the
  /// first time (route following + bookkeeping) — even when the hops come
  /// from the Bridge Collector's database rather than fresh SNMP walks.
  double per_hop_discovery_s = 0.001;

  // --- fault tolerance (§6.2: agents time out, drop requests, rotate
  // --- credentials; the collector must degrade and then recover) ---
  /// How long a failed agent sits in quarantine before the collector
  /// re-probes it (on the next query or poll pass touching it). During
  /// quarantine the agent is skipped fail-fast — no timeout storms — and
  /// its connectivity renders as a virtual switch.
  double quarantine_s = 30.0;
  /// Consecutive fully-retried request failures that trigger quarantine.
  int quarantine_after_failures = 1;
  /// TTL-based invalidation so recovered agents get re-walked instead of
  /// served stale data forever. <= 0 disables expiry for that cache.
  double route_table_ttl_s = 600.0;
  double speed_cache_ttl_s = 600.0;
  double path_cache_ttl_s = 600.0;

  /// Nodes to discover and begin monitoring at startup — the paper's
  /// "logical extension ... to configure it to begin monitoring specific
  /// resources at startup, for use in a computational center, etc."
  std::vector<net::Ipv4Address> warm_start_nodes;

  /// Static per-subnet configuration (the collector's config file).
  struct SubnetInfo {
    net::Ipv4Prefix prefix;
    net::Ipv4Address gateway{};       // zero when the subnet has no router
    BridgeCollector* bridge = nullptr;  // switched subnets
    bool shared = false;              // hub/shared-Ethernet subnet
    double shared_capacity_bps = 0.0;
  };
  std::vector<SubnetInfo> subnets;
};

class SnmpCollector final : public Collector {
 public:
  SnmpCollector(sim::Engine& engine, snmp::AgentRegistry& registry, SnmpCollectorConfig config);
  ~SnmpCollector() override;
  SnmpCollector(const SnmpCollector&) = delete;
  SnmpCollector& operator=(const SnmpCollector&) = delete;

  [[nodiscard]] std::string name() const override { return config_.name; }
  [[nodiscard]] std::vector<net::Ipv4Prefix> responsibility() const override {
    return config_.domain;
  }
  CollectorResponse query(const std::vector<net::Ipv4Address>& nodes) override;
  [[nodiscard]] const sim::MeasurementHistory* history(const std::string& resource_id) const override;

  /// Run one monitoring pass immediately (tests/benches).
  void poll_now();

  /// Drop every cache (cold-start state for scalability experiments).
  void clear_caches();

  /// Cache/staleness audit (kCache): every stored timestamp — path-cache
  /// build times, route-table and speed fetch times, monitor samples,
  /// quarantine expiries — is consistent with the engine's virtual clock
  /// (TTLs never move backwards). Runs after every query(); callable
  /// directly from tests. No-op unless built with -DREMOS_AUDIT=ON.
  void audit_caches() const;

  // Introspection.
  [[nodiscard]] std::size_t monitored_interface_count() const { return monitored_.size(); }
  [[nodiscard]] std::size_t known_edge_count() const { return edges_.size(); }
  [[nodiscard]] std::size_t path_cache_size() const { return path_cache_.size(); }
  [[nodiscard]] std::size_t route_table_cache_size() const { return route_tables_.size(); }
  [[nodiscard]] std::uint64_t snmp_request_count() const { return client_.request_count(); }
  [[nodiscard]] double snmp_time_consumed_s() const { return client_.consumed_s(); }
  [[nodiscard]] const SnmpCollectorConfig& config() const { return config_; }
  /// Paths actually constructed (path-cache misses) — the unit Fig 3's
  /// discovery cost scales with; star discovery constructs N-1 per subnet.
  [[nodiscard]] std::uint64_t path_discovery_count() const { return path_discoveries_; }
  /// Agents currently in quarantine (failed, awaiting re-probe).
  [[nodiscard]] std::size_t quarantined_agent_count() const { return quarantine_.size(); }
  [[nodiscard]] bool agent_in_quarantine(net::Ipv4Address agent) const;
  /// Per-agent request health as seen by this collector's client.
  [[nodiscard]] const snmp::AgentHealth* agent_health(net::Ipv4Address agent) const {
    return client_.health(agent);
  }
  /// Latest utilization (bps, a->b / b->a) of a known edge; nullopt if unknown.
  [[nodiscard]] std::optional<std::pair<double, double>> edge_utilization(
      const std::string& edge_id) const;

 private:
  struct RouteEntry {
    net::Ipv4Prefix dest;
    net::Ipv4Address next_hop{};
    std::uint32_t out_ifindex = 0;
  };
  struct MonitorPoint {
    net::Ipv4Address agent{};
    std::uint32_t ifindex = 0;
    friend auto operator<=>(const MonitorPoint&, const MonitorPoint&) = default;
  };
  struct MonitoredIf {
    double capacity_bps = 0.0;
    std::uint32_t last_in = 0, last_out = 0;
    sim::Time last_sample = -1.0;
    double util_in_bps = 0.0, util_out_bps = 0.0;
    std::unique_ptr<sim::MeasurementHistory> hist_in, hist_out;
  };
  struct KnownEdge {
    std::string id;
    VNode a, b;
    double capacity_bps = 0.0;
    double latency_s = 0.0;
    /// Where utilization is read; empty agent = unmonitorable (virtual).
    MonitorPoint monitor{};
    /// True when the monitoring device is endpoint `a` (out_octets = a->b).
    bool monitor_on_a = true;
  };

  // --- discovery ---
  /// Discover (or fetch from cache) the path between two in-domain nodes;
  /// returns the edge ids, appending newly found edges to edges_.
  std::vector<std::string> discover_pair(net::Ipv4Address src, net::Ipv4Address dst,
                                         bool* complete);
  std::vector<std::string> discover_l2(const SnmpCollectorConfig::SubnetInfo& subnet,
                                       net::Ipv4Address src, net::Ipv4Address dst,
                                       bool* complete);
  /// Non-bridge subnet hop between two attached devices.
  std::vector<std::string> direct_subnet_edges(const SnmpCollectorConfig::SubnetInfo& subnet,
                                               const VNode& a, const VNode& b);
  const SnmpCollectorConfig::SubnetInfo* subnet_of(net::Ipv4Address addr) const;
  std::optional<RouteEntry> route_lookup(net::Ipv4Address router, net::Ipv4Address dst,
                                         bool* agent_ok);
  double interface_speed(net::Ipv4Address agent, std::uint32_t ifindex);
  void ensure_monitored(const MonitorPoint& point, double capacity_bps);
  void add_edge(KnownEdge edge);

  // --- fault handling ---
  /// True while `agent` is quarantined; erases (and returns false for)
  /// entries whose expiry has passed, which is what triggers the re-probe.
  bool agent_quarantined(net::Ipv4Address agent);
  /// Record a failed exchange; quarantines once the client's consecutive
  /// failure count reaches the configured threshold.
  void note_agent_failure(net::Ipv4Address agent);
  void quarantine_agent(net::Ipv4Address agent);
  [[nodiscard]] bool cache_expired(sim::Time stored_at, double ttl_s) const {
    return ttl_s > 0.0 && engine_.now() - stored_at > ttl_s;
  }
  VNode node_descriptor(net::Ipv4Address addr) const;
  /// Response node for one element of a bridge path; switch and cloud
  /// names are the L2Node display forms ("sw@…", "vs:cloud@…").
  VNode hop_vnode(const L2Node& node, net::Ipv4Address src, net::Ipv4Address dst,
                  std::uint64_t src_mac, std::uint64_t dst_mac) const;

  // --- monitoring ---
  void sample_interface(const MonitorPoint& point, MonitoredIf& m);
  void poll_pass();

  sim::Engine& engine_;
  SnmpCollectorConfig config_;
  snmp::SnmpClient client_;
  sim::TaskId poll_task_ = 0;

  struct CachedPath {
    std::vector<std::string> edge_ids;
    sim::Time built_at = 0.0;
  };
  struct CachedRouteTable {
    std::vector<RouteEntry> entries;
    sim::Time fetched_at = 0.0;
  };
  struct CachedSpeed {
    double bps = 0.0;
    sim::Time fetched_at = 0.0;
  };

  std::map<std::string, KnownEdge> edges_;
  std::map<MonitorPoint, MonitoredIf> monitored_;
  std::map<std::pair<net::Ipv4Address, net::Ipv4Address>, CachedPath> path_cache_;
  std::map<net::Ipv4Address, CachedRouteTable> route_tables_;
  std::map<MonitorPoint, CachedSpeed> speed_cache_;
  /// Failed agents and when their quarantine expires. Replaces the old
  /// permanent dead-agent set: expiry forces a re-probe, so recovered
  /// agents rejoin the topology instead of staying dark forever.
  std::map<net::Ipv4Address, sim::Time> quarantine_;
  /// Set while the current discover_pair() had to degrade (quarantined or
  /// unreachable device, missing speed) — degraded paths are never cached,
  /// so every later query re-probes instead of serving dark topology.
  bool discovery_degraded_ = false;
  std::uint64_t path_discoveries_ = 0;
  std::unordered_map<const BridgeCollector*, std::uint64_t> bridge_versions_;
};

}  // namespace remos::core
