// Bridge Collector: L2 topology inference from Bridge-MIB walks,
// path queries, host-location monitoring.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/testbed.hpp"
#include "core/bridge_collector.hpp"

namespace remos::core {
namespace {

struct Lan {
  net::Network net{"lan"};
  sim::Engine engine;
  std::vector<net::NodeId> switches;
  std::vector<net::NodeId> hosts;
  std::unique_ptr<snmp::AgentRegistry> agents;
  std::unique_ptr<BridgeCollector> bridge;

  /// Chain of `n_switches`, hosts round-robin, fully finalized + collector.
  Lan(std::size_t n_switches, std::size_t n_hosts, double check_interval = 0.0) {
    for (std::size_t i = 0; i < n_switches; ++i) {
      switches.push_back(net.add_switch("s" + std::to_string(i)));
      if (i > 0) net.connect(switches[i - 1], switches[i], 1e9);
    }
    for (std::size_t i = 0; i < n_hosts; ++i) {
      hosts.push_back(net.add_host("h" + std::to_string(i)));
      net.connect(hosts.back(), switches[i % n_switches], 100e6);
    }
    net.finalize();
    agents = std::make_unique<snmp::AgentRegistry>(net, sim::Rng(1));
    BridgeCollectorConfig cfg;
    for (net::NodeId sw : switches) cfg.switches.push_back(net.node(sw).primary_address());
    cfg.arp = apps::make_arp(net);
    cfg.location_check_interval_s = check_interval;
    bridge = std::make_unique<BridgeCollector>(engine, *agents, std::move(cfg));
  }
  [[nodiscard]] net::Ipv4Address addr(net::NodeId id) const {
    return net.node(id).primary_address();
  }
};

TEST(BridgeCollector, StartupDiscoversEndpointsAndTrunks) {
  Lan lan(3, 6);
  const double cost = lan.bridge->startup();
  EXPECT_GT(cost, 0.0);
  EXPECT_TRUE(lan.bridge->started());
  EXPECT_EQ(lan.bridge->endpoint_count(), 6u);
  EXPECT_EQ(lan.bridge->inter_switch_link_count(), 2u);  // chain of 3
}

TEST(BridgeCollector, SingleSwitchStar) {
  Lan lan(1, 5);
  lan.bridge->startup();
  EXPECT_EQ(lan.bridge->endpoint_count(), 5u);
  EXPECT_EQ(lan.bridge->inter_switch_link_count(), 0u);
  const auto path = lan.bridge->l2_path(lan.addr(lan.hosts[0]), lan.addr(lan.hosts[1]));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 2u);  // h0 -> sw -> h1
}

TEST(BridgeCollector, PathAcrossSwitchChain) {
  Lan lan(4, 8);
  lan.bridge->startup();
  // h0 on s0, h3 on s3: path h0-s0-s1-s2-s3-h3 = 5 edges.
  const auto path = lan.bridge->l2_path(lan.addr(lan.hosts[0]), lan.addr(lan.hosts[3]));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 5u);
  // Every hop is monitorable at a switch and carries a capacity.
  for (const auto& hop : *path) {
    EXPECT_FALSE(hop.agent.is_zero());
    EXPECT_GT(hop.capacity_bps, 0.0);
    EXPECT_FALSE(hop.link_id.empty());
  }
}

TEST(BridgeCollector, PathLabelsFormChain) {
  Lan lan(2, 4);
  lan.bridge->startup();
  const auto path = lan.bridge->l2_path(lan.addr(lan.hosts[0]), lan.addr(lan.hosts[1]));
  ASSERT_TRUE(path.has_value());
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    EXPECT_EQ((*path)[i].to, (*path)[i + 1].from);
  }
  EXPECT_EQ(path->front().from.kind, L2Node::Kind::kEndpoint);
  EXPECT_EQ(path->back().to.kind, L2Node::Kind::kEndpoint);
  EXPECT_TRUE(to_string(path->front().from).starts_with("mac:"));
  EXPECT_TRUE(to_string(path->front().to).starts_with("sw@"));
}

TEST(BridgeCollector, SamePathBothDirections) {
  Lan lan(3, 6);
  lan.bridge->startup();
  const auto fwd = lan.bridge->l2_path(lan.addr(lan.hosts[0]), lan.addr(lan.hosts[5]));
  const auto rev = lan.bridge->l2_path(lan.addr(lan.hosts[5]), lan.addr(lan.hosts[0]));
  ASSERT_TRUE(fwd && rev);
  ASSERT_EQ(fwd->size(), rev->size());
  for (std::size_t i = 0; i < fwd->size(); ++i) {
    EXPECT_EQ((*fwd)[i].link_id, (*rev)[rev->size() - 1 - i].link_id);
  }
}

TEST(BridgeCollector, UnknownEndpointNullopt) {
  Lan lan(2, 2);
  lan.bridge->startup();
  EXPECT_FALSE(lan.bridge->l2_path(*net::Ipv4Address::parse("9.9.9.9"),
                                   lan.addr(lan.hosts[0])).has_value());
}

TEST(BridgeCollector, QueriesAnsweredFromDatabase) {
  Lan lan(3, 9);
  lan.bridge->startup();
  const auto before = lan.bridge->client().request_count();
  for (int i = 0; i < 10; ++i) {
    (void)lan.bridge->l2_path(lan.addr(lan.hosts[0]), lan.addr(lan.hosts[8]));
  }
  EXPECT_EQ(lan.bridge->client().request_count(), before);  // zero SNMP traffic
}

TEST(BridgeCollector, LocationOfHost) {
  Lan lan(2, 4);
  lan.bridge->startup();
  const auto loc = lan.bridge->location_of(lan.addr(lan.hosts[0]));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->first, lan.addr(lan.switches[0]));
}

TEST(BridgeCollector, DetectsHostMove) {
  Lan lan(2, 4);
  lan.bridge->startup();
  EXPECT_EQ(lan.bridge->move_count(), 0u);
  // h0 re-associates from s0 to s1 (wireless handoff).
  lan.net.move_host(lan.hosts[0], lan.switches[1], 100e6);
  const std::size_t moved = lan.bridge->check_locations();
  EXPECT_EQ(moved, 1u);
  EXPECT_EQ(lan.bridge->move_count(), 1u);
  EXPECT_GT(lan.bridge->topology_version(), 0u);
  const auto loc = lan.bridge->location_of(lan.addr(lan.hosts[0]));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->first, lan.addr(lan.switches[1]));
  // Paths now route via the new attachment.
  const auto path = lan.bridge->l2_path(lan.addr(lan.hosts[0]), lan.addr(lan.hosts[3]));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 2u);  // h0 and h3 both on s1 now
}

TEST(BridgeCollector, PeriodicMonitorRunsAutomatically) {
  Lan lan(2, 4, /*check_interval=*/10.0);
  lan.bridge->startup();
  lan.net.move_host(lan.hosts[1], lan.switches[0], 100e6);
  lan.engine.run_until(25.0);  // two monitor passes
  EXPECT_EQ(lan.bridge->move_count(), 1u);
}

TEST(BridgeCollector, StableLocationsCauseNoMoves) {
  Lan lan(3, 6, /*check_interval=*/5.0);
  lan.bridge->startup();
  lan.engine.run_until(60.0);
  EXPECT_EQ(lan.bridge->move_count(), 0u);
}

TEST(BridgeCollector, HubBehindPortBecomesCloud) {
  net::Network net("hublan");
  sim::Engine engine;
  const net::NodeId sw = net.add_switch("sw");
  const net::NodeId hub = net.add_hub("hub", 10e6);
  net.connect(sw, hub, 10e6);
  const net::NodeId a = net.add_host("a");
  const net::NodeId b = net.add_host("b");
  const net::NodeId c = net.add_host("c");
  net.connect(a, hub, 10e6);
  net.connect(b, hub, 10e6);
  net.connect(c, sw, 100e6);
  net.finalize();
  snmp::AgentRegistry agents(net, sim::Rng(2));
  BridgeCollectorConfig cfg;
  cfg.switches = {net.node(sw).primary_address()};
  cfg.arp = apps::make_arp(net);
  BridgeCollector bridge(engine, agents, std::move(cfg));
  bridge.startup();
  // a and b share the hub port; the path between them crosses the cloud.
  const auto path = bridge.l2_path(net.node(a).primary_address(), net.node(b).primary_address());
  ASSERT_TRUE(path.has_value());
  bool saw_shared = false;
  for (const auto& hop : *path) saw_shared |= hop.shared_medium;
  EXPECT_TRUE(saw_shared);
  // a to c crosses the switch.
  const auto path2 = bridge.l2_path(net.node(a).primary_address(), net.node(c).primary_address());
  ASSERT_TRUE(path2.has_value());
  EXPECT_GE(path2->size(), 2u);
}

// ---------------------------------------------------------------------------
// l2_path against ground truth and against a per-call BFS reference
// ---------------------------------------------------------------------------

/// The straightforward l2_path: build the adjacency of the whole inferred
/// graph, then BFS from the source endpoint (endpoints other than the
/// source do not forward). The indexed l2_path must return exactly these
/// hops; this reference lives only here.
std::optional<std::vector<L2PathHop>> reference_l2_path(const BridgeCollector& bridge,
                                                        net::Ipv4Address src,
                                                        net::Ipv4Address dst) {
  const auto& nodes = bridge.l2_nodes();
  const auto& edges = bridge.l2_edges();
  const auto src_mac = bridge.resolve_mac(src);
  const auto dst_mac = bridge.resolve_mac(dst);
  if (!src_mac || !dst_mac) return std::nullopt;
  auto endpoint = [&](std::uint64_t mac) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].kind == L2Node::Kind::kEndpoint && nodes[i].mac == mac) return i;
    }
    return ~std::size_t{0};
  };
  const std::size_t from = endpoint(*src_mac);
  const std::size_t to = endpoint(*dst_mac);
  if (from == ~std::size_t{0} || to == ~std::size_t{0}) return std::nullopt;
  if (from == to) return std::vector<L2PathHop>{};
  std::vector<std::vector<std::size_t>> adj(nodes.size());
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    adj[edges[ei].a].push_back(ei);
    adj[edges[ei].b].push_back(ei);
  }
  std::vector<std::size_t> via(nodes.size(), ~std::size_t{0});
  std::vector<std::size_t> prev(nodes.size(), ~std::size_t{0});
  std::vector<bool> seen(nodes.size(), false);
  std::vector<std::size_t> frontier{from};
  seen[from] = true;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::size_t u = frontier[head];
    if (u == to) break;
    if (nodes[u].kind == L2Node::Kind::kEndpoint && u != from) continue;
    for (std::size_t ei : adj[u]) {
      const std::size_t v = edges[ei].a == u ? edges[ei].b : edges[ei].a;
      if (seen[v]) continue;
      seen[v] = true;
      via[v] = ei;
      prev[v] = u;
      frontier.push_back(v);
    }
  }
  if (!seen[to]) return std::nullopt;
  std::vector<L2PathHop> hops;
  for (std::size_t cur = to; cur != from; cur = prev[cur]) {
    const L2Edge& e = edges[via[cur]];
    L2PathHop hop;
    hop.capacity_bps = e.capacity_bps;
    hop.link_id = e.link_id;
    hop.shared_medium = e.shared;
    hop.from = nodes[prev[cur]];
    hop.to = nodes[cur];
    if (nodes[e.a].kind == L2Node::Kind::kSwitch) {
      hop.agent = nodes[e.a].addr;
      hop.port = e.a_port;
      hop.agent_on_from_side = e.a == prev[cur];
    } else if (nodes[e.b].kind == L2Node::Kind::kSwitch) {
      hop.agent = nodes[e.b].addr;
      hop.port = e.b_port;
      hop.agent_on_from_side = e.b == prev[cur];
    }
    hops.push_back(std::move(hop));
  }
  std::reverse(hops.begin(), hops.end());
  return hops;
}

std::string render(const std::optional<std::vector<L2PathHop>>& path) {
  if (!path) return "none";
  std::string out;
  for (const L2PathHop& h : *path) {
    out += to_string(h.from) + " -> " + to_string(h.to) + " via " + h.agent.to_string() + ":" +
           std::to_string(h.port) + (h.agent_on_from_side ? " from-side" : " to-side") +
           " cap=" + std::to_string(h.capacity_bps) + " id=" + h.link_id +
           (h.shared_medium ? " shared" : "") + "\n";
  }
  return out;
}

/// Switches the simulator's own L2 forwarding path crosses, in order.
std::vector<net::Ipv4Address> true_switches(const net::Network& net, net::NodeId from,
                                            net::NodeId to) {
  std::vector<net::Ipv4Address> out;
  net::NodeId cur = from;
  for (const net::Hop& hop : net.l2_path(from, to)) {
    cur = net.link(hop.link).other(cur);
    if (net.node(cur).kind == net::NodeKind::kSwitch) {
      out.push_back(net.node(cur).primary_address());
    }
  }
  return out;
}

/// Switches the bridge's path crosses, in order.
std::vector<net::Ipv4Address> path_switches(const std::vector<L2PathHop>& path) {
  std::vector<net::Ipv4Address> out;
  for (const L2PathHop& hop : path) {
    if (hop.to.kind == L2Node::Kind::kSwitch) out.push_back(hop.to.addr);
  }
  return out;
}

/// Every ordered pair of `endpoints`: the path crosses the true switches
/// and equals the reference BFS hop for hop.
void expect_paths_match(const net::Network& net, const BridgeCollector& bridge,
                        const std::vector<net::NodeId>& endpoints, const std::string& what) {
  std::size_t checked = 0;
  for (net::NodeId a : endpoints) {
    for (net::NodeId b : endpoints) {
      if (a == b) continue;
      const net::Ipv4Address src = net.node(a).primary_address();
      const net::Ipv4Address dst = net.node(b).primary_address();
      const auto path = bridge.l2_path(src, dst);
      ASSERT_TRUE(path.has_value()) << what << " " << net.node(a).name << "->" << net.node(b).name;
      EXPECT_EQ(path_switches(*path), true_switches(net, a, b))
          << what << " " << net.node(a).name << "->" << net.node(b).name;
      EXPECT_EQ(render(path), render(reference_l2_path(bridge, src, dst)))
          << what << " " << net.node(a).name << "->" << net.node(b).name;
      ++checked;
    }
  }
  EXPECT_EQ(checked, endpoints.size() * (endpoints.size() - 1)) << what;
}

TEST(BridgeCollectorGroundTruth, MultiSwitchLanPathsMatchSimulator) {
  apps::LanTestbed lan(apps::LanTestbed::Params{.hosts = 30, .switches = 5});
  lan.bridge->startup();
  std::vector<net::NodeId> endpoints = lan.hosts;
  endpoints.push_back(lan.router);
  expect_paths_match(lan.net, *lan.bridge, endpoints, "startup");

  // Hosts re-associate at other switches; the monitor rewires them.
  lan.net.move_host(lan.hosts[0], lan.switches[4], 100e6);
  lan.net.move_host(lan.hosts[13], lan.switches[0], 100e6);
  EXPECT_EQ(lan.bridge->check_locations(), 2u);
  expect_paths_match(lan.net, *lan.bridge, endpoints, "after moves");
}

TEST(BridgeCollectorGroundTruth, HubCloudLanPathsMatchSimulator) {
  // A branching switch tree with two hubs: core - {left, right}, right -
  // edge; a hub under left and another under edge.
  net::Network net("hubtree");
  sim::Engine engine;
  const net::NodeId core = net.add_switch("core");
  const net::NodeId left = net.add_switch("left");
  const net::NodeId right = net.add_switch("right");
  const net::NodeId edge = net.add_switch("edge");
  net.connect(core, left, 1e9);
  net.connect(core, right, 1e9);
  net.connect(right, edge, 1e9);
  const net::NodeId hub1 = net.add_hub("hub1", 10e6);
  const net::NodeId hub2 = net.add_hub("hub2", 10e6);
  net.connect(left, hub1, 10e6);
  net.connect(edge, hub2, 10e6);
  std::vector<net::NodeId> hosts;
  const std::vector<net::NodeId> attach{core, left, right, edge, hub1,
                                        hub1, hub1,  hub2,  hub2, edge};
  for (std::size_t i = 0; i < attach.size(); ++i) {
    hosts.push_back(net.add_host("h" + std::to_string(i)));
    net.connect(hosts.back(), attach[i], 100e6);
  }
  net.finalize();
  snmp::AgentRegistry agents(net, sim::Rng(5));
  BridgeCollectorConfig cfg;
  for (net::NodeId sw : {core, left, right, edge}) {
    cfg.switches.push_back(net.node(sw).primary_address());
  }
  cfg.arp = apps::make_arp(net);
  cfg.location_check_interval_s = 0.0;
  BridgeCollector bridge(engine, agents, std::move(cfg));
  bridge.startup();
  EXPECT_EQ(bridge.inter_switch_link_count(), 3u);
  expect_paths_match(net, bridge, hosts, "startup");

  // A switch-attached host moves; cloud members stay put.
  net.move_host(hosts[0], edge, 100e6);
  EXPECT_EQ(bridge.check_locations(), 1u);
  expect_paths_match(net, bridge, hosts, "after a move");
}

TEST(BridgeCollector, StartupCostGrowsWithLanSize) {
  Lan small(2, 8);
  Lan large(2, 64);
  const double small_cost = small.bridge->startup();
  const double large_cost = large.bridge->startup();
  EXPECT_GT(large_cost, 2.0 * small_cost);
}

}  // namespace
}  // namespace remos::core
