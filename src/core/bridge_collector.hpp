// Bridge Collector: level-2 (switched Ethernet) topology discovery.
//
// "the Bridge Collector is used to determine the topology of the Ethernet
// LAN through queries to the forwarding database in the Bridge-MIB of each
// bridge or switch. At startup, the Bridge Collector queries all components
// of a bridged Ethernet to determine its topology, then stores this
// information in a database."
//
// Topology inference uses the complete-FDB theorem (Lowekamp/O'Hallaron/
// Gross, SIGCOMM 2001): two ports on different bridges are directly
// connected iff their forwarding sets are disjoint and jointly cover every
// known address. Host locations follow from the access-port rule: a host
// sits on the unique non-trunk port whose FDB lists it. Multiple endpoints
// behind one access port indicate an invisible shared medium (hub), which
// the collector represents as a cloud the SNMP Collector will surface as a
// virtual switch.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "snmp/client.hpp"

namespace remos::core {

/// Typed identity of one element of the inferred L2 graph. Switches are
/// named by management address, endpoints by MAC, and an invisible shared
/// medium (hub cloud) by the switch address and access port it hangs off.
struct L2Node {
  enum class Kind : std::uint8_t { kSwitch, kEndpoint, kCloud } kind = Kind::kEndpoint;
  net::Ipv4Address addr{};  // switches and clouds: the switch's address
  std::uint64_t mac = 0;    // endpoints
  std::uint32_t port = 0;   // clouds: the switch port behind which they sit
  friend bool operator==(const L2Node&, const L2Node&) = default;
};

/// Display form: "sw@<ip>", "mac:<hex12>" or "cloud@<ip>:<port>".
[[nodiscard]] std::string to_string(const L2Node& node);

/// One monitorable element of an L2 path: the link behind switch port
/// (agent, port). Utilization of the link is read from that port's octet
/// counters.
struct L2PathHop {
  net::Ipv4Address agent{};     // switch management address
  std::uint32_t port = 0;       // egress port toward the next element
  double capacity_bps = 0.0;    // port speed (min of both ends for trunks)
  std::string link_id;          // stable resource identifier
  bool shared_medium = false;   // true when the hop crosses a hub cloud
  /// The hop's elements in traversal order, so callers can reconstruct
  /// the node chain.
  L2Node from;
  L2Node to;
  /// True when the monitoring switch (agent/port) sits on the `from` side
  /// of the hop — out_octets at that port then measure from->to traffic.
  bool agent_on_from_side = false;
};

/// One link of the inferred L2 graph, between two L2Node indices.
struct L2Edge {
  std::uint32_t a = 0, b = 0;            // node indices; an endpoint is always `b`
  std::uint32_t a_port = 0, b_port = 0;  // valid when that side is a switch
  double capacity_bps = 0.0;
  std::string link_id;
  bool shared = false;
};

struct BridgeCollectorConfig {
  /// Management addresses of every bridge/switch in the segment.
  std::vector<net::Ipv4Address> switches;
  std::string community = "public";
  /// Use SNMPv2 GetBulk for the startup walks (one round trip per ~24
  /// rows instead of per row).
  bool use_bulk = false;
  /// ARP-like resolution: endpoint IP -> MAC (the collector's config data).
  std::function<std::optional<std::uint64_t>(net::Ipv4Address)> arp;
  /// Period of the continuous host-location monitor (0 disables).
  double location_check_interval_s = 30.0;
};

class BridgeCollector {
 public:
  BridgeCollector(sim::Engine& engine, snmp::AgentRegistry& registry, BridgeCollectorConfig config);
  ~BridgeCollector();
  BridgeCollector(const BridgeCollector&) = delete;
  BridgeCollector& operator=(const BridgeCollector&) = delete;

  /// Walk every bridge's Bridge-MIB + ifTable and infer the L2 topology.
  /// Returns the virtual (SNMP) time the discovery cost.
  double startup();
  [[nodiscard]] bool started() const { return started_; }

  /// L2 path between two endpoint IPs (answered from the database — no
  /// SNMP traffic). nullopt when either endpoint is unknown.
  [[nodiscard]] std::optional<std::vector<L2PathHop>> l2_path(net::Ipv4Address src,
                                                              net::Ipv4Address dst) const;

  /// Resolve an endpoint IP to its MAC via the collector's ARP config.
  [[nodiscard]] std::optional<std::uint64_t> resolve_mac(net::Ipv4Address addr) const {
    return config_.arp ? config_.arp(addr) : std::nullopt;
  }

  /// Current attachment of an endpoint: (switch mgmt addr, port).
  [[nodiscard]] std::optional<std::pair<net::Ipv4Address, std::uint32_t>> location_of(
      net::Ipv4Address endpoint) const;

  /// Re-check every endpoint's forwarding entry once (the periodic monitor
  /// body; exposed for tests). Returns how many endpoints moved.
  std::size_t check_locations();

  /// Host moves observed by the continuous monitor since startup.
  [[nodiscard]] std::uint64_t move_count() const { return moves_; }

  /// Version bumped on every detected relocation — lets the SNMP
  /// Collector invalidate cached L2 paths.
  [[nodiscard]] std::uint64_t topology_version() const { return version_; }

  [[nodiscard]] std::size_t switch_count() const { return config_.switches.size(); }
  [[nodiscard]] std::size_t endpoint_count() const { return endpoints_.size(); }
  [[nodiscard]] std::size_t inter_switch_link_count() const;
  [[nodiscard]] const snmp::SnmpClient& client() const { return client_; }

  /// The inferred L2 graph (read-only; tests check l2_path against it).
  /// Switch i of the config is node i.
  [[nodiscard]] const std::vector<L2Node>& l2_nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<L2Edge>& l2_edges() const { return edges_; }

 private:
  struct SwitchData {
    net::Ipv4Address addr{};
    std::unordered_map<std::uint64_t, std::uint32_t> fdb;  // mac -> port
    std::unordered_map<std::uint32_t, double> port_speed;
  };
  /// An endpoint and the one edge that attaches it (the endpoint is its
  /// `b` side; a relocation rewires the edge's `a` side in place).
  struct Attachment {
    std::uint64_t mac = 0;
    std::uint32_t edge = 0;
  };

  double walk_switch(SwitchData& data);
  void infer_topology();
  void build_index();
  [[nodiscard]] const Attachment* attachment_of(std::uint64_t mac) const;
  [[nodiscard]] double port_speed(std::size_t sw, std::uint32_t port) const;

  sim::Engine& engine_;
  BridgeCollectorConfig config_;
  snmp::SnmpClient client_;
  std::vector<SwitchData> switches_;
  // Switches first (in config order), then clouds, then endpoints: the
  // first fabric_count_ nodes are the ones that forward.
  std::vector<L2Node> nodes_;
  std::uint32_t fabric_count_ = 0;
  std::vector<L2Edge> edges_;
  // The L2 index, built once per startup(): CSR adjacency over the
  // forwarding (switch and cloud) nodes (the edges incident to node v are
  // adj_[adj_offset_[v] .. adj_offset_[v + 1]), in ascending edge order)
  // and every endpoint's attachment sorted by MAC. Endpoints are leaves
  // reached only through their attachment edge, so the CSR leaves them out
  // and a relocation, which rewires an attachment edge, leaves it valid.
  // Sorted by MAC, the attachments also give check_locations() its
  // deterministic polling order — that order reaches the SNMP wire and
  // the logs.
  std::vector<std::uint32_t> adj_offset_;
  std::vector<std::uint32_t> adj_;
  std::vector<Attachment> endpoints_;
  std::set<std::pair<std::size_t, std::uint32_t>> trunk_ports_;  // (switch index, port)
  sim::TaskId monitor_task_ = 0;
  bool started_ = false;
  std::uint64_t moves_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace remos::core
