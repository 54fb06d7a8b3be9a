// Remos core data types: the virtual topology graph exchanged between
// collectors and modelers, and the query/response structures of the
// Remos API (topology queries and flow queries).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "sim/stats.hpp"

namespace remos::core {

/// Index of a vertex within a VirtualTopology.
using VNodeIndex = std::uint32_t;
inline constexpr VNodeIndex kNoVNode = ~0u;

enum class VNodeKind : std::uint8_t {
  kHost,
  kRouter,
  kSwitch,
  /// Synthesized by a collector/modeler to stand for network elements it
  /// could not access (shared Ethernet, unmanageable routers, a WAN cloud).
  kVirtualSwitch,
};

[[nodiscard]] const char* to_string(VNodeKind kind);

struct VNode {
  VNodeKind kind = VNodeKind::kHost;
  std::string name;           // device name, or synthesized vswitch label
  net::Ipv4Address addr{};    // primary address (zero for virtual switches)
};

/// Undirected edge carrying per-direction measurements (full duplex).
struct VEdge {
  VNodeIndex a = kNoVNode;
  VNodeIndex b = kNoVNode;
  double capacity_bps = 0.0;       // link capacity (0 = unknown)
  double util_ab_bps = 0.0;        // measured traffic a -> b
  double util_ba_bps = 0.0;        // measured traffic b -> a
  double latency_s = 0.0;
  std::string id;                  // stable resource identifier for history lookups
  /// Quality annotation: age (seconds) of the utilization measurements at
  /// response time. 0 = fresh (or unmeasured — capacity-only edges). Grows
  /// while the monitoring agent is unreachable; resets when it recovers.
  double staleness_s = 0.0;

  /// Available bandwidth in the given direction. A zero capacity means
  /// "unknown" (an unmeasurable virtual-switch edge) and is treated as
  /// unconstrained — the constraint lives on the measurable edges.
  [[nodiscard]] double available_bps(bool ab) const {
    if (capacity_bps <= 0.0) return std::numeric_limits<double>::infinity();
    const double used = ab ? util_ab_bps : util_ba_bps;
    const double avail = capacity_bps - used;
    return avail > 0.0 ? avail : 0.0;
  }
};

/// The graph form in which Remos reports network state. Vertices are keyed
/// by name (devices) so topologies from different collectors merge cleanly.
class VirtualTopology {
 public:
  VNodeIndex add_node(VNode node);
  /// Find-or-create by name; existing node wins (its kind/addr kept).
  VNodeIndex ensure_node(VNode node);
  /// Add an edge; duplicate (a,b,id) edges update measurements instead.
  std::size_t add_edge(VEdge edge);
  /// Add an edge the caller knows duplicates no existing (a,b,id) edge,
  /// without add_edge's scan of the edge list.
  std::size_t append_edge(VEdge edge);

  [[nodiscard]] VNodeIndex find_by_name(std::string_view name) const;
  [[nodiscard]] VNodeIndex find_by_addr(net::Ipv4Address addr) const;

  [[nodiscard]] const std::vector<VNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<VEdge>& edges() const { return edges_; }
  [[nodiscard]] std::vector<VEdge>& edges() { return edges_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  /// Edge indices incident to a vertex.
  [[nodiscard]] std::vector<std::size_t> incident_edges(VNodeIndex v) const;

  /// Union with another topology (vertices merged by name). Edge
  /// measurements from `other` overwrite same-id edges.
  void merge(const VirtualTopology& other);

  /// Shortest path (hop count) between two vertices; edge indices in
  /// order. Empty when src == dst; nullopt when disconnected.
  [[nodiscard]] std::optional<std::vector<std::size_t>> shortest_path(VNodeIndex src,
                                                                      VNodeIndex dst) const;

  /// Multi-line human-readable rendering (examples print this).
  [[nodiscard]] std::string to_text() const;

 private:
  std::vector<VNode> nodes_;
  std::vector<VEdge> edges_;
};

// ---------------------------------------------------------------------------
// Remos API queries
// ---------------------------------------------------------------------------

/// Topology query: "give me the virtual topology connecting these nodes".
struct TopologyQuery {
  std::vector<net::Ipv4Address> nodes;
};

/// One requested flow in a flow query.
struct FlowRequest {
  net::Ipv4Address src{};
  net::Ipv4Address dst{};
  /// Application demand cap; infinity = "as much as possible".
  double demand_bps = std::numeric_limits<double>::infinity();
};

/// Flow query: predicted performance for a *set* of flows introduced
/// simultaneously (they share bottlenecks max-min fairly).
struct FlowQuery {
  std::vector<FlowRequest> flows;
};

struct FlowInfo {
  /// Max-min bandwidth this new flow can expect, given measured residual
  /// capacity and the other flows in the same query.
  double available_bps = 0.0;
  /// Raw bottleneck capacity along the chosen path.
  double bottleneck_capacity_bps = 0.0;
  double latency_s = 0.0;
  /// Edge ids of the path used (empty when unroutable).
  std::vector<std::string> path_edge_ids;
  [[nodiscard]] bool routable() const { return !path_edge_ids.empty(); }
};

/// Prediction of future available bandwidth for one flow.
struct FlowPrediction {
  std::vector<double> mean_bps;
  std::vector<double> variance;
  std::string model_name;
};

/// What collectors return: a topology plus the virtual time the collector
/// spent assembling it (SNMP round trips etc.) — the "query time" axis of
/// the paper's Fig 3.
struct CollectorResponse {
  VirtualTopology topology;
  double cost_s = 0.0;
  bool complete = true;  // false when parts of the query failed
  /// Worst-case measurement age across the reported edges — applications
  /// (and upstream Master Collectors) use it to judge answer quality when
  /// agents are flapping.
  double max_staleness_s = 0.0;
};

}  // namespace remos::core
