#include "core/types.hpp"

#include <algorithm>
#include <cstdio>

#include "core/audit.hpp"

namespace remos::core {

const char* to_string(VNodeKind kind) {
  switch (kind) {
    case VNodeKind::kHost: return "host";
    case VNodeKind::kRouter: return "router";
    case VNodeKind::kSwitch: return "switch";
    case VNodeKind::kVirtualSwitch: return "vswitch";
  }
  return "?";
}

VNodeIndex VirtualTopology::add_node(VNode node) {
  nodes_.push_back(std::move(node));
  return static_cast<VNodeIndex>(nodes_.size() - 1);
}

VNodeIndex VirtualTopology::ensure_node(VNode node) {
  const VNodeIndex existing = find_by_name(node.name);
  if (existing != kNoVNode) return existing;
  return add_node(std::move(node));
}

std::size_t VirtualTopology::add_edge(VEdge edge) {
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    VEdge& e = edges_[i];
    if (e.id == edge.id && ((e.a == edge.a && e.b == edge.b) || (e.a == edge.b && e.b == edge.a))) {
      // Refresh measurements; flip directions if endpoint order differs.
      const bool flipped = (e.a == edge.b);
      e.capacity_bps = edge.capacity_bps;
      e.util_ab_bps = flipped ? edge.util_ba_bps : edge.util_ab_bps;
      e.util_ba_bps = flipped ? edge.util_ab_bps : edge.util_ba_bps;
      e.latency_s = edge.latency_s;
      e.staleness_s = edge.staleness_s;
      return i;
    }
  }
  return append_edge(std::move(edge));
}

std::size_t VirtualTopology::append_edge(VEdge edge) {
  REMOS_CHECK(edge.a < nodes_.size() && edge.b < nodes_.size(),
              "edge endpoints must reference existing nodes");
  edges_.push_back(std::move(edge));
  return edges_.size() - 1;
}

VNodeIndex VirtualTopology::find_by_name(std::string_view name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return static_cast<VNodeIndex>(i);
  }
  return kNoVNode;
}

VNodeIndex VirtualTopology::find_by_addr(net::Ipv4Address addr) const {
  if (addr.is_zero()) return kNoVNode;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].addr == addr) return static_cast<VNodeIndex>(i);
  }
  return kNoVNode;
}

std::vector<std::size_t> VirtualTopology::incident_edges(VNodeIndex v) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].a == v || edges_[i].b == v) out.push_back(i);
  }
  return out;
}

void VirtualTopology::merge(const VirtualTopology& other) {
  std::vector<VNodeIndex> remap(other.nodes_.size());
  for (std::size_t i = 0; i < other.nodes_.size(); ++i) {
    remap[i] = ensure_node(other.nodes_[i]);
  }
  for (const VEdge& e : other.edges_) {
    REMOS_CHECK(e.a < remap.size() && e.b < remap.size(),
                "merged edge endpoints must be in range of the source topology");
    VEdge copy = e;
    copy.a = remap[e.a];
    copy.b = remap[e.b];
    add_edge(std::move(copy));
  }
}

std::optional<std::vector<std::size_t>> VirtualTopology::shortest_path(VNodeIndex src,
                                                                       VNodeIndex dst) const {
  if (src >= nodes_.size() || dst >= nodes_.size()) return std::nullopt;
  if (src == dst) return std::vector<std::size_t>{};
  // BFS over a CSR adjacency built fresh per call from the edge list —
  // results only depend on the current graph, so there is no cache to
  // invalidate. All scratch lives in thread_local arenas: the historical
  // implementation allocated one vector per node per call, which made
  // routing the dominant cost of Modeler flow queries (see DESIGN.md
  // "Performance"). Per-node edge lists stay in ascending edge order (the
  // order the old per-node push_backs produced), so BFS tie-breaking — and
  // therefore every returned path — is unchanged.
  const std::size_t n = nodes_.size();
  thread_local std::vector<std::size_t> off;
  thread_local std::vector<std::size_t> cursor;
  thread_local std::vector<std::size_t> adj;
  thread_local std::vector<std::size_t> via_edge;
  thread_local std::vector<VNodeIndex> prev;
  thread_local std::vector<char> seen;
  thread_local std::vector<VNodeIndex> frontier;
  off.assign(n + 1, 0);
  for (const VEdge& e : edges_) {
    ++off[e.a + 1];
    ++off[e.b + 1];
  }
  for (std::size_t v = 0; v < n; ++v) off[v + 1] += off[v];
  adj.resize(edges_.size() * 2);
  cursor.assign(off.begin(), off.end() - 1);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    adj[cursor[edges_[i].a]++] = i;
    adj[cursor[edges_[i].b]++] = i;
  }
  via_edge.assign(n, ~std::size_t{0});
  prev.assign(n, kNoVNode);
  seen.assign(n, 0);
  frontier.clear();
  frontier.push_back(src);
  seen[src] = 1;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const VNodeIndex u = frontier[head];
    if (u == dst) break;
    // Hosts do not forward traffic.
    if (nodes_[u].kind == VNodeKind::kHost && u != src) continue;
    for (std::size_t k = off[u]; k < off[u + 1]; ++k) {
      const std::size_t ei = adj[k];
      const VEdge& e = edges_[ei];
      const VNodeIndex v = (e.a == u) ? e.b : e.a;
      if (seen[v] != 0) continue;
      seen[v] = 1;
      via_edge[v] = ei;
      prev[v] = u;
      frontier.push_back(v);
    }
  }
  if (seen[dst] == 0) return std::nullopt;
  std::vector<std::size_t> path;
  // remos-analyze: allow(hotpath): the returned path is the product; BFS scratch is thread_local above, and ROADMAP item 5 (SoA arenas) tracks moving the result into caller-owned storage
  for (VNodeIndex cur = dst; cur != src; cur = prev[cur]) path.push_back(via_edge[cur]);
  std::reverse(path.begin(), path.end());
  return path;
}

std::string VirtualTopology::to_text() const {
  std::string out;
  out += "virtual topology: " + std::to_string(nodes_.size()) + " nodes, " +
         std::to_string(edges_.size()) + " edges\n";
  for (const VEdge& e : edges_) {
    const VNode& na = nodes_[e.a];
    const VNode& nb = nodes_[e.b];
    char line[256];
    std::snprintf(line, sizeof line, "  %-18s <-> %-18s cap %8.2f Mb/s  util %7.2f/%7.2f Mb/s\n",
                  na.name.c_str(), nb.name.c_str(), e.capacity_bps / 1e6, e.util_ab_bps / 1e6,
                  e.util_ba_bps / 1e6);
    out += line;
  }
  return out;
}

}  // namespace remos::core
