#include "core/modeler.hpp"

#include "core/audit.hpp"
#include "core/obs.hpp"
#include "core/query_snapshot.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

namespace remos::core {

Modeler::Modeler(Collector& collector, ModelerConfig config)
    : collector_(collector), config_(std::move(config)), predictor_(config_.prediction_model) {}

VirtualTopology Modeler::fetch(const std::vector<net::Ipv4Address>& nodes) {
  auto sp = obs::span("modeler.fetch");
  sp.attr("nodes", nodes.size());
  // Deduplicate while preserving order (collectors key caches on pairs).
  std::vector<net::Ipv4Address> unique;
  for (net::Ipv4Address a : nodes) {
    if (std::find(unique.begin(), unique.end(), a) == unique.end()) unique.push_back(a);
  }
  CollectorResponse resp = collector_.query(unique);
  last_cost_s_ = resp.cost_s;
  last_complete_ = resp.complete;
  last_staleness_s_ = resp.max_staleness_s;
  sim::metrics().counter("core.modeler.queries_total").inc();
  // Virtual response time of the underlying collector query — the quantity
  // Fig 3/Fig 5 measure per scenario, pinned here as a distribution.
  sim::metrics().histogram("core.modeler.query_latency_s").observe(resp.cost_s);
  return std::move(resp.topology);
}

VirtualTopology Modeler::topology_query(const std::vector<net::Ipv4Address>& nodes) {
  VirtualTopology topo = fetch(nodes);
  if (!config_.simplify_topology) return topo;
  // simplify() audits its own result: collapsing switch clusters into
  // virtual switches is exactly the merge step the topology audit guards.
  return simplify(topo);
}

std::vector<FlowInfo> Modeler::flow_query(const FlowQuery& query) {
  std::vector<net::Ipv4Address> endpoints;
  for (const FlowRequest& f : query.flows) {
    endpoints.push_back(f.src);
    endpoints.push_back(f.dst);
  }
  const VirtualTopology topo = fetch(endpoints);
  return max_min_allocate(topo, query.flows, maxmin_scratch_).flows;
}

FlowInfo Modeler::flow_info(net::Ipv4Address src, net::Ipv4Address dst) {
  FlowQuery q;
  q.flows.push_back(FlowRequest{src, dst, std::numeric_limits<double>::infinity()});
  auto infos = flow_query(q);
  return infos.empty() ? FlowInfo{} : std::move(infos.front());
}

std::optional<FlowPrediction> Modeler::predict_flow(const FlowRequest& request,
                                                    std::size_t horizon) {
  if (horizon == 0) horizon = config_.prediction_horizon;
  const VirtualTopology topo = fetch({request.src, request.dst});
  const FlowInfo info = single_flow_info(topo, request, maxmin_scratch_);
  if (!info.routable()) return std::nullopt;

  // Bottleneck edge (minimum available bandwidth along the path), binding
  // history direction, and the fit + utilization-to-available conversion
  // are shared with the snapshot query path (core/query_snapshot.hpp) so
  // the two serving paths cannot drift apart.
  const VEdge* bottleneck = bottleneck_edge(topo, info);
  if (bottleneck == nullptr) return std::nullopt;

  const sim::MeasurementHistory* h_ab = collector_.history(bottleneck->id);
  const sim::MeasurementHistory* h_ba = collector_.history(bottleneck->id + ":ba");
  std::optional<std::vector<double>> v_ab, v_ba;
  if (h_ab != nullptr) v_ab = h_ab->values();
  if (h_ba != nullptr) v_ba = h_ba->values();
  const std::vector<double>* hist =
      choose_history(v_ab ? &*v_ab : nullptr, v_ba ? &*v_ba : nullptr);
  if (hist == nullptr) return std::nullopt;
  return predict_from_history(*hist, *bottleneck, predictor_, config_.prediction_model, horizon,
                              config_.min_history);
}

VirtualTopology Modeler::simplify(const VirtualTopology& topo) {
  const auto& nodes = topo.nodes();
  // Union-find over switch-kind vertices connected by an edge.
  std::vector<std::size_t> parent(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) parent[i] = i;
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto is_switchy = [&](std::size_t i) {
    return nodes[i].kind == VNodeKind::kSwitch || nodes[i].kind == VNodeKind::kVirtualSwitch;
  };
  for (const VEdge& e : topo.edges()) {
    if (is_switchy(e.a) && is_switchy(e.b)) parent[find(e.a)] = find(e.b);
  }

  VirtualTopology out;
  std::vector<VNodeIndex> remap(nodes.size(), kNoVNode);
  // Endpoints copy through; each switch cluster becomes one virtual switch.
  std::map<std::size_t, VNodeIndex> cluster_node;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!is_switchy(i)) {
      remap[i] = out.add_node(nodes[i]);
      continue;
    }
    const std::size_t root = find(i);
    auto it = cluster_node.find(root);
    if (it == cluster_node.end()) {
      VNode vs;
      vs.kind = VNodeKind::kVirtualSwitch;
      vs.name = "vswitch#" + std::to_string(cluster_node.size());
      it = cluster_node.emplace(root, out.add_node(std::move(vs))).first;
    }
    remap[i] = it->second;
  }
  for (const VEdge& e : topo.edges()) {
    const VNodeIndex a = remap[e.a];
    const VNodeIndex b = remap[e.b];
    if (a == b) continue;  // intra-cluster trunk: absorbed by the vswitch
    VEdge copy = e;
    copy.a = a;
    copy.b = b;
    out.add_edge(std::move(copy));
  }
  audit::audit_topology(out);
  return out;
}

}  // namespace remos::core
