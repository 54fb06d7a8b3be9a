#include "core/query_snapshot.hpp"

#include <algorithm>
#include <limits>

#include "sim/stats.hpp"

namespace remos::core {

VirtualTopology span_topology(const VirtualTopology& topo,
                              const std::vector<net::Ipv4Address>& nodes) {
  // Resolve and deduplicate endpoints, preserving request order (the same
  // normalization Modeler::fetch applies before a collector query).
  std::vector<VNodeIndex> endpoints;
  for (net::Ipv4Address a : nodes) {
    const VNodeIndex idx = topo.find_by_addr(a);
    if (idx == kNoVNode) continue;
    if (std::find(endpoints.begin(), endpoints.end(), idx) == endpoints.end()) {
      endpoints.push_back(idx);
    }
  }

  std::vector<bool> keep_node(topo.node_count(), false);
  std::vector<bool> keep_edge(topo.edge_count(), false);
  for (const VNodeIndex v : endpoints) keep_node[v] = true;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    for (std::size_t j = i + 1; j < endpoints.size(); ++j) {
      const auto path = topo.shortest_path(endpoints[i], endpoints[j]);
      if (!path) continue;
      for (const std::size_t e : *path) {
        keep_edge[e] = true;
        keep_node[topo.edges()[e].a] = true;
        keep_node[topo.edges()[e].b] = true;
      }
    }
  }

  // Rebuild in source order so the result is deterministic and edge/node
  // relative order survives the projection.
  VirtualTopology out;
  std::vector<VNodeIndex> remap(topo.node_count(), kNoVNode);
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    if (keep_node[i]) remap[i] = out.add_node(topo.nodes()[i]);
  }
  for (std::size_t e = 0; e < topo.edge_count(); ++e) {
    if (!keep_edge[e]) continue;
    VEdge copy = topo.edges()[e];
    copy.a = remap[copy.a];
    copy.b = remap[copy.b];
    out.add_edge(std::move(copy));
  }
  return out;
}

const VEdge* bottleneck_edge(const VirtualTopology& topo, const FlowInfo& info) {
  const VEdge* bottleneck = nullptr;
  double best_avail = std::numeric_limits<double>::infinity();
  for (const std::string& id : info.path_edge_ids) {
    for (const VEdge& e : topo.edges()) {
      if (e.id != id) continue;
      const double avail = std::min(e.available_bps(true), e.available_bps(false));
      if (avail < best_avail) {
        best_avail = avail;
        bottleneck = &e;
      }
    }
  }
  return bottleneck;
}

const std::vector<double>* choose_history(const std::vector<double>* ab,
                                          const std::vector<double>* ba) {
  if (ab != nullptr && ba != nullptr) {
    const auto mean_of = [](const std::vector<double>& values) {
      sim::RunningStats s;
      for (double v : values) s.add(v);
      return s.mean();
    };
    return mean_of(*ba) > mean_of(*ab) ? ba : ab;
  }
  return ab != nullptr ? ab : ba;
}

namespace {

/// Convert a raw RPS forecast to available bandwidth on the bottleneck.
FlowPrediction render_flow_prediction(rps::Prediction pred, const VEdge& bottleneck,
                                      const rps::ModelSpec& model) {
  FlowPrediction out;
  out.model_name = model.to_string();
  out.variance = std::move(pred.variance);
  out.mean_bps.reserve(pred.mean.size());
  const bool history_is_available_bw = bottleneck.id.starts_with("wan:");
  for (double v : pred.mean) {
    // SNMP-collector histories record *utilization*; available bandwidth is
    // capacity minus that. Benchmark (WAN) histories record available
    // bandwidth directly.
    const double avail = history_is_available_bw ? v : bottleneck.capacity_bps - v;
    out.mean_bps.push_back(std::clamp(avail, 0.0, bottleneck.capacity_bps));
  }
  return out;
}

}  // namespace

std::optional<FlowPrediction> predict_from_history(std::span<const double> values,
                                                   const VEdge& bottleneck,
                                                   const rps::ClientServerPredictor& predictor,
                                                   const rps::ModelSpec& model,
                                                   std::size_t horizon,
                                                   std::size_t min_history,
                                                   rps::SharedPredictionCache* cache) {
  std::optional<rps::Prediction> pred;
  if (values.size() >= min_history) {
    pred = predictor.predict({values, horizon, model}, cache, bottleneck.id);
  } else if (cache != nullptr) {
    pred = rps::seed_from_template(*cache, model, values, horizon);
  }
  if (!pred) return std::nullopt;
  return render_flow_prediction(std::move(*pred), bottleneck, model);
}

}  // namespace remos::core
