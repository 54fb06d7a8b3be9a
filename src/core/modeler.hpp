// Modeler: the component that implements the Remos API.
//
// "Modelers provide the Remos API to the application and communicate with
// a collector to obtain information needed to respond to queries made
// through the API." The Modeler post-processes collector topologies
// (virtual-switch simplification), answers flow queries with max-min flow
// calculations, and acts as the intermediary to the RPS prediction service
// when predictions are requested.
//
// The Modeler is a thin adapter over the snapshot answer functions
// (core/query_snapshot.hpp) that QueryServer serves from too: each query
// fetches an ephemeral QuerySnapshot of just the nodes it names, then
// answers over it exactly as QueryServer answers over its published
// universe snapshot. The two front-ends differ only in when the fetch
// happens — per query here, once per epoch there.
#pragma once

#include <optional>

#include "core/collector.hpp"
#include "core/maxmin.hpp"
#include "core/query_snapshot.hpp"
#include "core/types.hpp"
#include "rps/predictor.hpp"

namespace remos::core {

struct ModelerConfig {
  std::string name = "modeler";
  /// Collapse pure switch clusters into single virtual switches when
  /// reporting topology to the application.
  bool simplify_topology = true;
  /// Model used for client-server predictions (AR(16) per the paper's
  /// host-load findings; bandwidth model choice is an open question there).
  rps::ModelSpec prediction_model = rps::ModelSpec::ar(16);
  std::size_t prediction_horizon = 30;
  /// Minimum history samples before a prediction is attempted.
  std::size_t min_history = 64;
};

class Modeler {
 public:
  explicit Modeler(Collector& collector, ModelerConfig config = {});

  // ---- Remos API ----

  /// Topology query: the virtual topology connecting `nodes`, simplified
  /// for application consumption.
  [[nodiscard]] VirtualTopology topology_query(const std::vector<net::Ipv4Address>& nodes);

  /// Flow query: predicted max-min bandwidth for a set of flows introduced
  /// together. "the Modeler reports only the bottleneck available
  /// bandwidth to the application."
  [[nodiscard]] std::vector<FlowInfo> flow_query(const FlowQuery& query);

  /// Single-flow convenience.
  [[nodiscard]] FlowInfo flow_info(net::Ipv4Address src, net::Ipv4Address dst);

  /// Future available bandwidth of a flow's bottleneck, via the RPS
  /// client-server interface over the collector's whole measurement
  /// history of the binding direction (empty histories are skipped).
  [[nodiscard]] std::optional<FlowPrediction> predict_flow(const FlowRequest& request,
                                                           std::size_t horizon = 0);

  /// Collector time spent answering the most recent query — applications
  /// computing *effective* bandwidth (Figs 8-9) add this to transfer time.
  [[nodiscard]] double last_query_cost_s() const { return last_cost_s_; }
  [[nodiscard]] bool last_query_complete() const { return last_complete_; }
  /// Worst measurement age in the most recent answer (0 = all fresh).
  /// Rises while agents along the reported paths are unreachable.
  [[nodiscard]] double last_query_staleness_s() const { return last_staleness_s_; }

  /// Collapse maximal switch/virtual-switch clusters into single virtual
  /// switches; endpoints keep their access-link capacity and utilization.
  /// The result is audited (audit::audit_topology) before it is returned.
  [[nodiscard]] static VirtualTopology simplify(const VirtualTopology& topo);

 private:
  /// One collector fetch of `nodes` (deduplicated) as an ephemeral
  /// snapshot carrying `history_window` samples per edge direction (0: no
  /// histories); records the last_query_* state and the core.modeler.*
  /// metrics.
  QuerySnapshot fetch(const std::vector<net::Ipv4Address>& nodes, std::size_t history_window);

  Collector& collector_;
  ModelerConfig config_;
  rps::ClientServerPredictor predictor_;
  /// Max-min problem arenas, reused across flow queries. Explicitly owned
  /// here (one scratch per Modeler, which is single-threaded per instance)
  /// rather than hidden in thread_local storage inside the allocator.
  MaxMinScratch maxmin_scratch_;
  double last_cost_s_ = 0.0;
  bool last_complete_ = true;
  double last_staleness_s_ = 0.0;
};

}  // namespace remos::core
