// Epoch-published query snapshots: the immutable state behind the
// lock-free Remos API read path.
//
// PR 7's concurrency inventory showed that every Modeler query pays two
// costs that scale badly with client count: a collector fetch (which
// mutates collector caches, so it must serialize) and the global lock that
// protects the fetched state while the answer is computed. The snapshot
// design moves both costs off the read path: the simulation thread builds
// a complete, immutable `QuerySnapshot` of the universe — topology,
// per-edge capacities and utilization, and copies of the measurement
// histories predictions need — and publishes it through an atomic
// shared_ptr swap. Readers on any thread load the current snapshot and
// answer topology/flow/predict queries from it with pure functions; no
// reader ever takes the collector's or the FlowEngine's locks.
//
// Grace-period rule (RCU by refcount): a reader that loaded snapshot N
// keeps it alive through its shared_ptr even after N+1 is published, so
// publication never blocks on readers and readers never observe a
// half-built snapshot. A snapshot is destroyed exactly when the last
// reader of its epoch drops it.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "rps/predictor.hpp"
#include "rps/shared_cache.hpp"

namespace remos::core {

/// One immutable, self-contained view of the monitored universe. Built on
/// the simulation thread (QueryServer::refresh), read concurrently from
/// any thread. Never mutated after publication.
// remos-published
struct QuerySnapshot {
  /// Publication serial, 1-based; 0 only for a never-refreshed server.
  std::uint64_t epoch = 0;
  /// Universe topology as the collector reported it (unsimplified —
  /// simplification is a per-query rendering choice).
  VirtualTopology topo;
  bool complete = true;
  /// Collector cost of assembling this snapshot (virtual seconds).
  double cost_s = 0.0;
  /// Worst measurement age across the snapshot's edges at build time.
  double staleness_s = 0.0;
  /// Per-resource measurement values (oldest first, bounded window),
  /// keyed by edge id and edge id + ":ba" — the prediction handles.
  /// std::map: deterministic iteration for renders and goldens.
  std::map<std::string, std::vector<double>> histories;

  [[nodiscard]] const std::vector<double>* history(const std::string& resource_id) const {
    auto it = histories.find(resource_id);
    return it == histories.end() ? nullptr : &it->second;
  }
};

using QuerySnapshotPtr = std::shared_ptr<const QuerySnapshot>;

// The publication slot itself is simply a `std::atomic<QuerySnapshotPtr>`
// member of the publishing class (QueryServer): writers swap in a fully
// built snapshot with a release store, readers acquire-load the current
// one wait-free with respect to publication. That is the one concurrency
// primitive of the snapshot design — declared as a bare std::atomic so
// the concurrency pass classifies it as atomic rather than lock-guarded.

// ---- pure answer helpers --------------------------------------------------
//
// Both the lock-free snapshot path and the retained mutex baseline answer
// queries through these functions, so on a quiescent simulation the two
// paths are bit-identical by construction (same snapshot contents, same
// float operation order).

/// Sub-topology spanning `nodes`: the union of shortest paths between
/// every pair of requested addresses, preserving node and edge order of
/// the source topology. Addresses the topology does not contain are
/// skipped (same semantics as a collector query for unknown nodes).
[[nodiscard]] VirtualTopology span_topology(const VirtualTopology& topo,
                                            const std::vector<net::Ipv4Address>& nodes);

/// Bottleneck edge of a routed flow: the path edge with the minimum
/// available bandwidth over both directions. nullptr when no path edge is
/// present in the topology.
[[nodiscard]] const VEdge* bottleneck_edge(const VirtualTopology& topo, const FlowInfo& info);

/// Pick the binding direction's history: the one with the higher mean
/// recent load when both exist; the one that exists otherwise (nullptr
/// when neither does). Mirrors the Modeler's historical choice exactly.
[[nodiscard]] const std::vector<double>* choose_history(const std::vector<double>* ab,
                                                        const std::vector<double>* ba);

/// Fit `model` over `values` and convert the forecast to available
/// bandwidth on `bottleneck` (utilization histories become capacity minus
/// forecast; "wan:" benchmark histories are available bandwidth already).
/// nullopt when the history is shorter than `min_history` or too short for
/// the model itself.
///
/// With a `cache` attached the fit goes through its tiers (the cached
/// ClientServerPredictor::predict, keyed by the bottleneck's id): the hot
/// tier memoizes the fitted prediction per (bottleneck, horizon, model) key
/// and publishes the fit's coefficients as a spec-shape template; a history
/// too short to fit is seeded from a same-shape warm template instead of
/// failing. No cache (the default) preserves the historical pure-function
/// behavior exactly.
[[nodiscard]] std::optional<FlowPrediction> predict_from_history(
    std::span<const double> values, const VEdge& bottleneck,
    const rps::ClientServerPredictor& predictor, const rps::ModelSpec& model,
    std::size_t horizon, std::size_t min_history, rps::SharedPredictionCache* cache = nullptr);

}  // namespace remos::core
