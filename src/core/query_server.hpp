// QueryServer: lock-free Remos API serving at client-fleet scale.
//
// The Modeler answers each query from its own collector fetch, so a
// thread-safe Modeler would be one global mutex around a fetch per query.
// The QueryServer moves the fetch off the read path:
//
//   * refresh() — simulation thread only. Fetches the whole universe once
//     (fetch_snapshot: topology plus the measurement histories predictions
//     need) and publishes the result as an immutable QuerySnapshot via an
//     atomic shared_ptr swap (core/query_snapshot.hpp).
//   * topology_query / flow_query / predict_flow — any thread, any number
//     of threads. Load the current snapshot and answer from it with the
//     same pure functions the Modeler answers with; they take none of the
//     simulation's locks.
//
// Identical-query coalescing: concurrent (and repeated) flow/predict
// queries with the same parameters against the same epoch share one
// computation; followers block on the leader's shared_future and the
// result is memoized for the rest of the epoch. Admission control bounds
// the number of prediction fits in flight — excess *distinct* predict
// queries are rejected (nullopt) and counted rather than queued without
// bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/collector.hpp"
#include "core/maxmin.hpp"
#include "core/query_snapshot.hpp"
#include "core/types.hpp"
#include "rps/predictor.hpp"
#include "rps/shared_cache.hpp"

namespace remos::core {

struct QueryServerConfig {
  std::string name = "query-server";
  /// Collapse pure switch clusters for topology answers (Modeler default).
  bool simplify_topology = true;
  rps::ModelSpec prediction_model = rps::ModelSpec::ar(16);
  std::size_t prediction_horizon = 30;
  /// Minimum history samples before a prediction is attempted.
  std::size_t min_history = 64;
  /// Measurement samples copied per resource into each snapshot (the
  /// freshest window; fits see at most this much past).
  std::size_t history_window = 1024;
  /// Admission bound: distinct prediction fits allowed in flight at once.
  std::size_t max_fits_in_flight = 64;
  /// Optional tiered prediction cache shared across the server's fits (and
  /// possibly other servers): hot tier memoizes fitted predictions per
  /// bottleneck, warm tier seeds fits for short histories from same-shape
  /// templates. The cache is internally synchronized; it must outlive the
  /// server. nullptr (default) keeps the historical fit-per-computation
  /// behavior — and the golden transcripts — exactly.
  rps::SharedPredictionCache* prediction_cache = nullptr;
};

/// Per-tier accounting of a server's attached prediction cache (zeros when
/// no cache is attached), surfaced alongside the coalescing counters.
struct PredictionTierStats {
  std::uint64_t hot_hits = 0;
  std::uint64_t hot_misses = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_misses = 0;
  std::uint64_t seeds = 0;
  std::uint64_t templates_stored = 0;
};

class QueryServer {
 public:
  /// `universe`: every address the server answers about; refresh() fetches
  /// a topology spanning all of them. Publishes the first snapshot before
  /// returning, so queries never observe an empty server.
  QueryServer(Collector& collector, std::vector<net::Ipv4Address> universe,
              QueryServerConfig config = {});
  ~QueryServer();
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Rebuild and publish a fresh snapshot (epoch + 1). Simulation thread
  /// only — the collector fetch reads live Network state. Concurrent
  /// refreshes serialize on serve_mu_.
  const QuerySnapshot& refresh();

  /// Current published snapshot (never null after construction).
  // remos-hot
  [[nodiscard]] QuerySnapshotPtr snapshot() const {
    return published_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t epoch() const { return snapshot()->epoch; }

  /// What refresh() fetches from, and how: enough for a caller to build an
  /// independent snapshot of the same universe with fetch_snapshot.
  [[nodiscard]] Collector& collector() const { return collector_; }
  [[nodiscard]] const std::vector<net::Ipv4Address>& universe() const { return universe_; }
  [[nodiscard]] const QueryServerConfig& config() const { return config_; }

  // ---- lock-free read path (any thread) ----

  [[nodiscard]] VirtualTopology topology_query(const std::vector<net::Ipv4Address>& nodes) const;
  [[nodiscard]] std::vector<FlowInfo> flow_query(const FlowQuery& query) const;
  [[nodiscard]] std::optional<FlowPrediction> predict_flow(const FlowRequest& request,
                                                           std::size_t horizon = 0) const;

  // ---- observability ----

  [[nodiscard]] std::uint64_t queries_total() const {
    return queries_total_.load(std::memory_order_relaxed);
  }
  /// Queries that joined (or reused) another identical query's computation
  /// within one epoch.
  [[nodiscard]] std::uint64_t coalesce_hits() const {
    return coalesce_hits_.load(std::memory_order_relaxed);
  }
  /// Distinct flow/predict computations actually run.
  [[nodiscard]] std::uint64_t computations() const {
    return computations_.load(std::memory_order_relaxed);
  }
  /// Predict queries rejected by the in-flight fit bound.
  [[nodiscard]] std::uint64_t predict_rejected() const {
    return predict_rejected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t epochs_published() const {
    return epochs_published_.load(std::memory_order_relaxed);
  }
  /// Tier hit/miss/seed counters of the attached prediction cache; all
  /// zeros when the server runs cacheless.
  [[nodiscard]] PredictionTierStats prediction_tier_stats() const;

 private:
  struct CoalesceTables;  // defined in query_server.cpp
  class ScratchLease;     // RAII lease of a pooled MaxMinScratch

  [[nodiscard]] ScratchLease lease_scratch() const;

  Collector& collector_;
  const QueryServerConfig config_;
  const std::vector<net::Ipv4Address> universe_;
  /// Stateless fit service; predict() is const and internally thread-safe.
  const rps::ClientServerPredictor predictor_;

  /// The publication slot: refresh() release-stores a fully built
  /// snapshot, readers acquire-load it (wait-free w.r.t. publication).
  std::atomic<QuerySnapshotPtr> published_;

  mutable std::atomic<std::uint64_t> queries_total_{0};
  mutable std::atomic<std::uint64_t> coalesce_hits_{0};
  mutable std::atomic<std::uint64_t> computations_{0};
  mutable std::atomic<std::uint64_t> predict_rejected_{0};
  std::atomic<std::uint64_t> epochs_published_{0};
  /// Admission-control gauge; incremented under coalesce_mu_ when a
  /// predict leader is admitted, decremented (atomically, lock-free) when
  /// its fit completes.
  mutable std::atomic<std::size_t> fits_in_flight_{0};

  /// Leaf lock for the per-epoch coalescing tables: held only for map
  /// lookups/inserts, never across a computation or a blocking wait.
  mutable std::mutex coalesce_mu_;  // remos-lock-order(21)
  std::unique_ptr<CoalesceTables> coalesce_;

  /// Leaf lock for the MaxMinScratch freelist (leaders borrow a scratch
  /// for the duration of a solve; the pool grows to peak concurrency).
  mutable std::mutex scratch_mu_;  // remos-lock-order(22)
  mutable std::vector<std::unique_ptr<MaxMinScratch>> scratch_pool_;

  /// Serializes refresh(): its collector fetch mutates collector caches,
  /// and it stamps next_epoch_. Held across collector fetches that touch
  /// the metrics registry (30), so it orders strictly before it.
  std::mutex serve_mu_;  // remos-lock-order(3)
  std::uint64_t next_epoch_ = 1;
};

}  // namespace remos::core
