// Fleet-scale batched prediction (ROADMAP item 4).
//
// One FleetPredictor owns many RPS series — one SeriesCore each, the same
// window/fit/forecast core a StreamingPredictor wraps — and refits them in
// batches: series are grouped by ModelSpec shape, each group's refits are
// dispatched over sim::ThreadPool::parallel_ranges (deterministic range
// boundaries, per-lane scratch arenas — the waterfill pattern), and every
// series writes only its own core, so batched results are bit-identical
// across worker counts. `FleetConfig::incremental` selects the cores'
// refit mode: incremental sliding-window sums for the AR lane, or exact
// batch recomputation (false — the full-refit baseline the rps-scale
// bench compares against).
//
// Warm-tier seeding: when a SharedPredictionCache is attached, refit_all
// publishes each group's fitted coefficients under its template_key
// (deterministically: the lowest-id fitted series wins), and predictions
// for series whose own history is still too short are seeded from the
// shape's template instead of failing.
//
// Thread safety: externally synchronized — one driver thread calls
// observe/refit_all/predict_into; refit_all parallelizes internally.
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "rps/models.hpp"
#include "rps/series_core.hpp"
#include "rps/shared_cache.hpp"
#include "sim/thread_pool.hpp"

namespace remos::rps {

struct FleetConfig {
  std::size_t window = 600;        // samples retained per series
  std::size_t horizon = 30;        // forecast steps per prediction
  std::size_t resync_interval = 0; // incremental drift control; 0 = window
  /// AR lane fit mode: incremental sliding-window sums (true) or exact
  /// batch recompute per refit (false, the bench baseline).
  bool incremental = true;
  sim::ThreadPool* pool = nullptr; // nullptr => sequential refits
  std::size_t max_batch_tasks = 8; // lanes per group dispatch
  /// Groups smaller than this refit inline (dispatch overhead dominates).
  std::size_t parallel_min_series = 256;
  SharedPredictionCache* cache = nullptr;  // optional warm tier
};

class FleetPredictor {
 public:
  using SeriesId = std::size_t;

  explicit FleetPredictor(FleetConfig config = {});

  /// Register a series; ids are dense and assigned in call order.
  SeriesId add_series(const ModelSpec& spec);
  [[nodiscard]] std::size_t series_count() const { return series_.size(); }
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }

  /// Seed a series' window from a history (oldest first; keeps the tail).
  /// Drops the series' fit until the next refit_all.
  void prime(SeriesId id, std::span<const double> history);

  /// Feed one new measurement. O(p) for the AR lane.
  void observe(SeriesId id, double x);

  /// Refit every series, group by group, batched across the pool.
  /// Deterministic: group order is the spec-shape map order, per-series
  /// results depend only on that series' window, and group templates are
  /// published from the lowest-id fitted series.
  void refit_all();

  [[nodiscard]] bool fitted(SeriesId id) const;

  /// Forecast `config.horizon` steps for one series into `out` (scratch
  /// capacity reused). Returns false when the series has no fit and no
  /// warm template could seed one.
  bool predict_into(SeriesId id, Prediction& out);

  /// Convenience allocating variant.
  [[nodiscard]] Prediction predict(SeriesId id);

  [[nodiscard]] std::uint64_t refits_total() const {
    return refits_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fit_failures() const {
    return fit_failures_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t seeded_predictions() const { return seeded_predictions_; }
  [[nodiscard]] std::uint64_t templates_published() const { return templates_published_; }

 private:
  /// Private per-lane workspace, indexed by the parallel_ranges task id.
  struct LaneScratch {
    SeriesScratch scratch;
    std::uint64_t refits = 0;
    std::uint64_t failures = 0;
  };

  void publish_template(const std::vector<SeriesId>& members);

  /// const: pool lanes read it concurrently during refit_all.
  const FleetConfig config_;
  // remos-analyze: allow(concurrency): pool lanes index disjoint member ranges — parallel_ranges hands each lane a distinct [begin, end) slice of one group's ids and every series writes only its own slot.
  std::vector<SeriesCore> series_;
  std::map<std::string, std::vector<SeriesId>> groups_;  // spec shape -> ascending ids
  // remos-analyze: allow(concurrency): one private scratch per lane, indexed by the lane's own task id; no element is shared across lanes.
  std::vector<LaneScratch> lanes_;
  SeriesScratch predict_scratch_;
  std::atomic<std::uint64_t> refits_total_{0};
  std::atomic<std::uint64_t> fit_failures_{0};
  std::uint64_t seeded_predictions_ = 0;
  std::uint64_t templates_published_ = 0;
};

}  // namespace remos::rps
