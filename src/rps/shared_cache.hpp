// Shared prediction cache — the paper's §6.2 open issue: "an evaluation of
// techniques for caching and sharing of prediction results".
//
// Multiple consumers asking about the same resource within a short window
// (e.g. every student's video client probing the same mirror list) should
// not each pay a model fit. The cache keys predictions by resource id and
// serves them until a TTL expires or the owner invalidates them; hit/miss
// accounting supports the ablation study.
//
// Thread safety: all operations are safe to call concurrently (the Master
// Collector's worker threads share one cache). Results are returned by
// value so no caller holds a reference into the map while another thread
// mutates it.
//
// Fit concurrency: `compute` runs *outside* the cache lock. Concurrent
// callers of the same cold key still fit once — the first becomes the
// leader, the rest block on the leader's shared_future — but fits for
// distinct keys proceed in parallel instead of serializing behind one
// global lock (the pre-snapshot design's scaling bottleneck).
//
// Eviction-during-fit rule: a fit observes the resource's state at the
// instant it *starts*. The installed entry is therefore stamped with the
// fit's start time (a fit that outlives the TTL is already stale at
// install), and invalidate()/clear() during a fit cancel the pending
// install — the leader and its waiters still get the computed value (they
// asked before the invalidation), but the cache does not retain a
// prediction fitted on pre-invalidation data.
//
// Tiers (ROADMAP item 4): the per-key entries above form the *hot* tier —
// exact fitted predictions, valid only for their own series. The *warm*
// tier below it holds ModelTemplates keyed by spec *shape* (not series):
// coefficients extracted from one fitted series seed model state for
// another series of the same shape whose history is too short to fit.
// Warm entries age on their own (longer) TTL — coefficients drift slower
// than the point forecasts they generate. invalidate(key) drops only the
// hot entry: a change to one series says nothing about the shape template
// the fleet shares. clear() drops both tiers.
#pragma once

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "rps/models.hpp"

namespace remos::rps {

/// Warm-tier key of a spec's shape. Templates carry no horizon, so every
/// publisher and seeder (fleets, query servers, prediction services) keys
/// by this alone and they seed one another through a shared cache.
[[nodiscard]] std::string template_key(const ModelSpec& spec);

class SharedPredictionCache {
 public:
  /// `now`: time source (simulated seconds in this repo). Must itself be
  /// safe to call from multiple threads. `warm_ttl_s` ages the warm
  /// (spec-shape template) tier; 0 means 8x the hot TTL.
  SharedPredictionCache(double ttl_s, std::function<double()> now, double warm_ttl_s = 0.0);

  /// Return the cached prediction for `key` if fresh; otherwise run
  /// `compute` (outside the lock; same-key callers coalesce on the one
  /// in-flight fit), cache, and return its result.
  Prediction get_or_compute(const std::string& key,
                            const std::function<Prediction()>& compute);

  /// Copy of the fresh cached entry, or nullopt.
  [[nodiscard]] std::optional<Prediction> peek(const std::string& key) const;

  /// Drop one entry (a collector noticed the resource changed). Also
  /// cancels the pending install of any in-flight fit for the key: the
  /// fit is serving pre-invalidation data, so its result must not outlive
  /// the invalidation in the cache. Warm-tier templates survive — one
  /// series changing says nothing about the fleet's shared shape.
  void invalidate(const std::string& key);
  void clear();

  /// Store or refresh a spec-shape template in the warm tier.
  void put_template(const std::string& shape_key, const ModelTemplate& tmpl);

  /// Fresh warm-tier template for a spec shape, or nullopt; counts a warm
  /// hit or miss either way.
  [[nodiscard]] std::optional<ModelTemplate> warm_template(const std::string& shape_key);

  /// Record that a prediction was served from a template-seeded model (the
  /// caller seeds outside the lock, so this is a separate accounting call).
  void note_seeded();

  [[nodiscard]] std::uint64_t hits() const {
    std::lock_guard lock(mu_);
    return hits_;
  }
  [[nodiscard]] std::uint64_t misses() const {
    std::lock_guard lock(mu_);
    return misses_;
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return entries_.size();
  }
  [[nodiscard]] double hit_rate() const {
    std::lock_guard lock(mu_);
    const double total = static_cast<double>(hits_ + misses_);
    return total > 0 ? static_cast<double>(hits_) / total : 0.0;
  }

  // Warm-tier accounting.
  [[nodiscard]] std::uint64_t warm_hits() const {
    std::lock_guard lock(mu_);
    return warm_hits_;
  }
  [[nodiscard]] std::uint64_t warm_misses() const {
    std::lock_guard lock(mu_);
    return warm_misses_;
  }
  [[nodiscard]] std::uint64_t seeds() const {
    std::lock_guard lock(mu_);
    return seeds_;
  }
  [[nodiscard]] std::uint64_t templates_stored() const {
    std::lock_guard lock(mu_);
    return templates_stored_;
  }
  [[nodiscard]] std::size_t warm_size() const {
    std::lock_guard lock(mu_);
    return templates_.size();
  }

 private:
  struct Entry {
    Prediction prediction;
    double computed_at = 0.0;
  };
  /// One in-flight fit. Waiters hold the shared_future; the leader holds
  /// the whole record through its shared_ptr, so invalidate() can detach
  /// it from the map (allowing a fresh fit on the changed data) without
  /// orphaning anyone.
  struct InFlightFit {
    std::promise<Prediction> promise;
    std::shared_future<Prediction> future;
    double started_at = 0.0;
    bool cancelled = false;  // remos-guarded-by(mu_)
    InFlightFit() : future(promise.get_future().share()) {}
  };

  struct WarmEntry {
    ModelTemplate tmpl;
    double stored_at = 0.0;
  };

  // Set once in the constructor, read concurrently without the lock.
  const double ttl_s_;
  const double warm_ttl_s_;
  const std::function<double()> now_;
  mutable std::mutex mu_;  // remos-lock-order(20)
  std::map<std::string, Entry> entries_;
  std::map<std::string, std::shared_ptr<InFlightFit>> fits_;
  std::map<std::string, WarmEntry> templates_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t warm_hits_ = 0;
  std::uint64_t warm_misses_ = 0;
  std::uint64_t seeds_ = 0;
  std::uint64_t templates_stored_ = 0;
};

/// Warm-tier fallback for a series too short to fit: forecast `horizon`
/// steps from `cache`'s template for `spec`'s shape, primed from `recent`
/// (the series' samples, oldest first). Counts the seed; nullopt when no
/// template can seed.
[[nodiscard]] std::optional<Prediction> seed_from_template(SharedPredictionCache& cache,
                                                           const ModelSpec& spec,
                                                           std::span<const double> recent,
                                                           std::size_t horizon);

}  // namespace remos::rps
