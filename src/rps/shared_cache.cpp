#include "rps/shared_cache.hpp"

#include <stdexcept>
#include <utility>

#include "sim/metrics.hpp"

namespace remos::rps {

std::string template_key(const ModelSpec& spec) { return spec.to_string(); }

SharedPredictionCache::SharedPredictionCache(double ttl_s, std::function<double()> now,
                                             double warm_ttl_s)
    : ttl_s_(ttl_s), warm_ttl_s_(warm_ttl_s > 0.0 ? warm_ttl_s : 8.0 * ttl_s),
      now_(std::move(now)) {
  if (!now_) throw std::invalid_argument("SharedPredictionCache: time source required");
}

std::optional<Prediction> SharedPredictionCache::peek(const std::string& key) const {
  std::lock_guard lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  if (now_() - it->second.computed_at > ttl_s_) return std::nullopt;
  return it->second.prediction;
}

Prediction SharedPredictionCache::get_or_compute(
    const std::string& key, const std::function<Prediction()>& compute) {
  std::shared_ptr<InFlightFit> fit;
  bool leader = false;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && now_() - it->second.computed_at <= ttl_s_) {
      ++hits_;
      sim::metrics().counter("rps.prediction_cache.hits_total").inc();
      return it->second.prediction;
    }
    if (auto in_flight = fits_.find(key); in_flight != fits_.end()) {
      // Someone is already fitting this key: joining their fit is a hit
      // (the whole point of sharing — one fit serves every concurrent
      // asker of the key).
      ++hits_;
      sim::metrics().counter("rps.prediction_cache.hits_total").inc();
      fit = in_flight->second;
    } else {
      ++misses_;
      sim::metrics().counter("rps.prediction_cache.misses_total").inc();
      fit = std::make_shared<InFlightFit>();
      fit->started_at = now_();
      fits_.emplace(key, fit);
      leader = true;
    }
  }
  if (!leader) return fit->future.get();

  Prediction result;
  try {
    result = compute();
  } catch (...) {
    {
      std::lock_guard lock(mu_);
      if (!fit->cancelled) fits_.erase(key);
    }
    fit->promise.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard lock(mu_);
    if (!fit->cancelled) {
      // Stamped with the fit's *start* time: the prediction describes the
      // resource as of when the fit began, so a long fit ages the entry.
      entries_.insert_or_assign(key, Entry{result, fit->started_at});
      fits_.erase(key);
    }
  }
  fit->promise.set_value(std::move(result));
  return fit->future.get();
}

void SharedPredictionCache::invalidate(const std::string& key) {
  std::lock_guard lock(mu_);
  entries_.erase(key);
  if (auto it = fits_.find(key); it != fits_.end()) {
    // The in-flight fit observed pre-invalidation data: let its waiters
    // have the answer they asked for, but do not retain it in the cache,
    // and let the next asker start a fresh fit on the changed resource.
    it->second->cancelled = true;
    fits_.erase(it);
  }
}

void SharedPredictionCache::clear() {
  std::lock_guard lock(mu_);
  entries_.clear();
  for (auto& [key, fit] : fits_) fit->cancelled = true;
  fits_.clear();
  templates_.clear();
}

void SharedPredictionCache::put_template(const std::string& shape_key,
                                         const ModelTemplate& tmpl) {
  std::lock_guard lock(mu_);
  templates_.insert_or_assign(shape_key, WarmEntry{tmpl, now_()});
  ++templates_stored_;
  sim::metrics().counter("rps.prediction_cache.templates_stored_total").inc();
}

std::optional<ModelTemplate> SharedPredictionCache::warm_template(const std::string& shape_key) {
  std::lock_guard lock(mu_);
  auto it = templates_.find(shape_key);
  if (it == templates_.end() || now_() - it->second.stored_at > warm_ttl_s_) {
    ++warm_misses_;
    sim::metrics().counter("rps.prediction_cache.warm_misses_total").inc();
    return std::nullopt;
  }
  ++warm_hits_;
  sim::metrics().counter("rps.prediction_cache.warm_hits_total").inc();
  return it->second.tmpl;
}

void SharedPredictionCache::note_seeded() {
  std::lock_guard lock(mu_);
  ++seeds_;
  sim::metrics().counter("rps.prediction_cache.seeds_total").inc();
}

std::optional<Prediction> seed_from_template(SharedPredictionCache& cache, const ModelSpec& spec,
                                             std::span<const double> recent,
                                             std::size_t horizon) {
  const std::optional<ModelTemplate> tmpl = cache.warm_template(template_key(spec));
  if (!tmpl) return std::nullopt;
  const std::unique_ptr<Model> seeded = model_from_template(*tmpl, recent);
  if (seeded == nullptr) return std::nullopt;
  cache.note_seeded();
  return seeded->predict(horizon);
}

}  // namespace remos::rps
