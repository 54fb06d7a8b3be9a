#include "rps/fleet.hpp"

#include <algorithm>
#include <stdexcept>

namespace remos::rps {
namespace {

FleetConfig sanitize(FleetConfig config) {
  config.window = std::max<std::size_t>(config.window, 1);
  config.max_batch_tasks = std::max<std::size_t>(config.max_batch_tasks, 1);
  return config;
}

}  // namespace

FleetPredictor::FleetPredictor(FleetConfig config) : config_(sanitize(config)) {}

FleetPredictor::SeriesId FleetPredictor::add_series(const ModelSpec& spec) {
  const SeriesId id = series_.size();
  series_.emplace_back(spec, config_.window, config_.resync_interval);
  groups_[spec.to_string()].push_back(id);
  return id;
}

void FleetPredictor::prime(SeriesId id, std::span<const double> history) {
  series_.at(id).prime(history);
}

void FleetPredictor::observe(SeriesId id, double x) { series_[id].observe(x); }

void FleetPredictor::refit_all() {
  if (lanes_.size() < config_.max_batch_tasks) lanes_.resize(config_.max_batch_tasks);
  for (auto& lane : lanes_) {
    lane.refits = 0;
    lane.failures = 0;
  }
  const RefitMode mode = config_.incremental ? RefitMode::kIncremental : RefitMode::kFull;
  for (auto& [key, members] : groups_) {
    auto fit_range = [&](std::size_t task, std::size_t begin, std::size_t end) {
      LaneScratch& lane = lanes_[task];
      for (std::size_t i = begin; i < end; ++i) {
        // A failed refit means too young: the series keeps any previous fit.
        if (series_[members[i]].refit(mode, lane.scratch)) {
          ++lane.refits;
        } else {
          ++lane.failures;
        }
      }
    };
    const std::size_t n = members.size();
    if (config_.pool != nullptr && config_.max_batch_tasks > 1 &&
        n >= config_.parallel_min_series) {
      // No FleetPredictor lock is held here and lanes take none, so the
      // only mutex in play is ThreadPool::mu_ (order 10).
      config_.pool->parallel_ranges(n, config_.max_batch_tasks, fit_range);
    } else {
      fit_range(0, 0, n);
    }
    publish_template(members);
  }
  std::uint64_t refits = 0;
  std::uint64_t failures = 0;
  for (const auto& lane : lanes_) {
    refits += lane.refits;
    failures += lane.failures;
  }
  refits_total_.fetch_add(refits, std::memory_order_relaxed);
  fit_failures_.fetch_add(failures, std::memory_order_relaxed);
}

void FleetPredictor::publish_template(const std::vector<SeriesId>& members) {
  if (config_.cache == nullptr) return;
  // The lowest-id fitted series decides the group template — a fixed,
  // schedule-independent choice.
  for (SeriesId id : members) {
    const SeriesCore& s = series_[id];
    if (!s.fitted()) continue;
    if (auto tmpl = s.export_template()) {
      config_.cache->put_template(template_key(s.spec()), *tmpl);
      ++templates_published_;
    }
    return;
  }
}

bool FleetPredictor::fitted(SeriesId id) const { return series_.at(id).fitted(); }

bool FleetPredictor::predict_into(SeriesId id, Prediction& out) {
  const SeriesCore& s = series_.at(id);
  if (s.fitted()) {
    s.predict_into(config_.horizon, out, predict_scratch_);
    return true;
  }
  if (config_.cache != nullptr && s.seed_into(*config_.cache, config_.horizon, out,
                                              predict_scratch_)) {
    ++seeded_predictions_;
    return true;
  }
  return false;
}

Prediction FleetPredictor::predict(SeriesId id) {
  Prediction out;
  if (!predict_into(id, out)) {
    throw std::logic_error("FleetPredictor: predict before any successful fit or seed");
  }
  return out;
}

}  // namespace remos::rps
