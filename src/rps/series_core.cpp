#include "rps/series_core.hpp"

#include <algorithm>
#include <stdexcept>

#include "rps/series.hpp"
#include "rps/shared_cache.hpp"

namespace remos::rps {
namespace {

/// The AR lane covers exactly what IncrementalArFitter can fit: Burg fits
/// from the raw samples, so it has no running sums to maintain.
bool is_ar_lane(const ModelSpec& spec) {
  return spec.family == ModelSpec::Family::kAr && !spec.use_burg;
}

}  // namespace

SeriesCore::SeriesCore(const ModelSpec& spec, std::size_t window, std::size_t resync_interval)
    : spec_(spec),
      ar_lane_(is_ar_lane(spec)),
      fitter_(ar_lane_ ? spec.p : 0, std::max<std::size_t>(window, 1), resync_interval) {}

void SeriesCore::prime(std::span<const double> history) {
  fitter_.assign(history);
  fitted_ = false;
  model_.reset();
}

void SeriesCore::fit_history(std::span<const double> history) {
  prime(history);
  fit_span(history.subspan(history.size() - fitter_.size()));
}

void SeriesCore::observe(double x) {
  fitter_.push(x);
  if (model_ != nullptr) model_->step(x);
}

bool SeriesCore::refit(RefitMode mode, SeriesScratch& scratch) {
  if (ar_lane_ && mode == RefitMode::kIncremental) return refit_incremental(scratch.ld);
  // Too young for the AR order: skip the linearization and the throw.
  if (ar_lane_ && !fitter_.fittable()) return false;
  fitter_.samples().copy_to(scratch.window);
  try {
    fit_span(scratch.window);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

void SeriesCore::fit_span(std::span<const double> xs) {
  if (ar_lane_) {
    // The ArmaModel::fit float path: batch Yule-Walker plus the window mean.
    ar_fit_ = fit_ar_yule_walker(xs, spec_.p);
    mu_ = mean(xs);
  } else {
    auto fresh = make_model(spec_);
    fresh->fit(xs);
    model_ = std::move(fresh);
  }
  fitted_ = true;
}

// remos-hot
bool SeriesCore::refit_incremental(ArFitScratch& scratch) {
  if (!fitter_.fittable()) return false;
  fitter_.fit_into(ar_fit_, scratch);
  mu_ = fitter_.mean();
  fitted_ = true;
  return true;
}

double SeriesCore::one_step_variance() const {
  if (ar_lane_) return ar_fit_.sigma2;
  return model_ != nullptr ? model_->one_step_variance() : 0.0;
}

void SeriesCore::predict_into(std::size_t horizon, Prediction& out,
                              SeriesScratch& scratch) const {
  if (ar_lane_) {
    forecast_ar_into(ar_fit_.phi, mu_, ar_fit_.sigma2, horizon, out, scratch);
  } else {
    out = model_->predict(horizon);
  }
}

// remos-hot
void SeriesCore::forecast_ar_into(std::span<const double> phi, double mu, double sigma2,
                                  std::size_t horizon, Prediction& out,
                                  SeriesScratch& scratch) const {
  // The recursion reads the latest max(p, 1) deviations: exactly the state
  // an ArmaModel holds after replaying this window.
  const RingWindow& ring = fitter_.samples();
  const std::size_t n = ring.size();
  const std::size_t keep = std::min(n, std::max<std::size_t>(phi.size(), 1));
  scratch.past_z.resize(keep);
  for (std::size_t i = 0; i < keep; ++i) scratch.past_z[i] = ring[n - keep + i] - mu;
  arma_forecast_into(phi, {}, mu, sigma2, scratch.past_z, {}, horizon, out, scratch.forecast);
}

std::optional<ModelTemplate> SeriesCore::export_template() const {
  if (!fitted_) return std::nullopt;
  if (ar_lane_) return ModelTemplate{spec_, ar_fit_.phi, {}, mu_, ar_fit_.sigma2};
  return extract_template(*model_, spec_);
}

bool SeriesCore::seed_into(SharedPredictionCache& cache, std::size_t horizon, Prediction& out,
                           SeriesScratch& scratch) const {
  if (!ar_lane_) {
    fitter_.samples().copy_to(scratch.window);
    std::optional<Prediction> seeded = seed_from_template(cache, spec_, scratch.window, horizon);
    if (!seeded) return false;
    out = std::move(*seeded);
    return true;
  }
  const std::optional<ModelTemplate> tmpl = cache.warm_template(template_key(spec_));
  if (!tmpl || tmpl->phi.size() != spec_.p) return false;
  forecast_ar_into(tmpl->phi, tmpl->mu, tmpl->sigma2, horizon, out, scratch);
  cache.note_seeded();
  return true;
}

}  // namespace remos::rps
