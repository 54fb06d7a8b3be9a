#include "rps/predictor.hpp"

#include <stdexcept>

#include "rps/shared_cache.hpp"

namespace remos::rps {

StreamingPredictor::StreamingPredictor(ModelSpec spec, StreamingConfig config)
    : config_(config),
      mode_(config.incremental_fit ? RefitMode::kIncremental : RefitMode::kFull),
      evaluator_(config.evaluator),
      core_(spec, config.fit_window, config.resync_interval) {}

void StreamingPredictor::prime(std::span<const double> history) {
  core_.fit_history(history);
  evaluator_.reset();
  refits_ = 1;
}

Prediction StreamingPredictor::push(double measurement) {
  if (!primed()) throw std::logic_error("StreamingPredictor: push before prime");
  ++steps_;
  evaluator_.observe(measurement);
  core_.observe(measurement);
  // A refit that finds the window too short keeps the current fit.
  if (config_.refit_on_error && evaluator_.needs_refit(core_.one_step_variance()) &&
      core_.refit(mode_, scratch_)) {
    evaluator_.reset();
    ++refits_;
    if (mode_ == RefitMode::kIncremental && core_.ar_lane()) ++incremental_refits_;
  }
  Prediction p;
  core_.predict_into(config_.horizon, p, scratch_);
  if (!p.mean.empty()) evaluator_.note_prediction(p.mean.front());
  return p;
}

Prediction StreamingPredictor::predict() const {
  if (!primed()) throw std::logic_error("StreamingPredictor: predict before prime");
  Prediction p;
  SeriesScratch scratch;
  core_.predict_into(config_.horizon, p, scratch);
  return p;
}

ClientServerPredictor::ClientServerPredictor(ModelSpec default_spec)
    : default_spec_(default_spec) {}

Prediction ClientServerPredictor::predict(const Request& request) const {
  return predict(request, nullptr);
}

Prediction ClientServerPredictor::predict(const Request& request,
                                          std::optional<ModelTemplate>* template_out) const {
  served_.fetch_add(1, std::memory_order_relaxed);
  const ModelSpec spec = request.spec.value_or(default_spec_);
  auto model = make_model(spec);
  model->fit(request.history);
  if (template_out != nullptr) *template_out = extract_template(*model, spec);
  return model->predict(request.horizon);
}

std::optional<Prediction> ClientServerPredictor::predict(const Request& request,
                                                         SharedPredictionCache* cache,
                                                         const std::string& resource_key) const {
  if (cache == nullptr) {
    try {
      return predict(request);
    } catch (const std::invalid_argument&) {
      return std::nullopt;  // history too short for the model
    }
  }
  const ModelSpec spec = request.spec.value_or(default_spec_);
  const std::string key =
      resource_key + "#" + std::to_string(request.horizon) + "#" + spec.to_string();
  try {
    return cache->get_or_compute(key, [&] {
      std::optional<ModelTemplate> tmpl;
      Prediction p = predict(request, &tmpl);
      // compute runs outside the cache lock, and the template tier has its
      // own keyspace, so publishing from inside it is deadlock-free.
      if (tmpl) cache->put_template(template_key(spec), *tmpl);
      return p;
    });
  } catch (const std::invalid_argument&) {
    // Too short to fit this series itself: seed from a same-shape warm
    // template fitted on a longer-lived one. Failures are never cached, so
    // the next query re-reads the (by then longer) history.
    return seed_from_template(*cache, spec, request.history, request.horizon);
  }
}

}  // namespace remos::rps
