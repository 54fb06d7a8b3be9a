// The two RPS operating modes the paper describes (§2.3):
//
//  * StreamingPredictor — stateful: one model fit is amortized over many
//    predictions; each new measurement is pushed through one SeriesCore
//    (the window/fit/forecast core FleetPredictor batches), with evaluator
//    feedback triggering refits when the fit stops holding.
//  * ClientServerPredictor — stateless: every request carries a measurement
//    history, is fitted from scratch, and returns a vector of predictions.
//    "The advantage of the client-server form is that it is stateless,
//    while the advantage of the streaming mode is that a single model
//    fitting operation can be amortized over multiple predictions."
//    Its cached form is the one server-side fit: hot-tier memoization,
//    warm-template publication and seeding all live in that one overload.
#pragma once

#include <atomic>
#include <string>

#include "rps/evaluator.hpp"
#include "rps/models.hpp"
#include "rps/series_core.hpp"

namespace remos::rps {

class SharedPredictionCache;

struct StreamingConfig {
  std::size_t horizon = 30;     // steps ahead per prediction
  std::size_t fit_window = 600; // samples kept for refitting
  EvaluatorConfig evaluator{};
  bool refit_on_error = true;   // evaluator-driven refits
  /// Sliding-window incremental refits for pure AR Yule-Walker specs:
  /// O(p^2) per refit instead of O(window * p) recomputation, matching the
  /// batch fit within 1e-9 relative tolerance (see IncrementalArFitter).
  /// Other model families always take the full-recompute path.
  bool incremental_fit = true;
  /// Pushes between exact recomputes of the incremental sums (drift
  /// control); 0 means one full window turnover.
  std::size_t resync_interval = 0;
};

class StreamingPredictor {
 public:
  StreamingPredictor(ModelSpec spec, StreamingConfig config = {});

  /// Initial fit from a measurement history (oldest first). Throws
  /// std::invalid_argument when the history is too short for the model.
  void prime(std::span<const double> history);
  [[nodiscard]] bool primed() const { return core_.fitted(); }

  /// Feed one new measurement; returns the refreshed multi-step forecast.
  Prediction push(double measurement);

  /// Forecast from current state without new data.
  [[nodiscard]] Prediction predict() const;

  [[nodiscard]] const Evaluator& evaluator() const { return evaluator_; }
  [[nodiscard]] std::size_t refit_count() const { return refits_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }

  /// How many refits took the O(p^2) incremental path (the rest were full
  /// recomputes).
  [[nodiscard]] std::size_t incremental_refit_count() const { return incremental_refits_; }
  /// Existing-element copies performed by the fit window across the
  /// predictor's lifetime. The ring makes push() zero-move; only prime()
  /// and full-refit linearization copy, so tests can pin the complexity
  /// contract (the old vector buffer moved window-1 elements per push).
  [[nodiscard]] std::uint64_t fit_buffer_moves() const { return core_.fitter().element_moves(); }
  /// Exact-recompute resyncs performed by the incremental fitter.
  [[nodiscard]] std::uint64_t resync_count() const { return core_.fitter().resyncs(); }

 private:
  StreamingConfig config_;
  RefitMode mode_;
  Evaluator evaluator_;
  SeriesCore core_;
  SeriesScratch scratch_;
  std::size_t refits_ = 0;
  std::size_t incremental_refits_ = 0;
  std::uint64_t steps_ = 0;
};

/// Stateless request/response prediction service: fit + predict per call.
/// "the RPS request-response prediction system is stateless and computation
/// happens only in direct response to queries."
class ClientServerPredictor {
 public:
  explicit ClientServerPredictor(ModelSpec default_spec = ModelSpec::ar(16));

  struct Request {
    std::span<const double> history;
    std::size_t horizon = 30;
    /// Override the service's default model; nullopt = use default.
    std::optional<ModelSpec> spec;
  };

  /// Thread-safe: the service is stateless per request, and the served
  /// counter is atomic, so one predictor instance can serve concurrent
  /// query threads (the QueryServer's prediction fits share one).
  [[nodiscard]] Prediction predict(const Request& request) const;

  /// As above, but also exposes the fitted model's parameters as a warm
  /// cache template (nullopt for families templates cannot capture).
  Prediction predict(const Request& request, std::optional<ModelTemplate>* template_out) const;

  /// The cached server-side fit. With `cache` attached, the hot tier
  /// memoizes the prediction per (resource_key, horizon, model), each fit
  /// publishes its coefficients under the model's template_key, and a
  /// history too short for the model is seeded from that shape's warm
  /// template instead. Without a cache this is predict(request). nullopt
  /// when neither a fit nor a seed can answer.
  [[nodiscard]] std::optional<Prediction> predict(const Request& request,
                                                  SharedPredictionCache* cache,
                                                  const std::string& resource_key) const;
  [[nodiscard]] std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  ModelSpec default_spec_;
  mutable std::atomic<std::uint64_t> served_{0};
};

}  // namespace remos::rps
