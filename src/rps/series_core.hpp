// One RPS series: fit window, fit state and forecast — the core both
// streaming owners share. StreamingPredictor is an evaluator plus one
// core; FleetPredictor is spec-shape grouping and batched refit lanes over
// a vector of cores.
//
// The window is an IncrementalArFitter's ring, and the fit state takes one
// of two shapes:
//
//  * AR lane (pure AR Yule-Walker specs): the fit is (phi, mu, sigma2) and
//    the forecast runs arma_forecast_into on the ring's latest p samples —
//    no Model object, no per-series heap churn. An incremental refit reads
//    the fitter's running sums in O(p^2) (the 1e-9 contract of
//    IncrementalArFitter); a full refit recomputes the batch fit on the
//    linearized window, float-identical to ArmaModel::fit.
//  * Generic lane (every other family): a Model refitted from the
//    linearized window and stepped once per sample.
//
// ArmaCore::predict runs the same arma_forecast_into, so given identical
// parameters the AR lane's forecasts are bit-identical to the Model path.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "rps/incremental.hpp"
#include "rps/models.hpp"

namespace remos::rps {

class SharedPredictionCache;

/// How a refit reads the window. Only the AR lane distinguishes the two;
/// the generic lane always recomputes.
enum class RefitMode {
  kIncremental,  // O(p^2) from the fitter's running sums
  kFull,         // exact batch recompute on the linearized window
};

/// Reusable workspace for a core's refits and forecasts: one per fleet
/// lane, one per streaming predictor.
struct SeriesScratch {
  ArFitScratch ld;             // incremental Levinson-Durbin
  std::vector<double> window;  // full-refit / seeding linearization
  std::vector<double> past_z;  // AR lane: latest deviations from mu
  ForecastScratch forecast;
};

class SeriesCore {
 public:
  /// `resync_interval` == 0 means one full window turnover (see
  /// IncrementalArFitter).
  SeriesCore(const ModelSpec& spec, std::size_t window, std::size_t resync_interval = 0);

  [[nodiscard]] const ModelSpec& spec() const { return spec_; }
  [[nodiscard]] bool ar_lane() const { return ar_lane_; }

  /// Replace the window with the tail of `history` (oldest first) and
  /// drop any fit.
  void prime(std::span<const double> history);

  /// prime(history), then fit the retained tail in place (no window
  /// copy). Throws std::invalid_argument when it is too short for the model.
  void fit_history(std::span<const double> history);

  /// Feed one measurement: O(p) on the AR lane; the generic lane also
  /// steps its fitted model.
  void observe(double x);

  /// Refit from the current window. Returns false, keeping any previous
  /// fit, when the window is too short for the model.
  bool refit(RefitMode mode, SeriesScratch& scratch);

  [[nodiscard]] bool fitted() const { return fitted_; }
  [[nodiscard]] double one_step_variance() const;

  /// Forecast `horizon` steps from the fit into `out` (capacity reused on
  /// the AR lane). Precondition: fitted().
  void predict_into(std::size_t horizon, Prediction& out, SeriesScratch& scratch) const;

  /// The fit as a warm-tier template; nullopt when unfitted or when the
  /// family has no template form.
  [[nodiscard]] std::optional<ModelTemplate> export_template() const;

  /// Forecast from `cache`'s warm template for this spec's shape, primed
  /// from this window — the answer for a core that cannot fit yet. Counts
  /// the seed; false when no template fits this shape.
  bool seed_into(SharedPredictionCache& cache, std::size_t horizon, Prediction& out,
                 SeriesScratch& scratch) const;

  [[nodiscard]] const IncrementalArFitter& fitter() const { return fitter_; }

 private:
  /// Fit `xs` from scratch (AR lane: batch Yule-Walker). Throws
  /// std::invalid_argument when too short; the previous fit then stands.
  void fit_span(std::span<const double> xs);
  bool refit_incremental(ArFitScratch& scratch);  // remos-hot
  // remos-hot
  void forecast_ar_into(std::span<const double> phi, double mu, double sigma2,
                        std::size_t horizon, Prediction& out, SeriesScratch& scratch) const;

  ModelSpec spec_;
  bool ar_lane_;
  IncrementalArFitter fitter_;  // window ring (+ running sums on the AR lane)
  bool fitted_ = false;
  ArFit ar_fit_;                  // AR lane fit
  double mu_ = 0.0;
  std::unique_ptr<Model> model_;  // generic lane fit
};

}  // namespace remos::rps
