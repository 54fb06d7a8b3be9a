// RPS predictive models.
//
// The toolkit mirrors the model menu the paper lists for Dinda's RPS: the
// Box-Jenkins linear family (AR, MA, ARMA, ARIMA), a fractionally
// integrated ARIMA for long-range dependence, LAST, windowed-average (BM),
// long-term-average (MEAN), and a template that wraps any model with
// periodic refitting.
//
// Every model exposes both operating modes the paper describes:
//  * client-server: call fit() on a measurement vector, then predict() —
//    stateless from the caller's perspective;
//  * streaming: after one fit(), push each new measurement with step() and
//    predict() cheaply from updated state, amortizing the fit.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rps/incremental.hpp"
#include "rps/linear.hpp"

namespace remos::rps {

/// Multi-step forecast with RPS-style self-characterized error:
/// variance[h] is the model's estimate of its own (h+1)-step-ahead
/// squared prediction error.
struct Prediction {
  std::vector<double> mean;
  std::vector<double> variance;
};

/// Reusable workspace for arma_forecast_into (capacity reused per call).
struct ForecastScratch {
  std::vector<double> zhat;  // forecast deviations, steps 1..horizon
  std::vector<double> psi;   // psi-weights, lags 0..horizon-1
};

/// The ARMA forecast recursion every linear model and the AR series lane
/// share: mean[h] = mu + zhat[h] with future innovations forecast to zero,
/// and variance[h] = sigma2 * sum_{j<=h} psi_j^2. `past_z` / `past_eps` are
/// the latest deviations (x - mu) / innovations, oldest first; lags beyond
/// their length read as zero. Allocation-free in steady state.
// remos-hot
void arma_forecast_into(std::span<const double> phi, std::span<const double> theta, double mu,
                        double sigma2, std::span<const double> past_z,
                        std::span<const double> past_eps, std::size_t horizon, Prediction& out,
                        ForecastScratch& scratch);

class Model {
 public:
  virtual ~Model() = default;

  /// Fit model parameters to a measurement history (oldest first).
  virtual void fit(std::span<const double> xs) = 0;
  /// Push one new observation through the fitted model (streaming mode).
  virtual void step(double x) = 0;
  /// Forecast `horizon` steps ahead from current state.
  [[nodiscard]] virtual Prediction predict(std::size_t horizon) const = 0;
  /// Fitted innovation (one-step error) variance.
  [[nodiscard]] virtual double one_step_variance() const = 0;
  [[nodiscard]] virtual bool fitted() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::unique_ptr<Model> clone() const = 0;
};

struct ModelSpec {
  enum class Family { kMean, kLast, kWindow, kAr, kMa, kArma, kArima, kFarima };

  Family family = Family::kMean;
  std::size_t p = 0;       // AR order
  int d = 0;               // integer differencing order (ARIMA)
  std::size_t q = 0;       // MA order
  double frac_d = 0.4;     // fractional differencing exponent (FARIMA)
  std::size_t window = 32; // BM window
  bool use_burg = false;   // AR estimation: Burg instead of Yule-Walker

  /// Parse "MEAN", "LAST", "BM32", "AR16", "MA8", "ARMA(8,8)",
  /// "ARIMA(2,1,2)", "FARIMA(1,0.4,1)"; nullopt on malformed input.
  static std::optional<ModelSpec> parse(std::string_view text);
  [[nodiscard]] std::string to_string() const;

  static ModelSpec mean() { return {}; }
  static ModelSpec last();
  static ModelSpec window_avg(std::size_t w);
  static ModelSpec ar(std::size_t p, bool burg = false);
  static ModelSpec ma(std::size_t q);
  static ModelSpec arma(std::size_t p, std::size_t q);
  static ModelSpec arima(std::size_t p, int d, std::size_t q);
  static ModelSpec farima(std::size_t p, double d, std::size_t q);
};

/// Instantiate a model from its spec.
[[nodiscard]] std::unique_ptr<Model> make_model(const ModelSpec& spec);

/// Portable snapshot of a fitted linear (AR/MA/ARMA) model's parameters.
/// This is the warm-tier cache currency: a template extracted from one
/// series can seed a model for another series of the same spec shape, whose
/// own history is still too short to fit (the seeded model primes its
/// streaming state from the target's recent samples).
struct ModelTemplate {
  ModelSpec spec;
  std::vector<double> phi;
  std::vector<double> theta;
  double mu = 0.0;
  double sigma2 = 0.0;
};

/// Snapshot a fitted linear model's parameters. Returns nullopt for model
/// families whose state is not captured by (phi, theta, mu, sigma2) —
/// MEAN/LAST/BM and the differencing families (ARIMA/FARIMA carry
/// integration tails that are series-specific).
[[nodiscard]] std::optional<ModelTemplate> extract_template(const Model& model,
                                                            const ModelSpec& spec);

/// Instantiate a model from a template and prime its streaming state from
/// `recent` (the target series' latest samples, oldest first). Returns
/// nullptr when the template's family cannot be seeded.
[[nodiscard]] std::unique_ptr<Model> model_from_template(const ModelTemplate& tmpl,
                                                         std::span<const double> recent);

/// Wrap any spec in the periodic-refit template: the returned model keeps a
/// rolling window of `fit_window` observations and refits its inner model
/// every `refit_interval` steps (and whenever refit() is forced).
class RefittingModel final : public Model {
 public:
  RefittingModel(ModelSpec inner, std::size_t refit_interval, std::size_t fit_window);

  void fit(std::span<const double> xs) override;
  void step(double x) override;
  [[nodiscard]] Prediction predict(std::size_t horizon) const override;
  [[nodiscard]] double one_step_variance() const override;
  [[nodiscard]] bool fitted() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Model> clone() const override;

  /// Force an immediate refit on the buffered window (the evaluator calls
  /// this when error tracking says the fit no longer holds).
  void refit_now();
  [[nodiscard]] std::size_t refit_count() const { return refits_; }

 private:
  ModelSpec spec_;
  std::size_t refit_interval_;
  std::unique_ptr<Model> inner_;
  RingWindow window_;  // rolling fit window
  std::size_t steps_since_fit_ = 0;
  std::size_t refits_ = 0;
};

}  // namespace remos::rps
