#include "rps/models.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <deque>
#include <stdexcept>

#include "rps/linear.hpp"
#include "rps/series.hpp"

namespace remos::rps {
namespace {

void require_fitted(bool fitted, const char* who) {
  if (!fitted) throw std::logic_error(std::string(who) + ": predict/step before fit");
}

/// k-steps-back value (k >= 1) of a newest-last state; zero-padded before
/// history begins.
double past(std::span<const double> xs, std::size_t k) {
  return k <= xs.size() ? xs[xs.size() - k] : 0.0;
}

// ---------------------------------------------------------------------------
// MEAN — long-term average
// ---------------------------------------------------------------------------

class MeanModel final : public Model {
 public:
  void fit(std::span<const double> xs) override {
    if (xs.empty()) throw std::invalid_argument("MEAN: empty series");
    n_ = static_cast<double>(xs.size());
    mu_ = mean(xs);
    var_ = variance(xs);
    fitted_ = true;
  }
  void step(double x) override {
    require_fitted(fitted_, "MEAN");
    // Continue the running moments past the fit window.
    n_ += 1.0;
    const double delta = x - mu_;
    mu_ += delta / n_;
    var_ += (delta * (x - mu_) - var_) / n_;
  }
  [[nodiscard]] Prediction predict(std::size_t horizon) const override {
    require_fitted(fitted_, "MEAN");
    return Prediction{std::vector<double>(horizon, mu_), std::vector<double>(horizon, var_)};
  }
  [[nodiscard]] double one_step_variance() const override { return var_; }
  [[nodiscard]] bool fitted() const override { return fitted_; }
  [[nodiscard]] std::string name() const override { return "MEAN"; }
  [[nodiscard]] std::unique_ptr<Model> clone() const override {
    return std::make_unique<MeanModel>(*this);
  }

 private:
  double mu_ = 0.0, var_ = 0.0, n_ = 0.0;
  bool fitted_ = false;
};

// ---------------------------------------------------------------------------
// LAST — random-walk predictor
// ---------------------------------------------------------------------------

class LastModel final : public Model {
 public:
  void fit(std::span<const double> xs) override {
    if (xs.empty()) throw std::invalid_argument("LAST: empty series");
    last_ = xs.back();
    // Error model: random walk => h-step error variance = h * Var(diff).
    const std::vector<double> d = difference(xs, 1);
    diff_var_ = d.empty() ? 0.0 : variance(d) + mean(d) * mean(d);
    fitted_ = true;
  }
  void step(double x) override {
    require_fitted(fitted_, "LAST");
    last_ = x;
  }
  [[nodiscard]] Prediction predict(std::size_t horizon) const override {
    require_fitted(fitted_, "LAST");
    Prediction p{std::vector<double>(horizon, last_), std::vector<double>(horizon)};
    for (std::size_t h = 0; h < horizon; ++h) {
      p.variance[h] = diff_var_ * static_cast<double>(h + 1);
    }
    return p;
  }
  [[nodiscard]] double one_step_variance() const override { return diff_var_; }
  [[nodiscard]] bool fitted() const override { return fitted_; }
  [[nodiscard]] std::string name() const override { return "LAST"; }
  [[nodiscard]] std::unique_ptr<Model> clone() const override {
    return std::make_unique<LastModel>(*this);
  }

 private:
  double last_ = 0.0, diff_var_ = 0.0;
  bool fitted_ = false;
};

// ---------------------------------------------------------------------------
// BM(w) — windowed average
// ---------------------------------------------------------------------------

class WindowModel final : public Model {
 public:
  explicit WindowModel(std::size_t w) : w_(std::max<std::size_t>(w, 1)) {}

  void fit(std::span<const double> xs) override {
    if (xs.empty()) throw std::invalid_argument("BM: empty series");
    window_.assign(xs.end() - static_cast<std::ptrdiff_t>(std::min(w_, xs.size())), xs.end());
    // Empirical one-step MSE of the window-mean predictor over the fit data.
    double sse = 0.0;
    std::size_t count = 0;
    double rolling = 0.0;
    std::deque<double> roll;
    for (double x : xs) {
      if (roll.size() == w_) {
        const double pred = rolling / static_cast<double>(roll.size());
        sse += (x - pred) * (x - pred);
        ++count;
      }
      roll.push_back(x);
      rolling += x;
      if (roll.size() > w_) {
        rolling -= roll.front();
        roll.pop_front();
      }
    }
    mse_ = count > 0 ? sse / static_cast<double>(count) : variance(xs);
    fitted_ = true;
  }
  void step(double x) override {
    require_fitted(fitted_, "BM");
    window_.push_back(x);
    if (window_.size() > w_) window_.erase(window_.begin());
  }
  [[nodiscard]] Prediction predict(std::size_t horizon) const override {
    require_fitted(fitted_, "BM");
    const double m = mean(window_);
    return Prediction{std::vector<double>(horizon, m), std::vector<double>(horizon, mse_)};
  }
  [[nodiscard]] double one_step_variance() const override { return mse_; }
  [[nodiscard]] bool fitted() const override { return fitted_; }
  [[nodiscard]] std::string name() const override { return "BM" + std::to_string(w_); }
  [[nodiscard]] std::unique_ptr<Model> clone() const override {
    return std::make_unique<WindowModel>(*this);
  }

 private:
  std::size_t w_;
  std::vector<double> window_;
  double mse_ = 0.0;
  bool fitted_ = false;
};

// ---------------------------------------------------------------------------
// ARMA core — shared by AR, MA, ARMA (phi and/or theta may be empty)
// ---------------------------------------------------------------------------

class ArmaCore {
 public:
  void configure(std::vector<double> phi, std::vector<double> theta, double mu, double sigma2) {
    phi_ = std::move(phi);
    theta_ = std::move(theta);
    mu_ = mu;
    sigma2_ = sigma2;
    z_.clear();
    eps_.clear();
  }

  /// Replay a series through the residual recursion to initialize state.
  void replay(std::span<const double> xs) {
    for (double x : xs) step(x);
  }

  void step(double x) {
    const double z = x - mu_;
    double pred = 0.0;
    for (std::size_t j = 0; j < phi_.size(); ++j) {
      pred += phi_[j] * past(z_, j + 1);
    }
    for (std::size_t j = 0; j < theta_.size(); ++j) {
      pred += theta_[j] * past(eps_, j + 1);
    }
    const double e = z - pred;
    push_bounded(z_, z, phi_.size());
    push_bounded(eps_, e, theta_.size());
  }

  [[nodiscard]] Prediction predict(std::size_t horizon) const {
    Prediction out;
    ForecastScratch scratch;
    arma_forecast_into(phi_, theta_, mu_, sigma2_, z_, eps_, horizon, out, scratch);
    return out;
  }

  [[nodiscard]] double sigma2() const { return sigma2_; }
  [[nodiscard]] double mu() const { return mu_; }
  [[nodiscard]] const std::vector<double>& phi() const { return phi_; }
  [[nodiscard]] const std::vector<double>& theta() const { return theta_; }

 private:
  /// Keep the latest max(cap, 1) values, oldest first.
  static void push_bounded(std::vector<double>& xs, double v, std::size_t cap) {
    if (xs.size() >= std::max<std::size_t>(cap, 1)) xs.erase(xs.begin());
    xs.push_back(v);
  }

  std::vector<double> phi_, theta_;
  double mu_ = 0.0, sigma2_ = 0.0;
  std::vector<double> z_, eps_;  // latest deviations / innovations
};

class ArmaModel final : public Model {
 public:
  ArmaModel(std::size_t p, std::size_t q, bool burg) : p_(p), q_(q), burg_(burg) {}

  void fit(std::span<const double> xs) override {
    const double mu = mean(xs);
    if (q_ == 0) {
      ArFit f = burg_ ? fit_ar_burg(xs, p_) : fit_ar_yule_walker(xs, p_);
      core_.configure(std::move(f.phi), {}, mu, f.sigma2);
    } else if (p_ == 0) {
      MaFit f = fit_ma_innovations(xs, q_);
      core_.configure({}, std::move(f.theta), mu, f.sigma2);
    } else {
      ArmaFit f = fit_arma_hannan_rissanen(xs, p_, q_);
      core_.configure(std::move(f.phi), std::move(f.theta), mu, f.sigma2);
    }
    core_.replay(xs);
    fitted_ = true;
  }
  void step(double x) override {
    require_fitted(fitted_, "ARMA");
    core_.step(x);
  }
  [[nodiscard]] Prediction predict(std::size_t horizon) const override {
    require_fitted(fitted_, "ARMA");
    return core_.predict(horizon);
  }
  [[nodiscard]] double one_step_variance() const override { return core_.sigma2(); }
  [[nodiscard]] bool fitted() const override { return fitted_; }
  [[nodiscard]] std::string name() const override {
    if (q_ == 0) return (burg_ ? "ARBURG" : "AR") + std::to_string(p_);
    if (p_ == 0) return "MA" + std::to_string(q_);
    return "ARMA(" + std::to_string(p_) + "," + std::to_string(q_) + ")";
  }
  [[nodiscard]] std::unique_ptr<Model> clone() const override {
    return std::make_unique<ArmaModel>(*this);
  }

  [[nodiscard]] const ArmaCore& core() const { return core_; }

  /// Install a template's parameters and prime streaming state from
  /// `recent` (the series' latest raw samples, oldest first).
  void adopt(const ModelTemplate& tmpl, std::span<const double> recent) {
    core_.configure(tmpl.phi, tmpl.theta, tmpl.mu, tmpl.sigma2);
    core_.replay(recent);
    fitted_ = true;
  }

 private:
  std::size_t p_, q_;
  bool burg_;
  ArmaCore core_;
  bool fitted_ = false;
};

// ---------------------------------------------------------------------------
// ARIMA(p,d,q)
// ---------------------------------------------------------------------------

/// Multiply AR polynomial coefficients: (1 - sum a_k B^k)(1-B)^d expressed
/// as extended coefficients a~ with (1 - sum a~_j B^j).
std::vector<double> extend_ar_with_differencing(std::span<const double> phi, int d) {
  // Represent polynomials with full coefficient arrays: p(B) = 1 - sum phi B^k.
  std::vector<double> poly{1.0};
  for (double c : phi) poly.push_back(-c);
  for (int k = 0; k < d; ++k) {
    std::vector<double> next(poly.size() + 1, 0.0);
    for (std::size_t i = 0; i < poly.size(); ++i) {
      next[i] += poly[i];
      next[i + 1] -= poly[i];
    }
    poly = std::move(next);
  }
  std::vector<double> out(poly.size() - 1);
  for (std::size_t i = 1; i < poly.size(); ++i) out[i - 1] = -poly[i];
  return out;
}

class ArimaModel final : public Model {
 public:
  ArimaModel(std::size_t p, int d, std::size_t q) : p_(p), d_(d), q_(q) {}

  void fit(std::span<const double> xs) override {
    if (xs.size() <= static_cast<std::size_t>(d_) + p_ + q_ + 2) {
      throw std::invalid_argument("ARIMA: series too short");
    }
    const std::vector<double> diffd = difference(xs, d_);
    const double mu = mean(diffd);
    if (p_ == 0 && q_ == 0) {
      core_.configure({}, {}, mu, variance(diffd));
    } else {
      ArmaFit f = fit_arma_hannan_rissanen(diffd, p_, q_);
      core_.configure(std::move(f.phi), std::move(f.theta), mu, f.sigma2);
    }
    core_.replay(diffd);
    tails_ = integration_tails(xs, d_);
    fitted_ = true;
  }

  void step(double x) override {
    require_fitted(fitted_, "ARIMA");
    // Update the d-level differencing tails incrementally.
    double value = x;
    for (int k = 0; k < d_; ++k) {
      const double next = value - tails_[static_cast<std::size_t>(k)];
      tails_[static_cast<std::size_t>(k)] = value;
      value = next;
    }
    core_.step(value);
  }

  [[nodiscard]] Prediction predict(std::size_t horizon) const override {
    require_fitted(fitted_, "ARIMA");
    Prediction diff_pred = core_.predict(horizon);
    Prediction out;
    out.mean = integrate_forecast(diff_pred.mean, tails_);
    // psi-weights of the integrated process: extend the AR polynomial by
    // (1-B)^d, then expand.
    const std::vector<double> phi_ext = extend_ar_with_differencing(core_.phi(), d_);
    const std::vector<double> psi = psi_weights(phi_ext, core_.theta(), horizon);
    out.variance.resize(horizon);
    double cum = 0.0;
    for (std::size_t h = 0; h < horizon; ++h) {
      cum += psi[h] * psi[h];
      out.variance[h] = core_.sigma2() * cum;
    }
    return out;
  }

  [[nodiscard]] double one_step_variance() const override { return core_.sigma2(); }
  [[nodiscard]] bool fitted() const override { return fitted_; }
  [[nodiscard]] std::string name() const override {
    return "ARIMA(" + std::to_string(p_) + "," + std::to_string(d_) + "," + std::to_string(q_) + ")";
  }
  [[nodiscard]] std::unique_ptr<Model> clone() const override {
    return std::make_unique<ArimaModel>(*this);
  }

 private:
  std::size_t p_;
  int d_;
  std::size_t q_;
  ArmaCore core_;
  std::vector<double> tails_;
  bool fitted_ = false;
};

// ---------------------------------------------------------------------------
// FARIMA(p,d,q), fractional d — long-range dependence
// ---------------------------------------------------------------------------

class FarimaModel final : public Model {
 public:
  static constexpr std::size_t kWindow = 100;

  FarimaModel(std::size_t p, double d, std::size_t q) : p_(p), d_(d), q_(q) {
    pi_ = fractional_diff_coeffs(d_, kWindow);
    inv_ = fractional_diff_coeffs(-d_, kWindow);
  }

  void fit(std::span<const double> xs) override {
    if (xs.size() < kWindow + p_ + q_ + 8) throw std::invalid_argument("FARIMA: series too short");
    const std::vector<double> filtered = fractional_difference(xs, d_, kWindow);
    // Discard the filter warm-up region when fitting.
    std::span<const double> stable(filtered.data() + kWindow, filtered.size() - kWindow);
    if (p_ == 0 && q_ == 0) {
      core_.configure({}, {}, mean(stable), variance(stable));
    } else {
      ArmaFit f = fit_arma_hannan_rissanen(stable, p_, q_);
      core_.configure(std::move(f.phi), std::move(f.theta), mean(stable), f.sigma2);
    }
    core_.replay(stable);
    raw_.assign(xs.end() - static_cast<std::ptrdiff_t>(std::min(xs.size(), kWindow)), xs.end());
    fhist_.assign(filtered.end() - static_cast<std::ptrdiff_t>(std::min(filtered.size(), kWindow)),
                  filtered.end());
    fitted_ = true;
  }

  void step(double x) override {
    require_fitted(fitted_, "FARIMA");
    raw_.push_back(x);
    if (raw_.size() > kWindow) raw_.erase(raw_.begin());
    double filtered = 0.0;
    for (std::size_t k = 0; k < raw_.size(); ++k) filtered += pi_[k] * raw_[raw_.size() - 1 - k];
    core_.step(filtered);
    fhist_.push_back(filtered);
    if (fhist_.size() > kWindow) fhist_.erase(fhist_.begin());
  }

  [[nodiscard]] Prediction predict(std::size_t horizon) const override {
    require_fitted(fitted_, "FARIMA");
    const Prediction ypred = core_.predict(horizon);
    Prediction out;
    out.mean.resize(horizon);
    // Invert (1-B)^d with the truncated expansion: x(t+h) = sum_k inv_k y(t+h-k).
    for (std::size_t h = 1; h <= horizon; ++h) {
      double acc = 0.0;
      for (std::size_t k = 0; k < kWindow; ++k) {
        const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(h) - static_cast<std::ptrdiff_t>(k);
        double y;
        if (idx >= 1) {
          y = ypred.mean[static_cast<std::size_t>(idx - 1)];
        } else {
          const std::size_t back = static_cast<std::size_t>(-idx);  // 0 = latest history
          if (back >= fhist_.size()) break;
          y = fhist_[fhist_.size() - 1 - back];
        }
        acc += inv_[k] * y;
      }
      out.mean[h - 1] = acc;
    }
    // Combined psi: ARMA psi convolved with the inverse fractional filter.
    const std::vector<double> psi_arma = psi_weights(core_.phi(), core_.theta(), horizon);
    std::vector<double> psi(horizon, 0.0);
    for (std::size_t j = 0; j < horizon; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= j && k < kWindow; ++k) acc += inv_[k] * psi_arma[j - k];
      psi[j] = acc;
    }
    out.variance.resize(horizon);
    double cum = 0.0;
    for (std::size_t h = 0; h < horizon; ++h) {
      cum += psi[h] * psi[h];
      out.variance[h] = core_.sigma2() * cum;
    }
    return out;
  }

  [[nodiscard]] double one_step_variance() const override { return core_.sigma2(); }
  [[nodiscard]] bool fitted() const override { return fitted_; }
  [[nodiscard]] std::string name() const override {
    return "FARIMA(" + std::to_string(p_) + "," + std::to_string(d_) + "," + std::to_string(q_) + ")";
  }
  [[nodiscard]] std::unique_ptr<Model> clone() const override {
    return std::make_unique<FarimaModel>(*this);
  }

 private:
  std::size_t p_;
  double d_;
  std::size_t q_;
  std::vector<double> pi_, inv_;
  ArmaCore core_;
  std::vector<double> raw_, fhist_;
  bool fitted_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// ModelSpec
// ---------------------------------------------------------------------------

ModelSpec ModelSpec::last() {
  ModelSpec s;
  s.family = Family::kLast;
  return s;
}
ModelSpec ModelSpec::window_avg(std::size_t w) {
  ModelSpec s;
  s.family = Family::kWindow;
  s.window = w;
  return s;
}
ModelSpec ModelSpec::ar(std::size_t p, bool burg) {
  ModelSpec s;
  s.family = Family::kAr;
  s.p = p;
  s.use_burg = burg;
  return s;
}
ModelSpec ModelSpec::ma(std::size_t q) {
  ModelSpec s;
  s.family = Family::kMa;
  s.q = q;
  return s;
}
ModelSpec ModelSpec::arma(std::size_t p, std::size_t q) {
  ModelSpec s;
  s.family = Family::kArma;
  s.p = p;
  s.q = q;
  return s;
}
ModelSpec ModelSpec::arima(std::size_t p, int d, std::size_t q) {
  ModelSpec s;
  s.family = Family::kArima;
  s.p = p;
  s.d = d;
  s.q = q;
  return s;
}
ModelSpec ModelSpec::farima(std::size_t p, double d, std::size_t q) {
  ModelSpec s;
  s.family = Family::kFarima;
  s.p = p;
  s.frac_d = d;
  s.q = q;
  return s;
}

namespace {

/// Parse a list like "(8,0.4,2)" or "8,2"; returns values as doubles.
std::optional<std::vector<double>> parse_args(std::string_view text) {
  if (!text.empty() && text.front() == '(') {
    if (text.back() != ')') return std::nullopt;
    text = text.substr(1, text.size() - 2);
  }
  std::vector<double> out;
  while (!text.empty()) {
    double v = 0.0;
    const char* begin = text.data();
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} || ptr == begin) return std::nullopt;
    out.push_back(v);
    text.remove_prefix(static_cast<std::size_t>(ptr - begin));
    if (!text.empty()) {
      if (text.front() != ',') return std::nullopt;
      text.remove_prefix(1);
    }
  }
  return out;
}

}  // namespace

std::optional<ModelSpec> ModelSpec::parse(std::string_view text) {
  auto starts = [&](std::string_view prefix) { return text.substr(0, prefix.size()) == prefix; };
  if (text == "MEAN") return mean();
  if (text == "LAST") return last();
  if (starts("BM")) {
    auto args = parse_args(text.substr(2));
    if (!args || args->size() != 1) return std::nullopt;
    return window_avg(static_cast<std::size_t>((*args)[0]));
  }
  if (starts("ARBURG")) {
    auto args = parse_args(text.substr(6));
    if (!args || args->size() != 1) return std::nullopt;
    return ar(static_cast<std::size_t>((*args)[0]), /*burg=*/true);
  }
  if (starts("ARMA")) {
    auto args = parse_args(text.substr(4));
    if (!args || args->size() != 2) return std::nullopt;
    return arma(static_cast<std::size_t>((*args)[0]), static_cast<std::size_t>((*args)[1]));
  }
  if (starts("ARIMA")) {
    auto args = parse_args(text.substr(5));
    if (!args || args->size() != 3) return std::nullopt;
    return arima(static_cast<std::size_t>((*args)[0]), static_cast<int>((*args)[1]),
                 static_cast<std::size_t>((*args)[2]));
  }
  if (starts("FARIMA")) {
    auto args = parse_args(text.substr(6));
    if (!args || args->size() != 3) return std::nullopt;
    return farima(static_cast<std::size_t>((*args)[0]), (*args)[1],
                  static_cast<std::size_t>((*args)[2]));
  }
  if (starts("AR")) {
    auto args = parse_args(text.substr(2));
    if (!args || args->size() != 1) return std::nullopt;
    return ar(static_cast<std::size_t>((*args)[0]));
  }
  if (starts("MA")) {
    auto args = parse_args(text.substr(2));
    if (!args || args->size() != 1) return std::nullopt;
    return ma(static_cast<std::size_t>((*args)[0]));
  }
  return std::nullopt;
}

std::string ModelSpec::to_string() const {
  switch (family) {
    case Family::kMean: return "MEAN";
    case Family::kLast: return "LAST";
    case Family::kWindow: return "BM" + std::to_string(window);
    case Family::kAr: return (use_burg ? "ARBURG" : "AR") + std::to_string(p);
    case Family::kMa: return "MA" + std::to_string(q);
    case Family::kArma: return "ARMA(" + std::to_string(p) + "," + std::to_string(q) + ")";
    case Family::kArima:
      return "ARIMA(" + std::to_string(p) + "," + std::to_string(d) + "," + std::to_string(q) + ")";
    case Family::kFarima: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", frac_d);
      return "FARIMA(" + std::to_string(p) + "," + buf + "," + std::to_string(q) + ")";
    }
  }
  return "?";
}

std::unique_ptr<Model> make_model(const ModelSpec& spec) {
  switch (spec.family) {
    case ModelSpec::Family::kMean: return std::make_unique<MeanModel>();
    case ModelSpec::Family::kLast: return std::make_unique<LastModel>();
    case ModelSpec::Family::kWindow: return std::make_unique<WindowModel>(spec.window);
    case ModelSpec::Family::kAr: return std::make_unique<ArmaModel>(spec.p, 0, spec.use_burg);
    case ModelSpec::Family::kMa: return std::make_unique<ArmaModel>(0, spec.q, false);
    case ModelSpec::Family::kArma: return std::make_unique<ArmaModel>(spec.p, spec.q, false);
    case ModelSpec::Family::kArima: return std::make_unique<ArimaModel>(spec.p, spec.d, spec.q);
    case ModelSpec::Family::kFarima:
      return std::make_unique<FarimaModel>(spec.p, spec.frac_d, spec.q);
  }
  throw std::invalid_argument("make_model: unknown family");
}

// ---------------------------------------------------------------------------
// Template extraction / seeding (warm cache tier currency)
// ---------------------------------------------------------------------------

namespace {

[[nodiscard]] bool linear_family(ModelSpec::Family family) {
  return family == ModelSpec::Family::kAr || family == ModelSpec::Family::kMa ||
         family == ModelSpec::Family::kArma;
}

}  // namespace

std::optional<ModelTemplate> extract_template(const Model& model, const ModelSpec& spec) {
  if (!linear_family(spec.family)) return std::nullopt;
  const auto* arma = dynamic_cast<const ArmaModel*>(&model);
  if (arma == nullptr || !arma->fitted()) return std::nullopt;
  const ArmaCore& core = arma->core();
  return ModelTemplate{spec, core.phi(), core.theta(), core.mu(), core.sigma2()};
}

std::unique_ptr<Model> model_from_template(const ModelTemplate& tmpl,
                                           std::span<const double> recent) {
  if (!linear_family(tmpl.spec.family)) return nullptr;
  std::unique_ptr<Model> model = make_model(tmpl.spec);
  auto* arma = dynamic_cast<ArmaModel*>(model.get());
  if (arma == nullptr) return nullptr;
  arma->adopt(tmpl, recent);
  return model;
}

// remos-hot
void arma_forecast_into(std::span<const double> phi, std::span<const double> theta, double mu,
                        double sigma2, std::span<const double> past_z,
                        std::span<const double> past_eps, std::size_t horizon, Prediction& out,
                        ForecastScratch& scratch) {
  out.mean.resize(horizon);
  out.variance.resize(horizon);
  std::vector<double>& zhat = scratch.zhat;
  zhat.assign(horizon, 0.0);
  for (std::size_t h = 1; h <= horizon; ++h) {
    double acc = 0.0;
    for (std::size_t j = 1; j <= phi.size(); ++j) {
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(h) - static_cast<std::ptrdiff_t>(j);
      acc += phi[j - 1] * (idx >= 1 ? zhat[static_cast<std::size_t>(idx - 1)]
                                    : past(past_z, static_cast<std::size_t>(1 - idx)));
    }
    for (std::size_t j = 1; j <= theta.size(); ++j) {
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(h) - static_cast<std::ptrdiff_t>(j);
      // Future innovations forecast to zero; past ones come from state.
      if (idx < 1) acc += theta[j - 1] * past(past_eps, static_cast<std::size_t>(1 - idx));
    }
    zhat[h - 1] = acc;
    out.mean[h - 1] = mu + acc;
  }
  psi_weights_into(phi, theta, horizon, scratch.psi);
  double cum = 0.0;
  for (std::size_t h = 0; h < horizon; ++h) {
    cum += scratch.psi[h] * scratch.psi[h];
    out.variance[h] = sigma2 * cum;
  }
}

// ---------------------------------------------------------------------------
// RefittingModel
// ---------------------------------------------------------------------------

RefittingModel::RefittingModel(ModelSpec inner, std::size_t refit_interval, std::size_t fit_window)
    : spec_(inner),
      refit_interval_(std::max<std::size_t>(refit_interval, 1)),
      window_(std::max<std::size_t>(fit_window, 2)) {}

void RefittingModel::fit(std::span<const double> xs) {
  window_.assign(xs);
  inner_ = make_model(spec_);
  inner_->fit(xs.subspan(xs.size() - window_.size()));
  steps_since_fit_ = 0;
  ++refits_;
}

void RefittingModel::step(double x) {
  require_fitted(fitted(), "REFIT");
  window_.push_sample(x);
  inner_->step(x);
  if (++steps_since_fit_ >= refit_interval_) refit_now();
}

void RefittingModel::refit_now() {
  require_fitted(fitted(), "REFIT");
  std::vector<double> window;
  window_.copy_to(window);
  auto fresh = make_model(spec_);
  try {
    fresh->fit(window);
  } catch (const std::invalid_argument&) {
    // Not enough buffered data for this model order yet; keep the old fit
    // and try again after more samples arrive.
    steps_since_fit_ = 0;
    return;
  }
  inner_ = std::move(fresh);
  steps_since_fit_ = 0;
  ++refits_;
}

Prediction RefittingModel::predict(std::size_t horizon) const {
  require_fitted(fitted(), "REFIT");
  return inner_->predict(horizon);
}

double RefittingModel::one_step_variance() const {
  return inner_ ? inner_->one_step_variance() : 0.0;
}

bool RefittingModel::fitted() const { return inner_ != nullptr && inner_->fitted(); }

std::string RefittingModel::name() const {
  return "REFIT[" + spec_.to_string() + "/" + std::to_string(refit_interval_) + "]";
}

std::unique_ptr<Model> RefittingModel::clone() const {
  auto copy = std::make_unique<RefittingModel>(spec_, refit_interval_, window_.capacity());
  copy->inner_ = inner_ ? inner_->clone() : nullptr;
  copy->window_ = window_;
  copy->steps_since_fit_ = steps_since_fit_;
  copy->refits_ = refits_;
  return copy;
}

}  // namespace remos::rps
