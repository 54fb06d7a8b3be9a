#include "rps/linear.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rps/series.hpp"

namespace remos::rps {

void levinson_durbin_into(std::span<const double> gamma, std::size_t p, ArFit& out,
                          ArFitScratch& scratch) {
  if (gamma.size() < p + 1) throw std::invalid_argument("levinson_durbin: need gamma[0..p]");
  out.phi.assign(p, 0.0);
  double e = gamma[0];
  if (e <= 0.0) {
    // Constant series: zero coefficients, zero innovation variance.
    out.sigma2 = 0.0;
    return;
  }
  std::vector<double>& phi = out.phi;
  scratch.prev.assign(p, 0.0);
  std::vector<double>& prev = scratch.prev;
  for (std::size_t k = 1; k <= p; ++k) {
    double acc = gamma[k];
    for (std::size_t j = 1; j < k; ++j) acc -= prev[j - 1] * gamma[k - j];
    const double kappa = acc / e;  // reflection coefficient
    phi[k - 1] = kappa;
    for (std::size_t j = 1; j < k; ++j) phi[j - 1] = prev[j - 1] - kappa * prev[k - j - 1];
    e *= (1.0 - kappa * kappa);
    if (e < 0.0) e = 0.0;
    std::copy(phi.begin(), phi.begin() + static_cast<std::ptrdiff_t>(k), prev.begin());
  }
  out.sigma2 = e;
}

ArFit levinson_durbin(std::span<const double> gamma, std::size_t p) {
  ArFit fit;
  ArFitScratch scratch;
  levinson_durbin_into(gamma, p, fit, scratch);
  return fit;
}

ArFit fit_ar_yule_walker(std::span<const double> xs, std::size_t p) {
  if (xs.size() <= p + 1) throw std::invalid_argument("fit_ar_yule_walker: series too short");
  const std::vector<double> gamma = autocovariance(xs, p);
  return levinson_durbin(gamma, p);
}

ArFit fit_ar_burg(std::span<const double> xs, std::size_t p) {
  const std::size_t n = xs.size();
  if (n <= p + 1) throw std::invalid_argument("fit_ar_burg: series too short");
  const double m = mean(xs);
  std::vector<double> f(n), b(n);
  for (std::size_t i = 0; i < n; ++i) f[i] = b[i] = xs[i] - m;

  double e = 0.0;
  for (std::size_t i = 0; i < n; ++i) e += f[i] * f[i];
  e /= static_cast<double>(n);

  std::vector<double> a(p, 0.0), prev(p, 0.0);
  for (std::size_t k = 1; k <= p; ++k) {
    double num = 0.0, den = 0.0;
    for (std::size_t t = k; t < n; ++t) {
      num += f[t] * b[t - 1];
      den += f[t] * f[t] + b[t - 1] * b[t - 1];
    }
    const double kappa = den > 0.0 ? 2.0 * num / den : 0.0;
    a[k - 1] = kappa;
    for (std::size_t j = 1; j < k; ++j) a[j - 1] = prev[j - 1] - kappa * prev[k - j - 1];
    std::copy(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(k), prev.begin());
    // Update prediction errors in place (order matters: use old values).
    for (std::size_t t = n - 1; t >= k; --t) {
      const double fk = f[t], bk = b[t - 1];
      f[t] = fk - kappa * bk;
      b[t] = bk - kappa * fk;
    }
    e *= (1.0 - kappa * kappa);
    if (e < 0.0) e = 0.0;
  }
  return ArFit{std::move(a), e};
}

MaFit fit_ma_innovations(std::span<const double> xs, std::size_t q) {
  if (xs.size() <= q + 1) throw std::invalid_argument("fit_ma_innovations: series too short");
  // Innovations algorithm (Brockwell & Davis §5.2): run m >> q iterations
  // and take the last row's leading q coefficients.
  const std::size_t m = std::min<std::size_t>(xs.size() - 1, std::max<std::size_t>(4 * q + 8, 16));
  const std::vector<double> gamma = autocovariance(xs, m);
  std::vector<std::vector<double>> theta(m + 1);
  std::vector<double> v(m + 1, 0.0);
  v[0] = gamma[0];
  if (v[0] <= 0.0) return MaFit{std::vector<double>(q, 0.0), 0.0};
  for (std::size_t n = 1; n <= m; ++n) {
    theta[n].assign(n, 0.0);  // theta[n][k-1] == theta_{n,k}
    for (std::size_t k = 0; k < n; ++k) {
      // theta_{n, n-k} = (gamma(n-k) - sum_{j<k} theta_{k,k-j} theta_{n,n-j} v_j) / v_k
      double acc = gamma[n - k];
      for (std::size_t j = 0; j < k; ++j) {
        acc -= theta[k][k - j - 1] * theta[n][n - j - 1] * v[j];
      }
      theta[n][n - k - 1] = v[k] > 0.0 ? acc / v[k] : 0.0;
    }
    double vn = gamma[0];
    for (std::size_t j = 0; j < n; ++j) vn -= theta[n][n - j - 1] * theta[n][n - j - 1] * v[j];
    v[n] = std::max(vn, 0.0);
  }
  MaFit fit;
  fit.theta.assign(q, 0.0);
  for (std::size_t k = 0; k < q && k < theta[m].size(); ++k) fit.theta[k] = theta[m][k];
  fit.sigma2 = v[m];
  return fit;
}

std::vector<double> ols(const std::vector<std::vector<double>>& rows, std::span<const double> y) {
  if (rows.size() != y.size() || rows.empty()) throw std::invalid_argument("ols: shape mismatch");
  const std::size_t k = rows[0].size();
  // Normal equations: (X'X) b = X'y.
  std::vector<std::vector<double>> xtx(k, std::vector<double>(k, 0.0));
  std::vector<double> xty(k, 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    for (std::size_t a = 0; a < k; ++a) {
      xty[a] += r[a] * y[i];
      for (std::size_t b = a; b < k; ++b) xtx[a][b] += r[a] * r[b];
    }
  }
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < a; ++b) xtx[a][b] = xtx[b][a];
    xtx[a][a] += 1e-10;  // ridge epsilon: keeps near-singular designs solvable
  }
  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < k; ++r) {
      if (std::fabs(xtx[r][col]) > std::fabs(xtx[pivot][col])) pivot = r;
    }
    std::swap(xtx[col], xtx[pivot]);
    std::swap(xty[col], xty[pivot]);
    const double diag = xtx[col][col];
    if (std::fabs(diag) < 1e-14) continue;  // degenerate column -> b stays 0
    for (std::size_t r = col + 1; r < k; ++r) {
      const double factor = xtx[r][col] / diag;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < k; ++c) xtx[r][c] -= factor * xtx[col][c];
      xty[r] -= factor * xty[col];
    }
  }
  std::vector<double> b(k, 0.0);
  for (std::size_t row = k; row-- > 0;) {
    double acc = xty[row];
    for (std::size_t c = row + 1; c < k; ++c) acc -= xtx[row][c] * b[c];
    b[row] = std::fabs(xtx[row][row]) < 1e-14 ? 0.0 : acc / xtx[row][row];
  }
  return b;
}

ArmaFit fit_arma_hannan_rissanen(std::span<const double> xs, std::size_t p, std::size_t q) {
  if (q == 0) {
    ArFit ar = fit_ar_yule_walker(xs, p);
    return ArmaFit{std::move(ar.phi), {}, ar.sigma2};
  }
  const std::size_t n = xs.size();
  const std::size_t m = std::min<std::size_t>(n / 4, std::max<std::size_t>(p + q + 5, 20));
  if (n <= m + p + q + 2) throw std::invalid_argument("fit_arma_hannan_rissanen: series too short");
  const double mu = mean(xs);
  std::vector<double> z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = xs[i] - mu;

  // Stage 1: long AR to estimate the innovations.
  ArFit long_ar = fit_ar_yule_walker(xs, m);
  std::vector<double> eps(n, 0.0);
  for (std::size_t t = m; t < n; ++t) {
    double pred = 0.0;
    for (std::size_t j = 0; j < m; ++j) pred += long_ar.phi[j] * z[t - 1 - j];
    eps[t] = z[t] - pred;
  }

  // Stage 2: regress z_t on p lags of z and q lags of eps-hat.
  const std::size_t start = m + std::max(p, q);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  rows.reserve(n - start);
  for (std::size_t t = start; t < n; ++t) {
    std::vector<double> row;
    row.reserve(p + q);
    for (std::size_t j = 1; j <= p; ++j) row.push_back(z[t - j]);
    for (std::size_t j = 1; j <= q; ++j) row.push_back(eps[t - j]);
    rows.push_back(std::move(row));
    y.push_back(z[t]);
  }
  std::vector<double> b = ols(rows, y);
  ArmaFit fit;
  fit.phi.assign(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(p));
  fit.theta.assign(b.begin() + static_cast<std::ptrdiff_t>(p), b.end());

  // Innovation variance from stage-2 residuals.
  double sse = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    double pred = 0.0;
    for (std::size_t j = 0; j < p + q; ++j) pred += b[j] * rows[i][j];
    const double r = y[i] - pred;
    sse += r * r;
  }
  fit.sigma2 = rows.empty() ? 0.0 : sse / static_cast<double>(rows.size());
  return fit;
}

std::vector<double> psi_weights(std::span<const double> phi, std::span<const double> theta,
                                std::size_t count) {
  std::vector<double> psi;
  psi_weights_into(phi, theta, count, psi);
  return psi;
}

void psi_weights_into(std::span<const double> phi, std::span<const double> theta,
                      std::size_t count, std::vector<double>& out) {
  out.assign(count, 0.0);
  if (count == 0) return;
  out[0] = 1.0;
  for (std::size_t j = 1; j < count; ++j) {
    double acc = j <= theta.size() ? theta[j - 1] : 0.0;
    const std::size_t kmax = std::min(j, phi.size());
    for (std::size_t k = 1; k <= kmax; ++k) acc += phi[k - 1] * out[j - k];
    out[j] = acc;
  }
}

}  // namespace remos::rps
