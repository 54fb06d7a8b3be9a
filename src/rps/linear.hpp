// Linear time-series estimation machinery: Levinson-Durbin, Yule-Walker and
// Burg AR estimation, the innovations algorithm for MA, Hannan-Rissanen for
// ARMA, and psi-weight expansion for multi-step forecast error variance.
#pragma once

#include <span>
#include <vector>

namespace remos::rps {

/// AR(p) fit result: coefficients phi_1..phi_p on mean-removed data plus
/// the innovation (one-step prediction error) variance.
struct ArFit {
  std::vector<double> phi;
  double sigma2 = 0.0;
};

/// MA(q) fit result: theta_1..theta_q plus innovation variance.
struct MaFit {
  std::vector<double> theta;
  double sigma2 = 0.0;
};

/// ARMA(p,q) fit result.
struct ArmaFit {
  std::vector<double> phi;
  std::vector<double> theta;
  double sigma2 = 0.0;
};

/// Reusable workspace for the allocation-free Levinson-Durbin entry point
/// (and for IncrementalArFitter's autocovariance assembly). One scratch per
/// lane lets batched fleet refits run with zero steady-state allocation.
struct ArFitScratch {
  std::vector<double> gamma;  // autocovariance workspace, lags 0..p
  std::vector<double> prev;   // previous recursion row
};

/// Solve the Yule-Walker equations for AR(p) given autocovariances
/// gamma[0..p] via Levinson-Durbin recursion. Throws on p == 0 shortfall.
[[nodiscard]] ArFit levinson_durbin(std::span<const double> gamma, std::size_t p);

/// Allocation-free variant: writes into `out` (capacity reused across
/// calls) using `scratch`. Bit-identical to levinson_durbin — same
/// recursion, same float operation order.
void levinson_durbin_into(std::span<const double> gamma, std::size_t p, ArFit& out,
                          ArFitScratch& scratch);

/// Yule-Walker AR(p) fit on raw data (mean removed internally).
[[nodiscard]] ArFit fit_ar_yule_walker(std::span<const double> xs, std::size_t p);

/// Burg's method AR(p) fit (better for short series; always stable).
[[nodiscard]] ArFit fit_ar_burg(std::span<const double> xs, std::size_t p);

/// Innovations-algorithm MA(q) fit from autocovariances of the data.
[[nodiscard]] MaFit fit_ma_innovations(std::span<const double> xs, std::size_t q);

/// Hannan-Rissanen two-stage ARMA(p,q) fit.
[[nodiscard]] ArmaFit fit_arma_hannan_rissanen(std::span<const double> xs, std::size_t p,
                                               std::size_t q);

/// psi-weights of an ARMA(p,q) process: X_t = sum_j psi_j eps_{t-j},
/// psi[0] == 1. The h-step forecast error variance is
/// sigma2 * sum_{j<h} psi_j^2 — what RPS reports as its error
/// characterization.
[[nodiscard]] std::vector<double> psi_weights(std::span<const double> phi,
                                              std::span<const double> theta, std::size_t count);

/// Allocation-free variant: writes into `out` (capacity reused).
void psi_weights_into(std::span<const double> phi, std::span<const double> theta,
                      std::size_t count, std::vector<double>& out);

/// Ordinary least squares: solve min ||y - X b||^2 where X is row-major
/// n x k. Returns b (size k). Uses normal equations with partial-pivot
/// Gaussian elimination — adequate for the small k used here.
[[nodiscard]] std::vector<double> ols(const std::vector<std::vector<double>>& rows,
                                      std::span<const double> y);

}  // namespace remos::rps
