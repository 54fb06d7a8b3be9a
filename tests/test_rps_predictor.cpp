// Evaluator feedback and the two prediction operating modes.
#include <gtest/gtest.h>

#include "rps/evaluator.hpp"
#include "rps/predictor.hpp"
#include "sim/rng.hpp"

namespace remos::rps {
namespace {

std::vector<double> ar1_series(double phi, std::size_t n, std::uint64_t seed, double mu = 0.0) {
  sim::Rng rng(seed);
  std::vector<double> xs;
  double x = 0.0;
  for (std::size_t t = 0; t < n + 100; ++t) {
    x = phi * x + rng.normal();
    if (t >= 100) xs.push_back(mu + x);
  }
  return xs;
}

TEST(Evaluator, TracksOneStepErrors) {
  Evaluator e;
  e.note_prediction(5.0);
  e.observe(7.0);
  e.note_prediction(3.0);
  e.observe(3.0);
  EXPECT_EQ(e.sample_count(), 2u);
  EXPECT_DOUBLE_EQ(e.observed_mse(), 2.0);  // (4 + 0) / 2
  EXPECT_DOUBLE_EQ(e.observed_bias(), 1.0);
}

TEST(Evaluator, ObserveWithoutPredictionIgnored) {
  Evaluator e;
  e.observe(1.0);
  EXPECT_EQ(e.sample_count(), 0u);
}

TEST(Evaluator, WindowBounded) {
  Evaluator e(EvaluatorConfig{4, 2.0, 1});
  for (int i = 0; i < 20; ++i) {
    e.note_prediction(0.0);
    e.observe(static_cast<double>(i));
  }
  EXPECT_EQ(e.sample_count(), 4u);
}

TEST(Evaluator, RefitTriggersWhenErrorExceedsClaim) {
  Evaluator e(EvaluatorConfig{16, 2.0, 4});
  for (int i = 0; i < 8; ++i) {
    e.note_prediction(0.0);
    e.observe(10.0);  // MSE = 100
  }
  EXPECT_TRUE(e.needs_refit(/*claimed=*/1.0));
  EXPECT_FALSE(e.needs_refit(/*claimed=*/100.0));
}

TEST(Evaluator, NoVerdictBeforeMinSamples) {
  Evaluator e(EvaluatorConfig{16, 2.0, 8});
  for (int i = 0; i < 4; ++i) {
    e.note_prediction(0.0);
    e.observe(100.0);
  }
  EXPECT_FALSE(e.needs_refit(1.0));
}

TEST(Evaluator, CalibrationRatioNearOneForGoodModel) {
  Evaluator e(EvaluatorConfig{256, 2.0, 8});
  sim::Rng rng(1);
  for (int i = 0; i < 256; ++i) {
    e.note_prediction(0.0);
    e.observe(rng.normal(0.0, 2.0));  // true variance 4
  }
  EXPECT_NEAR(e.calibration_ratio(4.0), 1.0, 0.3);
}

TEST(StreamingPredictor, PushBeforePrimeThrows) {
  StreamingPredictor p(ModelSpec::ar(4));
  EXPECT_THROW(p.push(1.0), std::logic_error);
  EXPECT_THROW(p.predict(), std::logic_error);
}

TEST(StreamingPredictor, ProducesHorizonPredictions) {
  StreamingConfig cfg;
  cfg.horizon = 12;
  StreamingPredictor p(ModelSpec::ar(4), cfg);
  p.prime(ar1_series(0.8, 800, 2));
  const Prediction pred = p.push(1.0);
  EXPECT_EQ(pred.mean.size(), 12u);
  EXPECT_EQ(pred.variance.size(), 12u);
  EXPECT_EQ(p.steps(), 1u);
}

TEST(StreamingPredictor, AmortizesFitAcrossSteps) {
  StreamingPredictor p(ModelSpec::ar(8));
  p.prime(ar1_series(0.8, 800, 3));
  const auto xs = ar1_series(0.8, 500, 4);
  for (double x : xs) p.push(x);
  // A well-matched model should almost never trigger an error refit.
  EXPECT_LE(p.refit_count(), 3u);
}

TEST(StreamingPredictor, RefitsWhenRegimeChanges) {
  StreamingConfig cfg;
  cfg.evaluator.min_samples = 8;
  cfg.evaluator.tolerance = 2.0;
  StreamingPredictor p(ModelSpec::ar(2), cfg);
  p.prime(ar1_series(0.8, 800, 5, /*mu=*/0.0));
  const std::size_t before = p.refit_count();
  // Signal jumps to a wildly different regime.
  sim::Rng rng(6);
  for (int i = 0; i < 100; ++i) p.push(100.0 + rng.normal(0.0, 5.0));
  EXPECT_GT(p.refit_count(), before);
  // And after refitting, predictions live in the new regime.
  EXPECT_GT(p.predict().mean[0], 50.0);
}

TEST(StreamingPredictor, RefitDisabledStaysPut) {
  StreamingConfig cfg;
  cfg.refit_on_error = false;
  StreamingPredictor p(ModelSpec::mean(), cfg);
  p.prime(std::vector<double>(100, 1.0));
  for (int i = 0; i < 50; ++i) p.push(100.0);
  EXPECT_EQ(p.refit_count(), 1u);  // only the prime
}

// The complexity-regression pin for the old vector fit buffer: push()
// erased the buffer front every post-prime sample, moving window-1
// elements per push. The ring-backed window must move elements only on
// prime (and full-refit linearization), never per push.
TEST(StreamingPredictor, PushMovesNoBufferElements) {
  StreamingConfig cfg;
  cfg.fit_window = 128;
  cfg.refit_on_error = false;  // no full-refit linearizations mid-stream
  StreamingPredictor p(ModelSpec::ar(4), cfg);
  p.prime(ar1_series(0.8, 400, 21));
  const std::uint64_t after_prime = p.fit_buffer_moves();
  EXPECT_EQ(after_prime, 128u);  // the tail the prime retained
  const auto xs = ar1_series(0.8, 1000, 22);
  for (double x : xs) p.push(x);
  // Old buffer: + 1000 * 127 moves. Ring: zero.
  EXPECT_EQ(p.fit_buffer_moves(), after_prime);
}

TEST(StreamingPredictor, IncrementalMatchesFullRefitPath) {
  // Same spec, same data, evaluator-forced refits: the incremental
  // path must track the full-recompute path within the documented 1e-9
  // contract (compounded through the forecast recursion; 1e-8 headroom).
  const auto prime = ar1_series(0.7, 300, 23, /*mu=*/50.0);
  const auto stream = ar1_series(0.7, 400, 24, /*mu=*/50.0);
  StreamingConfig cfg;
  cfg.fit_window = 200;
  cfg.horizon = 10;
  cfg.evaluator.min_samples = 4;
  cfg.evaluator.tolerance = 0.0;  // refit on every evaluator verdict
  StreamingConfig full = cfg;
  full.incremental_fit = false;
  StreamingPredictor inc(ModelSpec::ar(8), cfg);
  StreamingPredictor ref(ModelSpec::ar(8), full);
  inc.prime(prime);
  ref.prime(prime);
  for (double x : stream) {
    const Prediction a = inc.push(x);
    const Prediction b = ref.push(x);
    ASSERT_EQ(a.mean.size(), b.mean.size());
    for (std::size_t h = 0; h < a.mean.size(); ++h) {
      const double scale = std::max({1.0, std::abs(a.mean[h]), std::abs(b.mean[h])});
      ASSERT_LE(std::abs(a.mean[h] - b.mean[h]), 1e-8 * scale) << "h=" << h;
    }
  }
  EXPECT_EQ(inc.refit_count(), ref.refit_count());
  EXPECT_GT(inc.incremental_refit_count(), 0u);
  EXPECT_EQ(ref.incremental_refit_count(), 0u);
}

TEST(StreamingPredictor, IncrementalResyncsOnWindowTurnover) {
  StreamingConfig cfg;
  cfg.fit_window = 64;
  cfg.refit_on_error = false;
  StreamingPredictor p(ModelSpec::ar(4), cfg);
  p.prime(ar1_series(0.5, 64, 25));
  const auto xs = ar1_series(0.5, 64 * 3, 26);
  for (double x : xs) p.push(x);
  EXPECT_EQ(p.resync_count(), 3u);
}

TEST(StreamingPredictor, NonArFamiliesIgnoreIncrementalFlag) {
  // The incremental lane only covers pure AR Yule-Walker; a MEAN-family
  // predictor must behave identically with the flag on or off.
  for (const bool flag : {false, true}) {
    StreamingConfig cfg;
    cfg.incremental_fit = flag;
    StreamingPredictor p(ModelSpec::mean(), cfg);
    p.prime(std::vector<double>(100, 3.0));
    for (int i = 0; i < 20; ++i) p.push(3.0);
    EXPECT_EQ(p.incremental_refit_count(), 0u);
    EXPECT_DOUBLE_EQ(p.predict().mean[0], 3.0);
  }
}

TEST(ClientServerPredictor, StatelessFitPerRequest) {
  ClientServerPredictor service(ModelSpec::ar(4));
  const auto xs = ar1_series(0.8, 600, 7, /*mu=*/20.0);
  ClientServerPredictor::Request req;
  req.history = xs;
  req.horizon = 5;
  const Prediction p1 = service.predict(req);
  const Prediction p2 = service.predict(req);
  EXPECT_EQ(p1.mean, p2.mean);  // no state carries over
  EXPECT_EQ(service.requests_served(), 2u);
  EXPECT_NEAR(p1.mean[4], 20.0, 3.0);
}

TEST(ClientServerPredictor, PerRequestModelOverride) {
  ClientServerPredictor service(ModelSpec::ar(4));
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  ClientServerPredictor::Request req;
  req.history = xs;
  req.horizon = 1;
  req.spec = ModelSpec::last();
  EXPECT_DOUBLE_EQ(service.predict(req).mean[0], 10.0);
  req.spec = ModelSpec::mean();
  EXPECT_DOUBLE_EQ(service.predict(req).mean[0], 5.5);
}

TEST(ClientServerPredictor, PropagatesFitErrors) {
  ClientServerPredictor service(ModelSpec::ar(16));
  const std::vector<double> tiny{1.0, 2.0};
  ClientServerPredictor::Request req;
  req.history = tiny;
  req.horizon = 1;
  EXPECT_THROW(service.predict(req), std::invalid_argument);
}

TEST(Modes, StreamingMatchesClientServerAfterSameData) {
  // With the same model family and effective window, a streaming predictor
  // that refits every step equals client-server predictions.
  const auto xs = ar1_series(0.7, 400, 8);
  ClientServerPredictor service(ModelSpec::mean());
  ClientServerPredictor::Request req;
  req.history = xs;
  req.horizon = 1;
  const double cs = service.predict(req).mean[0];

  StreamingConfig cfg;
  cfg.fit_window = xs.size();
  StreamingPredictor streaming(ModelSpec::mean(), cfg);
  streaming.prime(std::vector<double>(xs.begin(), xs.begin() + 1));
  for (std::size_t i = 1; i < xs.size(); ++i) streaming.push(xs[i]);
  EXPECT_NEAR(streaming.predict().mean[0], cs, 1e-9);
}

}  // namespace
}  // namespace remos::rps
