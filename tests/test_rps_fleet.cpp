// FleetPredictor: batched same-shape refits over the thread pool,
// incremental AR lane, and warm-tier template seeding. The load-bearing
// claims: results are bit-identical across worker counts, the full-refit
// mode is float-identical to the ArmaModel path and to a StreamingPredictor
// (both wrap one SeriesCore), and the incremental mode stays inside the
// documented 1e-9 contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "rps/fleet.hpp"
#include "rps/models.hpp"
#include "rps/predictor.hpp"
#include "rps/shared_cache.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

namespace remos::rps {
namespace {

std::vector<double> series_history(std::size_t i, std::size_t n) {
  sim::Rng rng(0xF1EE7 + i);
  std::vector<double> xs(n);
  double prev = 100.0;
  for (double& x : xs) {
    prev = 100.0 + 0.7 * (prev - 100.0) + rng.normal(0.0, 2.0);
    x = prev;
  }
  return xs;
}

TEST(FleetPredictor, FullModeBitIdenticalToArmaModel) {
  const std::size_t window = 128;
  const std::size_t horizon = 20;
  const ModelSpec spec = ModelSpec::ar(8);
  FleetConfig cfg;
  cfg.window = window;
  cfg.horizon = horizon;
  cfg.incremental = false;
  FleetPredictor fleet(cfg);
  const auto id = fleet.add_series(spec);
  const std::vector<double> hist = series_history(1, window + 40);
  fleet.prime(id, std::span<const double>(hist).subspan(0, window));
  for (std::size_t t = window; t < hist.size(); ++t) fleet.observe(id, hist[t]);
  fleet.refit_all();
  const Prediction got = fleet.predict(id);

  // Reference: the Model path fitted on the identical final window.
  const std::vector<double> tail(hist.end() - static_cast<std::ptrdiff_t>(window), hist.end());
  auto model = make_model(spec);
  model->fit(tail);
  const Prediction want = model->predict(horizon);
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_EQ(got.variance, want.variance);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(FleetPredictor, MatchesStreamingPredictorBitForBit) {
  // Both owners wrap the same series core: a streaming predictor without
  // error refits and a one-series fleet refitted once after its prime must
  // forecast identically, step after step.
  const std::size_t window = 128;
  const std::size_t horizon = 12;
  for (const ModelSpec& spec : {ModelSpec::ar(8), ModelSpec::mean(), ModelSpec::arma(2, 2)}) {
    StreamingConfig scfg;
    scfg.fit_window = window;
    scfg.horizon = horizon;
    scfg.refit_on_error = false;
    StreamingPredictor streaming(spec, scfg);
    FleetConfig fcfg;
    fcfg.window = window;
    fcfg.horizon = horizon;
    fcfg.incremental = false;
    FleetPredictor fleet(fcfg);
    const auto id = fleet.add_series(spec);

    const std::vector<double> hist = series_history(7, window + 600);
    const std::span<const double> prime = std::span<const double>(hist).subspan(0, window);
    streaming.prime(prime);
    fleet.prime(id, prime);
    fleet.refit_all();
    for (std::size_t t = window; t < hist.size(); ++t) {
      const Prediction a = streaming.push(hist[t]);
      fleet.observe(id, hist[t]);
      const Prediction b = fleet.predict(id);
      ASSERT_TRUE(same_bits(a.mean, b.mean)) << spec.to_string() << " t=" << t;
      ASSERT_TRUE(same_bits(a.variance, b.variance)) << spec.to_string() << " t=" << t;
    }
  }
}

TEST(FleetPredictor, BitIdenticalAcrossWorkerCounts) {
  const std::size_t n_series = 600;
  const std::size_t window = 64;
  sim::ThreadPool pool2(2);
  sim::ThreadPool pool5(5);
  sim::ThreadPool* pools[] = {nullptr, &pool2, &pool5};

  std::vector<Prediction> reference;
  for (std::size_t which = 0; which < 3; ++which) {
    FleetConfig cfg;
    cfg.window = window;
    cfg.horizon = 12;
    cfg.pool = pools[which];
    cfg.max_batch_tasks = 5;
    cfg.parallel_min_series = 1;  // force dispatch even for small groups
    FleetPredictor fleet(cfg);
    for (std::size_t i = 0; i < n_series; ++i) {
      fleet.add_series(i % 3 == 0 ? ModelSpec::ar(16) : ModelSpec::ar(8));
    }
    for (std::size_t i = 0; i < n_series; ++i) fleet.prime(i, series_history(i, window));
    fleet.refit_all();
    for (std::size_t i = 0; i < n_series; ++i) fleet.observe(i, 101.5);
    fleet.refit_all();
    EXPECT_EQ(fleet.refits_total(), 2 * n_series);
    if (which == 0) {
      reference.reserve(n_series);
      for (std::size_t i = 0; i < n_series; ++i) reference.push_back(fleet.predict(i));
      continue;
    }
    for (std::size_t i = 0; i < n_series; ++i) {
      const Prediction p = fleet.predict(i);
      ASSERT_EQ(p.mean, reference[i].mean) << "series " << i << " pool variant " << which;
      ASSERT_EQ(p.variance, reference[i].variance) << "series " << i;
    }
  }
}

TEST(FleetPredictor, IncrementalWithinContractOfFullMode) {
  const std::size_t window = 100;
  std::vector<Prediction> results[2];
  for (const bool incremental : {false, true}) {
    FleetConfig cfg;
    cfg.window = window;
    cfg.horizon = 16;
    cfg.incremental = incremental;
    FleetPredictor fleet(cfg);
    for (std::size_t i = 0; i < 20; ++i) fleet.add_series(ModelSpec::ar(8));
    for (std::size_t i = 0; i < 20; ++i) fleet.prime(i, series_history(i, window));
    // Push through a full turnover so the incremental sums have seen
    // evictions and at least one resync.
    for (std::size_t t = 0; t < window + 16; ++t) {
      const auto extra = series_history(1000 + t, 20);
      for (std::size_t i = 0; i < 20; ++i) fleet.observe(i, extra[i]);
    }
    fleet.refit_all();
    for (std::size_t i = 0; i < 20; ++i) {
      results[incremental ? 1 : 0].push_back(fleet.predict(i));
    }
  }
  for (std::size_t i = 0; i < 20; ++i) {
    const Prediction& full = results[0][i];
    const Prediction& inc = results[1][i];
    for (std::size_t h = 0; h < full.mean.size(); ++h) {
      const double scale = std::max({1.0, std::abs(full.mean[h]), std::abs(inc.mean[h])});
      EXPECT_LE(std::abs(full.mean[h] - inc.mean[h]), 1e-8 * scale);
      const double vscale =
          std::max({1.0, std::abs(full.variance[h]), std::abs(inc.variance[h])});
      EXPECT_LE(std::abs(full.variance[h] - inc.variance[h]), 1e-8 * vscale);
    }
  }
}

TEST(FleetPredictor, GroupsBySpecShapeAndCountsFailures) {
  FleetConfig cfg;
  cfg.window = 64;
  FleetPredictor fleet(cfg);
  fleet.add_series(ModelSpec::ar(4));
  fleet.add_series(ModelSpec::ar(4));
  fleet.add_series(ModelSpec::ar(8));
  const auto young = fleet.add_series(ModelSpec::ar(8));  // never primed
  EXPECT_EQ(fleet.series_count(), 4u);
  EXPECT_EQ(fleet.group_count(), 2u);
  for (std::size_t i = 0; i < 3; ++i) fleet.prime(i, series_history(i, 64));
  fleet.refit_all();
  EXPECT_EQ(fleet.refits_total(), 3u);
  EXPECT_EQ(fleet.fit_failures(), 1u);
  EXPECT_TRUE(fleet.fitted(0));
  EXPECT_FALSE(fleet.fitted(young));
}

TEST(FleetPredictor, UnfittedWithoutCacheFailsPredict) {
  FleetConfig cfg;
  cfg.window = 32;
  FleetPredictor fleet(cfg);
  const auto id = fleet.add_series(ModelSpec::ar(4));
  Prediction out;
  EXPECT_FALSE(fleet.predict_into(id, out));
  EXPECT_THROW(fleet.predict(id), std::logic_error);
}

TEST(FleetPredictor, WarmTierSeedsYoungArSeries) {
  SharedPredictionCache cache(1e9, [] { return 0.0; });
  FleetConfig cfg;
  cfg.window = 64;
  cfg.horizon = 8;
  cfg.cache = &cache;
  FleetPredictor fleet(cfg);
  for (std::size_t i = 0; i < 5; ++i) fleet.add_series(ModelSpec::ar(4));
  const auto young = fleet.add_series(ModelSpec::ar(4));
  for (std::size_t i = 0; i < 5; ++i) fleet.prime(i, series_history(i, 64));
  fleet.refit_all();
  EXPECT_EQ(fleet.templates_published(), 1u);  // one group, lowest-id winner
  Prediction out;
  ASSERT_TRUE(fleet.predict_into(young, out));
  EXPECT_EQ(out.mean.size(), 8u);
  EXPECT_TRUE(std::isfinite(out.mean[0]));
  EXPECT_EQ(fleet.seeded_predictions(), 1u);
  EXPECT_EQ(cache.seeds(), 1u);
  EXPECT_EQ(cache.warm_hits(), 1u);
  // The seeded forecast is the group template applied to the young
  // series' (empty) window: deviations are zero-padded, so the mean
  // forecast is the template's mean.
  const auto tmpl = cache.warm_template(ModelSpec::ar(4).to_string());
  ASSERT_TRUE(tmpl.has_value());
  EXPECT_DOUBLE_EQ(out.mean[0], tmpl->mu);
}

TEST(FleetPredictor, WarmTierSeedsGenericLane) {
  SharedPredictionCache cache(1e9, [] { return 0.0; });
  ModelSpec burg = ModelSpec::ar(4);
  burg.use_burg = true;  // not AR-lane eligible: exercises the generic path
  FleetConfig cfg;
  cfg.window = 64;
  cfg.horizon = 8;
  cfg.cache = &cache;
  FleetPredictor fleet(cfg);
  for (std::size_t i = 0; i < 3; ++i) fleet.add_series(burg);
  const auto young = fleet.add_series(burg);
  for (std::size_t i = 0; i < 3; ++i) fleet.prime(i, series_history(i, 64));
  fleet.refit_all();
  EXPECT_EQ(fleet.refits_total(), 3u);
  EXPECT_EQ(fleet.templates_published(), 1u);
  Prediction out;
  ASSERT_TRUE(fleet.predict_into(young, out));
  EXPECT_EQ(fleet.seeded_predictions(), 1u);
  EXPECT_TRUE(std::isfinite(out.mean[0]));
}

TEST(FleetPredictor, ObserveAgesYoungSeriesIntoFitting) {
  FleetConfig cfg;
  cfg.window = 32;
  FleetPredictor fleet(cfg);
  const auto id = fleet.add_series(ModelSpec::ar(2));
  fleet.refit_all();
  EXPECT_EQ(fleet.fit_failures(), 1u);
  const auto xs = series_history(3, 8);
  for (double x : xs) fleet.observe(id, x);  // 8 > order + 1
  fleet.refit_all();
  EXPECT_TRUE(fleet.fitted(id));
  const Prediction p = fleet.predict(id);
  EXPECT_TRUE(std::isfinite(p.mean[0]));
}

}  // namespace
}  // namespace remos::rps
