// RPS <-> Remos binding: host-load prediction system, flow bandwidth
// sensor, client-server prediction over collector histories.
#include <gtest/gtest.h>

#include "apps/testbed.hpp"
#include "core/prediction_service.hpp"
#include "core/query_server.hpp"
#include "rps/fleet.hpp"
#include "rps/shared_cache.hpp"

namespace remos::core {
namespace {

using apps::LanTestbed;
using apps::WanTestbed;

TEST(HostLoadPredictionSystem, StreamsPredictionsPerSample) {
  sim::Engine engine;
  HostLoadPredictionSystem system(engine, sim::Rng(1), /*rate_hz=*/1.0);
  system.start(600);
  EXPECT_TRUE(system.running());
  engine.run_until(100.0);
  EXPECT_EQ(system.predictions_made(), 100u);
  EXPECT_EQ(system.latest().mean.size(), 30u);  // default horizon
  system.stop();
  engine.run_until(150.0);
  EXPECT_EQ(system.predictions_made(), 100u);
}

TEST(HostLoadPredictionSystem, Ar16BeatsSignalVariance) {
  // The paper: "AR(16) predictors produce one-second-ahead error variances
  // that are 70% lower than raw signal variance." Drive the same pipeline
  // (host load sensor -> streaming AR(16)) by hand and compare.
  sim::Engine engine;
  net::HostLoadSensor sensor(engine, sim::Rng(2).fork("hostload-sensor"), 1.0);
  rps::StreamingPredictor predictor(rps::ModelSpec::ar(16));
  sim::Rng prime_rng = sim::Rng(2).fork("prime");
  predictor.prime(net::generate_host_load(600, prime_rng));
  sim::RunningStats errors, signal;
  double predicted_next = 0.0;
  bool have_prediction = false;
  sensor.set_callback([&](sim::Time, double load) {
    signal.add(load);
    if (have_prediction) errors.add(load - predicted_next);
    const auto pred = predictor.push(load);
    predicted_next = pred.mean.empty() ? load : pred.mean[0];
    have_prediction = true;
  });
  sensor.start();
  engine.run_until(2000.0);
  ASSERT_GT(errors.count(), 500u);
  const double err_var = errors.variance();
  const double sig_var = signal.variance();
  EXPECT_LT(err_var, 0.5 * sig_var);  // comfortably beats the raw signal
}

TEST(FlowBandwidthSensor, RecordsAndPredicts) {
  WanTestbed::Params p;
  p.sites = {{"cmu", 2, 100e6, 10e6}, {"eth", 2, 100e6, 4e6}};
  p.cross_traffic_load = 0.0;
  WanTestbed w(p);
  w.warm_up(30.0);
  FlowBandwidthSensor sensor(w.engine, *w.modeler, w.addr(w.host("cmu", 0)),
                             w.addr(w.host("eth", 0)), /*interval_s=*/5.0,
                             rps::ModelSpec::ar(4), /*prime_after=*/16);
  sensor.start();
  w.engine.advance(5.0 * 40);
  EXPECT_GE(sensor.history().size(), 39u);
  const auto pred = sensor.latest_prediction();
  ASSERT_TRUE(pred.has_value());
  EXPECT_NEAR(pred->mean[0], 4e6, 1e6);  // quiet network: ~eth access rate
  sensor.stop();
}

TEST(PredictionService, PredictsCollectorResource) {
  LanTestbed::Params p;
  p.hosts = 4;
  p.switches = 2;
  LanTestbed lan(p);
  const auto a = lan.addr(lan.hosts[0]);
  const auto b = lan.addr(lan.hosts[1]);
  const auto resp = lan.collector->query({a, b});
  // Constant 20 Mb/s flow -> stationary utilization history.
  lan.flows->start(net::FlowSpec{.src = lan.hosts[0], .dst = lan.hosts[1], .demand_bps = 20e6});
  lan.engine.advance(5.0 * 80);

  PredictionService service(*lan.collector, rps::ModelSpec::ar(4));
  bool predicted = false;
  for (const VEdge& e : resp.topology.edges()) {
    const auto pred = service.predict_resource(e.id, 5);
    if (!pred) continue;
    predicted = true;
    if (lan.collector->history(e.id)->latest().value > 1e6) {
      EXPECT_NEAR(pred->mean[0], 20e6, 2e6);
    }
  }
  EXPECT_TRUE(predicted);
}

TEST(PredictionService, UnknownResourceNullopt) {
  LanTestbed lan;
  PredictionService service(*lan.collector);
  EXPECT_FALSE(service.predict_resource("nope", 5).has_value());
}

TEST(PredictionService, ModelOverridePerRequest) {
  LanTestbed::Params p;
  p.hosts = 2;
  p.switches = 1;
  LanTestbed lan(p);
  const auto resp = lan.collector->query(lan.host_addrs(2));
  lan.engine.advance(5.0 * 40);
  PredictionService service(*lan.collector, rps::ModelSpec::ar(16));
  for (const VEdge& e : resp.topology.edges()) {
    // LAST on an idle link predicts 0.
    const auto pred = service.predict_resource(e.id, 3, rps::ModelSpec::last());
    if (pred) {
      EXPECT_DOUBLE_EQ(pred->mean[0], 0.0);
      return;
    }
  }
  FAIL() << "no resource with history";
}

// ---- tiered SharedPredictionCache behind predict_from_history ----

VEdge wan_edge() {
  VEdge e;
  e.id = "wan:test-link";  // "wan:" history is available bandwidth directly
  e.capacity_bps = 1e8;
  return e;
}

std::vector<double> bandwidth_history(std::size_t n) {
  sim::Rng rng(77);
  std::vector<double> xs(n);
  double prev = 5e6;
  for (double& x : xs) {
    prev = 5e6 + 0.7 * (prev - 5e6) + rng.normal(0.0, 2e5);
    x = prev;
  }
  return xs;
}

TEST(PredictFromHistory, HotTierMemoizesAndPublishesTemplate) {
  const VEdge edge = wan_edge();
  const auto hist = bandwidth_history(600);
  const rps::ClientServerPredictor predictor(rps::ModelSpec::ar(4));
  const rps::ModelSpec model = rps::ModelSpec::ar(4);
  rps::SharedPredictionCache cache(60.0, [] { return 0.0; });

  const auto uncached =
      predict_from_history(hist, edge, predictor, model, /*horizon=*/8, /*min_history=*/16);
  const auto first =
      predict_from_history(hist, edge, predictor, model, 8, 16, &cache);
  const auto second =
      predict_from_history(hist, edge, predictor, model, 8, 16, &cache);
  ASSERT_TRUE(uncached.has_value());
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // Caching must not change the answer, only its cost.
  EXPECT_EQ(first->mean_bps, uncached->mean_bps);
  EXPECT_EQ(second->mean_bps, first->mean_bps);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  // The fit published its coefficients as a spec-shape warm template.
  EXPECT_EQ(cache.templates_stored(), 1u);
  EXPECT_TRUE(cache.warm_template(rps::template_key(model)).has_value());
}

TEST(PredictionService, FleetTemplateSeedsShortHistory) {
  // Templates carry no horizon, so a fleet and a prediction service that
  // share one cache key the warm tier alike and seed each other.
  LanTestbed::Params p;
  p.hosts = 2;
  p.switches = 1;
  LanTestbed lan(p);
  const auto resp = lan.collector->query(lan.host_addrs(2));
  lan.engine.advance(5.0 * 6);
  std::string young;
  for (const VEdge& e : resp.topology.edges()) {
    const sim::MeasurementHistory* h = lan.collector->history(e.id);
    if (h != nullptr && !h->empty()) {
      young = e.id;
      break;
    }
  }
  ASSERT_FALSE(young.empty());
  ASSERT_LE(lan.collector->history(young)->size(), 17u);  // too short for AR(16)

  rps::SharedPredictionCache cache(3600.0, [] { return 0.0; });
  PredictionService service(*lan.collector, rps::ModelSpec::ar(16));
  service.set_cache(&cache);
  EXPECT_FALSE(service.predict_resource(young, 5).has_value());

  rps::FleetConfig cfg;
  cfg.window = 64;
  cfg.cache = &cache;
  rps::FleetPredictor fleet(cfg);
  const auto id = fleet.add_series(rps::ModelSpec::ar(16));
  fleet.prime(id, bandwidth_history(64));
  fleet.refit_all();
  ASSERT_EQ(fleet.templates_published(), 1u);

  const auto seeded = service.predict_resource(young, 5);
  ASSERT_TRUE(seeded.has_value());
  EXPECT_EQ(seeded->mean.size(), 5u);
  EXPECT_EQ(cache.seeds(), 1u);
}

TEST(PredictFromHistory, ShortHistorySeedsFromWarmTemplate) {
  const VEdge edge = wan_edge();
  const rps::ClientServerPredictor predictor(rps::ModelSpec::ar(4));
  const rps::ModelSpec model = rps::ModelSpec::ar(4);
  const auto long_hist = bandwidth_history(600);
  const auto short_hist = bandwidth_history(8);  // < min_history

  // Cacheless: a short history is simply unanswerable.
  EXPECT_FALSE(
      predict_from_history(short_hist, edge, predictor, model, 8, 16).has_value());

  rps::SharedPredictionCache cache(60.0, [] { return 0.0; });
  // Still unanswerable with an empty warm tier.
  EXPECT_FALSE(
      predict_from_history(short_hist, edge, predictor, model, 8, 16, &cache).has_value());
  EXPECT_EQ(cache.warm_misses(), 1u);

  // A same-shape fit elsewhere publishes a template; now the short history
  // seeds from it instead of failing.
  ASSERT_TRUE(
      predict_from_history(long_hist, edge, predictor, model, 8, 16, &cache).has_value());
  const auto seeded =
      predict_from_history(short_hist, edge, predictor, model, 8, 16, &cache);
  ASSERT_TRUE(seeded.has_value());
  EXPECT_EQ(seeded->mean_bps.size(), 8u);
  EXPECT_GT(seeded->mean_bps[0], 0.0);
  EXPECT_EQ(cache.seeds(), 1u);
  EXPECT_EQ(cache.warm_hits(), 1u);
}

TEST(QueryServerTiers, PredictionTierStatsSurfaceCacheCounters) {
  WanTestbed::Params p;
  p.sites = {{"cmu", 2, 100e6, 10e6}, {"eth", 2, 100e6, 4e6}};
  WanTestbed w(p);
  w.warm_up(16.0 * w.params.benchmark_period_s + 30.0);
  std::vector<net::Ipv4Address> universe;
  for (const auto& site : w.sites) {
    for (net::NodeId h : site.hosts) universe.push_back(w.addr(h));
  }
  const FlowRequest req{.src = universe.front(), .dst = universe.back(), .demand_bps = 1e6};

  QueryServerConfig cfg;
  cfg.prediction_model = rps::ModelSpec::ar(4);
  cfg.min_history = 16;
  {
    // Cacheless server: the stats view is all zeros, before and after use.
    QueryServer server(*w.master, universe, cfg);
    ASSERT_TRUE(server.predict_flow(req, 10).has_value());
    const PredictionTierStats stats = server.prediction_tier_stats();
    EXPECT_EQ(stats.hot_hits + stats.hot_misses + stats.warm_hits + stats.warm_misses +
                  stats.seeds + stats.templates_stored,
              0u);
  }

  rps::SharedPredictionCache cache(3600.0, [] { return 0.0; });
  cfg.prediction_cache = &cache;
  QueryServer server(*w.master, universe, cfg);
  ASSERT_TRUE(server.predict_flow(req, 10).has_value());
  // Same request in a fresh epoch: the server's per-epoch memo is gone, so
  // the answer comes from the cache's hot tier.
  server.refresh();
  ASSERT_TRUE(server.predict_flow(req, 10).has_value());
  const PredictionTierStats stats = server.prediction_tier_stats();
  EXPECT_EQ(stats.hot_misses, 1u);
  EXPECT_EQ(stats.hot_hits, 1u);
  EXPECT_EQ(stats.templates_stored, 1u);
  EXPECT_EQ(stats.warm_hits + stats.warm_misses, 0u);
}

}  // namespace
}  // namespace remos::core
