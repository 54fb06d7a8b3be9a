// Query serving at scale — the TSan stress suite for the snapshot read
// path. Three claims, each test-shaped:
//
//   1. Bit-identity: on a quiescent simulation, the lock-free snapshot
//      path and the harness's mutex oracle (tests/query_fleet.hpp: an
//      independent full-universe fetch per query, answered without memos
//      and without touching the server's published state) produce
//      byte-identical answers for an identical mixed workload — so the
//      published epoch captured everything a query reads, and no follower
//      is handed a wrong memo.
//   2. Race-freedom: a reader fleet hammers the snapshot path while the
//      simulation thread mutates the world underneath it — flows start
//      and stop, collectors poll, epochs publish. Run under
//      `cmake --preset tsan` (ci/check.sh does) this is the proof the
//      read path took no lock it needed.
//   3. Accounting: coalescing and admission-control counters are exact,
//      not heuristic — computations equal distinct keys, every other
//      query is a hit, rejections are 0 unless the bound says otherwise.
//
// Alongside them: the Modeler and the QueryServer answer alike
// (QueryFrontEnds), and the QueryServerConfig fields that shape a snapshot
// (simplify_topology, history_window) do what they say (QuerySnapshotFetch).
//
// Registered with the `stress` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <vector>

#include "apps/testbed.hpp"
#include "core/modeler.hpp"
#include "core/query_server.hpp"
#include "query_fleet.hpp"
#include "sim/thread_pool.hpp"

namespace remos::core {
namespace {

using apps::WanTestbed;

WanTestbed::Params stress_sites() {
  WanTestbed::Params p;
  p.sites = {{"cmu", 3, 100e6, 10e6}, {"eth", 3, 100e6, 4e6}, {"ucsd", 2, 100e6, 6e6}};
  p.cross_traffic_load = 0.3;
  return p;
}

QueryServerConfig fast_predictions() {
  QueryServerConfig cfg;
  cfg.prediction_model = rps::ModelSpec::ar(4);
  cfg.min_history = 16;
  return cfg;
}

std::vector<net::Ipv4Address> all_hosts(const WanTestbed& w) {
  std::vector<net::Ipv4Address> out;
  for (const auto& site : w.sites) {
    for (net::NodeId h : site.hosts) out.push_back(w.addr(h));
  }
  return out;
}

TEST(QueryScale, SnapshotMatchesLockedOnQuiescentState) {
  WanTestbed w(stress_sites());
  // Warm until benchmark histories can carry an AR(4) fit (>= min_history
  // samples at benchmark_period_s cadence).
  w.warm_up(16.0 * w.params.benchmark_period_s + 30.0);
  const auto universe = all_hosts(w);
  QueryServer server(*w.master, universe, fast_predictions());
  server.refresh();

  const auto queries = fleet::make_workload(universe, 256, /*seed=*/0xF1EE7u);
  sim::ThreadPool pool(4);
  const fleet::FleetResult snap = fleet::run_fleet(server, queries, pool, /*locked=*/false);
  const std::uint64_t epoch = server.epoch();
  const std::uint64_t queries_served = server.queries_total();
  const fleet::FleetResult locked = fleet::run_fleet(server, queries, pool, /*locked=*/true);
  ASSERT_EQ(snap.answers.size(), locked.answers.size());
  // The oracle computes every keyed answer itself and leaves the server
  // alone: no new epoch, no query through its read path.
  const fleet::WorkloadStats ws = fleet::workload_stats(queries);
  EXPECT_EQ(locked.oracle.queries, queries.size());
  EXPECT_EQ(locked.oracle.computations, ws.flow_queries + ws.predict_queries);
  EXPECT_EQ(server.epoch(), epoch);
  EXPECT_EQ(server.queries_total(), queries_served);
  std::size_t predictions = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(snap.answers[i], locked.answers[i]) << "query " << i << " diverged";
    if (queries[i].kind == fleet::Query::Kind::kPredict &&
        snap.answers[i] != "predict none\n") {
      ++predictions;
    }
  }
  // The workload must actually exercise predictions, or bit-identity on
  // the predict path proves nothing.
  EXPECT_GT(predictions, 0u);
}

TEST(QueryScale, ReadersRaceMutatingSimulation) {
  WanTestbed w(stress_sites());
  w.warm_up(16.0 * w.params.benchmark_period_s + 30.0);
  const auto universe = all_hosts(w);
  QueryServer server(*w.master, universe, fast_predictions());

  const auto queries = fleet::make_workload(universe, 192, /*seed=*/0xBADC0DEu);
  sim::ThreadPool pool(4);

  // Reader fleet: three full passes over the workload on pool threads
  // while this (simulation) thread mutates the world underneath them.
  std::vector<std::future<std::size_t>> readers;
  for (int pass = 0; pass < 3; ++pass) {
    readers.push_back(pool.submit([&server, &queries] {
      std::size_t bytes = 0;
      for (const fleet::Query& q : queries) {
        bytes += fleet::answer_query(server, q, /*locked=*/false).size();
      }
      return bytes;
    }));
  }

  // Concurrent mutation: flows start/stop, the engine advances (collector
  // polls, benchmark probes, cross traffic), fresh epochs publish.
  const net::NodeId src = w.host("cmu", 0);
  const net::NodeId dst = w.host("eth", 0);
  for (int round = 0; round < 10; ++round) {
    const net::FlowId f =
        w.flows->start({.src = src, .dst = dst, .demand_bps = 2e6 + 1e5 * round});
    w.engine.advance(w.params.poll_interval_s);
    server.refresh();
    w.flows->stop(f);
    w.engine.advance(1.0);
  }
  for (auto& r : readers) EXPECT_GT(r.get(), 0u);
  EXPECT_GE(server.epochs_published(), 11u);

  // Quiescent checkpoint: mutation stopped; after one more refresh the two
  // paths must agree bit-for-bit again.
  server.refresh();
  const fleet::FleetResult snap = fleet::run_fleet(server, queries, pool, /*locked=*/false);
  const fleet::FleetResult locked = fleet::run_fleet(server, queries, pool, /*locked=*/true);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(snap.answers[i], locked.answers[i]) << "query " << i << " diverged post-mutation";
  }
}

TEST(QueryScale, CoalescingAccountingIsExact) {
  WanTestbed w(stress_sites());
  w.warm_up(16.0 * w.params.benchmark_period_s + 30.0);
  const auto universe = all_hosts(w);
  QueryServer server(*w.master, universe, fast_predictions());
  server.refresh();

  const auto queries = fleet::make_workload(universe, 512, /*seed=*/0xC0A1E5CEu);
  const fleet::WorkloadStats ws = fleet::workload_stats(queries);
  const std::uint64_t base_queries = server.queries_total();
  sim::ThreadPool pool(4);
  (void)fleet::run_fleet(server, queries, pool, /*locked=*/false);

  EXPECT_EQ(server.queries_total() - base_queries, queries.size());
  EXPECT_EQ(server.computations(), ws.distinct_keys);
  EXPECT_EQ(server.coalesce_hits(), ws.flow_queries + ws.predict_queries - ws.distinct_keys);
  EXPECT_EQ(server.predict_rejected(), 0u);

  // Same workload again, same epoch: every flow/predict answer is memoized
  // — zero new computations.
  (void)fleet::run_fleet(server, queries, pool, /*locked=*/false);
  EXPECT_EQ(server.computations(), ws.distinct_keys);
  EXPECT_EQ(server.coalesce_hits(), 2 * (ws.flow_queries + ws.predict_queries) - ws.distinct_keys);

  // New epoch: memos pruned, the same workload computes afresh.
  server.refresh();
  (void)fleet::run_fleet(server, queries, pool, /*locked=*/false);
  EXPECT_EQ(server.computations(), 2 * ws.distinct_keys);
}

TEST(QueryScale, AdmissionControlBoundsPredictFits) {
  WanTestbed w(stress_sites());
  w.warm_up(16.0 * w.params.benchmark_period_s + 30.0);
  const auto universe = all_hosts(w);
  QueryServerConfig cfg = fast_predictions();
  cfg.max_fits_in_flight = 0;  // degenerate bound: every distinct fit rejected
  QueryServer server(*w.master, universe, cfg);
  server.refresh();

  const FlowRequest req{.src = universe.front(), .dst = universe.back(), .demand_bps = 1e6};
  EXPECT_EQ(server.predict_flow(req, 10), std::nullopt);
  EXPECT_EQ(server.predict_rejected(), 1u);
  // Flow queries are not admission-bounded.
  FlowQuery q;
  q.flows.push_back(req);
  EXPECT_FALSE(server.flow_query(q).empty());
}

/// A topology answer as sorted node and edge multisets. An edge names its
/// endpoints by node name, in ascending order, so neither the node order
/// nor the edge orientation of the answer matters; every float still
/// renders at full precision.
std::pair<std::vector<std::string>, std::vector<std::string>> unordered(
    const VirtualTopology& topo) {
  std::vector<std::string> nodes, edges;
  for (const VNode& n : topo.nodes()) {
    nodes.push_back(std::string(to_string(n.kind)) + " " + n.name + " " + n.addr.to_string());
  }
  for (const VEdge& e : topo.edges()) {
    const auto [lo, hi] = std::minmax(topo.nodes()[e.a].name, topo.nodes()[e.b].name);
    edges.push_back(lo + "-" + hi + " cap=" + fleet::fmt_double(e.capacity_bps) +
                    " ab=" + fleet::fmt_double(e.util_ab_bps) +
                    " ba=" + fleet::fmt_double(e.util_ba_bps) +
                    " lat=" + fleet::fmt_double(e.latency_s) +
                    " stale=" + fleet::fmt_double(e.staleness_s) + " id=" + e.id);
  }
  std::sort(nodes.begin(), nodes.end());
  std::sort(edges.begin(), edges.end());
  return {nodes, edges};
}

TEST(QueryFrontEnds, ModelerAgreesWithQueryServer) {
  WanTestbed w(stress_sites());
  // 65 benchmark samples per site pair: well past min_history, so a front
  // end fitting a clipped history would disagree with the other.
  w.warm_up(64.0 * w.params.benchmark_period_s + 30.0);
  const auto universe = all_hosts(w);
  QueryServerConfig server_cfg = fast_predictions();
  server_cfg.history_window = 4096;  // whole histories, as the Modeler fits
  QueryServer server(*w.master, universe, server_cfg);
  ModelerConfig modeler_cfg;
  modeler_cfg.prediction_model = server_cfg.prediction_model;
  modeler_cfg.min_history = server_cfg.min_history;
  Modeler modeler(*w.master, modeler_cfg);

  std::size_t predictions = 0, topologies = 0, reordered = 0;
  for (const fleet::Query& q : fleet::make_workload(universe, 256, /*seed=*/0xF1EE7u)) {
    switch (q.kind) {
      case fleet::Query::Kind::kTopology: {
        // The collectors keep each L2 edge in the orientation it was first
        // discovered in, so the two front ends, whose collector queries
        // differ, still orient every edge alike. Node order can differ: with
        // this seed 1 of the 49 answers lists a host and a switch in the
        // other order after simplification. So the answers compare as node
        // and edge multisets, and the byte compare may miss only that once.
        const VirtualTopology from_modeler = modeler.topology_query(q.nodes);
        const VirtualTopology from_server = server.topology_query(q.nodes);
        EXPECT_EQ(unordered(from_modeler), unordered(from_server));
        ++topologies;
        if (fleet::render_topology(from_modeler) != fleet::render_topology(from_server)) {
          ++reordered;
        }
        break;
      }
      case fleet::Query::Kind::kFlow:
        EXPECT_EQ(fleet::render_flow_infos(modeler.flow_query(q.flow)),
                  fleet::render_flow_infos(server.flow_query(q.flow)));
        break;
      case fleet::Query::Kind::kPredict: {
        const std::string from_modeler =
            fleet::render_prediction(modeler.predict_flow(q.request, q.horizon));
        EXPECT_EQ(from_modeler,
                  fleet::render_prediction(server.predict_flow(q.request, q.horizon)));
        if (from_modeler != "predict none\n") ++predictions;
        break;
      }
    }
  }
  EXPECT_GT(predictions, 0u);
  EXPECT_EQ(topologies, 49u);
  EXPECT_LE(reordered, 1u);
}

TEST(QuerySnapshotFetch, UnsimplifiedTopologyKeepsSwitches) {
  WanTestbed w(stress_sites());
  w.warm_up(60.0);
  const auto universe = all_hosts(w);
  QueryServerConfig cfg;
  cfg.simplify_topology = false;
  QueryServer server(*w.master, universe, cfg);

  // Two hosts of one site meet at that site's switch.
  const std::vector<net::Ipv4Address> nodes{w.addr(w.host("cmu", 0)), w.addr(w.host("cmu", 1))};
  const VirtualTopology answer = server.topology_query(nodes);
  EXPECT_TRUE(std::any_of(answer.nodes().begin(), answer.nodes().end(),
                          [](const VNode& n) { return n.kind == VNodeKind::kSwitch; }));
  EXPECT_EQ(fleet::render_topology(answer),
            fleet::render_topology(span_topology(server.snapshot()->topo, nodes)));
}

TEST(QuerySnapshotFetch, HistoryWindowBoundsCopiedHistories) {
  WanTestbed w(stress_sites());
  w.warm_up(16.0 * w.params.benchmark_period_s + 30.0);
  const auto universe = all_hosts(w);
  constexpr std::size_t kWindow = 8;
  QueryServerConfig cfg;
  cfg.history_window = kWindow;
  QueryServer server(*w.master, universe, cfg);

  const QuerySnapshotPtr snap = server.snapshot();
  ASSERT_FALSE(snap->histories.empty());
  bool clipped = false;
  for (const auto& [rid, values] : snap->histories) {
    EXPECT_LE(values.size(), kWindow) << rid;
    const sim::MeasurementHistory* live = w.master->history(rid);
    ASSERT_NE(live, nullptr) << rid;
    EXPECT_EQ(values, live->last(kWindow)) << rid;
    clipped = clipped || live->size() > kWindow;
  }
  // The window must actually cut something, or the bound proves nothing.
  EXPECT_TRUE(clipped);

  // A zero window copies no history at all.
  EXPECT_TRUE(fetch_snapshot(*w.master, universe, 0).histories.empty());
}

}  // namespace
}  // namespace remos::core
