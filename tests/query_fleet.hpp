// Client-fleet harness for query serving at scale.
//
// Shared by the TSan stress suite (tests/test_query_scale.cpp), the golden
// transcript pin (tests/test_query_golden.cpp), the scaling bench
// (bench/micro_query_scale.cpp) and perfbench's WAN workloads:
//
//   * a deterministic mixed workload generator (mt19937_64 raw draws, so
//     the same seed produces the same queries on every platform),
//   * full-precision (%.17g) renderers for topology / flow / prediction
//     answers — the golden transcript format, and what the bit-identity
//     checks compare,
//   * the mutex oracle and baseline (answer_query with `locked`): one
//     harness-wide lock, an independent full-universe collector fetch, then
//     the answer from the same pure functions the server uses — the
//     pre-snapshot cost model, kept here rather than in the production
//     QueryServer,
//   * a fleet runner that drives all queries across a sim::ThreadPool and
//     reports throughput plus exact p50/p95/p99 latency.
//
// Lives in tests/ (not src/): wall-clock timing is a harness concern, and
// tests are exempt from the no-wallclock lint that governs src/.
#pragma once

#include <chrono>
#include <cstdio>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/maxmin.hpp"
#include "core/modeler.hpp"
#include "core/query_server.hpp"
#include "core/query_snapshot.hpp"
#include "core/types.hpp"
#include "sim/stats.hpp"
#include "sim/thread_pool.hpp"

namespace remos::fleet {

inline std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Full-precision, order-preserving rendering of a topology answer. Any
/// float that differs in one bit renders differently.
inline std::string render_topology(const core::VirtualTopology& topo) {
  std::string out = "topology nodes=" + std::to_string(topo.node_count()) +
                    " edges=" + std::to_string(topo.edge_count()) + "\n";
  for (const core::VNode& n : topo.nodes()) {
    out += "  node ";
    out += core::to_string(n.kind);
    out += " " + n.name + " " + n.addr.to_string() + "\n";
  }
  for (const core::VEdge& e : topo.edges()) {
    out += "  edge " + std::to_string(e.a) + "-" + std::to_string(e.b) +
           " cap=" + fmt_double(e.capacity_bps) + " ab=" + fmt_double(e.util_ab_bps) +
           " ba=" + fmt_double(e.util_ba_bps) + " lat=" + fmt_double(e.latency_s) +
           " stale=" + fmt_double(e.staleness_s) + " id=" + e.id + "\n";
  }
  return out;
}

inline std::string render_flow_infos(const std::vector<core::FlowInfo>& infos) {
  std::string out = "flows n=" + std::to_string(infos.size()) + "\n";
  for (const core::FlowInfo& f : infos) {
    out += "  flow avail=" + fmt_double(f.available_bps) +
           " bottleneck=" + fmt_double(f.bottleneck_capacity_bps) +
           " lat=" + fmt_double(f.latency_s) + " path=";
    for (const std::string& id : f.path_edge_ids) out += id + ",";
    out += "\n";
  }
  return out;
}

inline std::string render_prediction(const std::optional<core::FlowPrediction>& p) {
  if (!p) return "predict none\n";
  std::string out = "predict model=" + p->model_name + "\n";
  for (std::size_t i = 0; i < p->mean_bps.size(); ++i) {
    out += "  step mean=" + fmt_double(p->mean_bps[i]);
    out += " var=" + fmt_double(i < p->variance.size() ? p->variance[i] : 0.0);
    out += "\n";
  }
  return out;
}

/// One simulated client's query.
struct Query {
  enum class Kind { kTopology, kFlow, kPredict };
  Kind kind = Kind::kTopology;
  std::vector<net::Ipv4Address> nodes;  // topology queries
  core::FlowQuery flow;                 // flow queries
  core::FlowRequest request;            // predict queries
  std::size_t horizon = 30;             // predict queries
};

/// Workload shape facts the bench invariants pin against the server's own
/// counters (distinct keys mirror the QueryServer's coalescing keys).
struct WorkloadStats {
  std::size_t topology_queries = 0;
  std::size_t flow_queries = 0;
  std::size_t predict_queries = 0;
  /// Distinct coalescing keys among flow + predict queries: within one
  /// epoch the server computes exactly this many flow/predict answers.
  std::size_t distinct_keys = 0;
};

/// Deterministic mixed workload over `universe`: ~25% topology queries,
/// ~50% flow queries, ~25% predictions. Pair and demand choices come from
/// raw mt19937_64 draws (bit-exact across platforms); demands are drawn
/// from a small set so identical queries recur — the coalescing surface.
inline std::vector<Query> make_workload(const std::vector<net::Ipv4Address>& universe,
                                        std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  std::vector<Query> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    const std::size_t kind = pick(4);
    const std::size_t a = pick(universe.size());
    std::size_t b = pick(universe.size());
    if (b == a) b = (b + 1) % universe.size();
    if (kind == 0) {
      q.kind = Query::Kind::kTopology;
      q.nodes = {universe[a], universe[b]};
      if (pick(2) == 0) q.nodes.push_back(universe[pick(universe.size())]);
    } else if (kind <= 2) {
      q.kind = Query::Kind::kFlow;
      const std::size_t flows = 1 + pick(2);
      for (std::size_t f = 0; f < flows; ++f) {
        std::size_t s = f == 0 ? a : pick(universe.size());
        std::size_t d = f == 0 ? b : pick(universe.size());
        if (d == s) d = (d + 1) % universe.size();
        core::FlowRequest r;
        r.src = universe[s];
        r.dst = universe[d];
        r.demand_bps = static_cast<double>(1 + pick(8)) * 1.25e6;
        q.flow.flows.push_back(r);
      }
    } else {
      q.kind = Query::Kind::kPredict;
      q.request.src = universe[a];
      q.request.dst = universe[b];
      q.request.demand_bps = static_cast<double>(1 + pick(4)) * 2.5e6;
      q.horizon = 15 + 15 * pick(2);
    }
    out.push_back(std::move(q));
  }
  return out;
}

/// Coalescing-relevant shape of a workload. Keys mirror the QueryServer's
/// internal coalescing keys; the checker asserts the server's computation
/// counter equals `distinct_keys`, so any drift between the two keyings is
/// caught, not hidden.
inline WorkloadStats workload_stats(const std::vector<Query>& queries) {
  WorkloadStats stats;
  std::set<std::string> keys;
  for (const Query& q : queries) {
    switch (q.kind) {
      case Query::Kind::kTopology:
        ++stats.topology_queries;
        break;
      case Query::Kind::kFlow: {
        ++stats.flow_queries;
        std::string key = "flow:";
        for (const core::FlowRequest& f : q.flow.flows) {
          key += f.src.to_string() + ">" + f.dst.to_string() + "@" + fmt_double(f.demand_bps) + ";";
        }
        keys.insert(std::move(key));
        break;
      }
      case Query::Kind::kPredict: {
        ++stats.predict_queries;
        keys.insert("predict:" + q.request.src.to_string() + ">" + q.request.dst.to_string() +
                    "@" + fmt_double(q.request.demand_bps) + "#" + std::to_string(q.horizon));
        break;
      }
    }
  }
  stats.distinct_keys = keys.size();
  return stats;
}

/// The one global lock of the mutex oracle/baseline, shared by every
/// server the harness drives.
inline std::mutex& oracle_mutex() {
  static std::mutex mu;
  return mu;
}

/// Work the mutex oracle did. The server's own counters see none of it
/// (the oracle never goes through the server's read path), so callers that
/// account for a locked fleet read these instead. Updated under
/// oracle_mutex().
struct OracleWork {
  std::uint64_t queries = 0;
  /// Flow/predict answers computed: every one, since the oracle keeps no
  /// memos.
  std::uint64_t computations = 0;
};

/// Answer one query, rendered at full precision. `locked` = false: the
/// server's lock-free snapshot path. `locked` = true: the mutex oracle and
/// baseline — under oracle_mutex(), fetch an independent snapshot of the
/// server's universe (fetch_snapshot with the server's collector and
/// history window) and answer from it with the same pure functions the
/// server uses. That is the pre-snapshot cost model: one global lock and
/// one full-universe collector fetch per query. The oracle changes nothing
/// the server publishes (no epoch, no memo), so comparing its answer with
/// a lock-free one checks the published epoch and its memos against a
/// fresh computation, whichever of the two is evaluated first. Either way
/// the caller keeps the simulation quiescent while it compares answers.
/// `work`, when given, accumulates the oracle's accounting.
inline std::string answer_query(core::QueryServer& server, const Query& q, bool locked,
                                OracleWork* work = nullptr) {
  if (!locked) {
    switch (q.kind) {
      case Query::Kind::kTopology:
        return render_topology(server.topology_query(q.nodes));
      case Query::Kind::kFlow:
        return render_flow_infos(server.flow_query(q.flow));
      case Query::Kind::kPredict:
        return render_prediction(server.predict_flow(q.request, q.horizon));
    }
    return {};
  }
  std::lock_guard oracle(oracle_mutex());
  static core::MaxMinScratch scratch;  // guarded by oracle_mutex()
  const core::QueryServerConfig& cfg = server.config();
  const core::QuerySnapshot snap =
      core::fetch_snapshot(server.collector(), server.universe(), cfg.history_window);
  if (work != nullptr) {
    ++work->queries;
    if (q.kind != Query::Kind::kTopology) ++work->computations;
  }
  switch (q.kind) {
    case Query::Kind::kTopology: {
      core::VirtualTopology spanned = core::span_topology(snap.topo, q.nodes);
      return render_topology(cfg.simplify_topology ? core::Modeler::simplify(spanned) : spanned);
    }
    case Query::Kind::kFlow:
      return render_flow_infos(core::max_min_allocate(snap.topo, q.flow.flows, scratch).flows);
    case Query::Kind::kPredict: {
      const rps::ClientServerPredictor predictor(cfg.prediction_model);
      return render_prediction(core::answer_predict(
          snap, q.request, q.horizon == 0 ? cfg.prediction_horizon : q.horizon, predictor,
          cfg.prediction_model, cfg.min_history, cfg.prediction_cache, scratch));
    }
  }
  return {};
}

struct FleetResult {
  std::vector<std::string> answers;  // indexed like the query list
  double wall_s = 0.0;
  double throughput_qps = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  OracleWork oracle;  // all zeros for a lock-free fleet
};

/// Drive every query across the pool (each query = one simulated client)
/// and measure per-query latency plus fleet wall time. `locked` selects
/// the mutex oracle/baseline (answer_query), whose work is reported in
/// `oracle`; the caller must keep the simulation quiescent for the
/// duration either way (the locked path fetches from live collectors; the
/// comparison needs a frozen ground truth).
inline FleetResult run_fleet(core::QueryServer& server, const std::vector<Query>& queries,
                             sim::ThreadPool& pool, bool locked) {
  using clock = std::chrono::steady_clock;
  FleetResult result;
  result.answers.resize(queries.size());
  std::vector<double> latency(queries.size(), 0.0);
  const auto fleet_start = clock::now();
  pool.parallel_for(queries.size(), [&](std::size_t i) {
    const auto start = clock::now();
    result.answers[i] = answer_query(server, queries[i], locked, &result.oracle);
    latency[i] = std::chrono::duration<double>(clock::now() - start).count();
  });
  result.wall_s = std::chrono::duration<double>(clock::now() - fleet_start).count();
  result.throughput_qps =
      result.wall_s > 0.0 ? static_cast<double>(queries.size()) / result.wall_s : 0.0;
  result.p50_s = sim::exact_quantile(latency, 0.50);
  result.p95_s = sim::exact_quantile(latency, 0.95);
  result.p99_s = sim::exact_quantile(latency, 0.99);
  return result;
}

}  // namespace remos::fleet
