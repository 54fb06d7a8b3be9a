// Helpers shared by the workloads: answer checks, failure classification,
// the traced run's outside probes and the per-layer share estimate.
#include <algorithm>
#include <fstream>
#include <queue>
#include <string>

#include "apps/testbed.hpp"
#include "core/maxmin.hpp"
#include "core/modeler.hpp"
#include "core/query_snapshot.hpp"
#include "rps/predictor.hpp"
#include "sim/metrics.hpp"
#include "snmp/client.hpp"
#include "snmp/oids.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace remos;

std::mt19937_64 input_rng(std::uint64_t seed, const std::string& what) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(std::hash<std::string>{}(what))};
  return std::mt19937_64(seq);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::uint64_t counter(const std::string& name) {
  const auto all = sim::metrics().counters_snapshot();
  const auto it = all.find(name);
  return it == all.end() ? 0 : it->second;
}

// ---- answer checks ------------------------------------------------------------

TopologyCheck check_topology(const core::VirtualTopology& topo,
                             const std::vector<net::Ipv4Address>& hosts) {
  TopologyCheck out;
  std::map<net::Ipv4Address, core::VNodeIndex> index;
  for (std::size_t i = 0; i < topo.nodes().size(); ++i) {
    index.emplace(topo.nodes()[i].addr, static_cast<core::VNodeIndex>(i));
  }
  std::vector<core::VNodeIndex> wanted;
  for (const net::Ipv4Address& h : hosts) {
    const auto it = index.find(h);
    if (it == index.end()) {
      out.all_hosts_present = false;
    } else {
      wanted.push_back(it->second);
    }
  }
  if (wanted.empty()) return out;
  std::vector<std::vector<core::VNodeIndex>> adj(topo.node_count());
  for (const core::VEdge& e : topo.edges()) {
    adj[e.a].push_back(e.b);
    adj[e.b].push_back(e.a);
  }
  std::vector<bool> seen(topo.node_count(), false);
  std::queue<core::VNodeIndex> frontier;
  frontier.push(wanted.front());
  seen[wanted.front()] = true;
  while (!frontier.empty()) {
    const core::VNodeIndex v = frontier.front();
    frontier.pop();
    for (const core::VNodeIndex w : adj[v]) {
      if (!seen[w]) {
        seen[w] = true;
        frontier.push(w);
      }
    }
  }
  for (const core::VNodeIndex v : wanted) out.connected = out.connected && seen[v];
  return out;
}

std::string canonical_render(const core::VirtualTopology& topo) {
  std::vector<std::string> nodes, edges;
  for (const core::VNode& n : topo.nodes()) {
    nodes.push_back(std::string(core::to_string(n.kind)) + " " + n.name + " " + n.addr.to_string());
  }
  for (const core::VEdge& e : topo.edges()) {
    std::string a = topo.nodes()[e.a].name, b = topo.nodes()[e.b].name;
    double ab = e.util_ab_bps, ba = e.util_ba_bps;
    if (b < a) {
      std::swap(a, b);
      std::swap(ab, ba);
    }
    edges.push_back(e.id + " " + a + "-" + b + " cap=" + fleet::fmt_double(e.capacity_bps) +
                    " ab=" + fleet::fmt_double(ab) + " ba=" + fleet::fmt_double(ba) +
                    " lat=" + fleet::fmt_double(e.latency_s) +
                    " stale=" + fleet::fmt_double(e.staleness_s));
  }
  std::sort(nodes.begin(), nodes.end());
  std::sort(edges.begin(), edges.end());
  std::string out;
  for (const auto& n : nodes) out += n + "\n";
  for (const auto& e : edges) out += e + "\n";
  return out;
}

bool flows_within_bottleneck(const std::vector<core::FlowInfo>& flows) {
  for (const core::FlowInfo& f : flows) {
    if (f.routable() && !(f.available_bps <= f.bottleneck_capacity_bps)) return false;
  }
  return true;
}

const char* predict_failure_reason(const core::QuerySnapshot& snap,
                                   const core::FlowRequest& request, std::size_t min_history) {
  core::MaxMinScratch scratch;
  const core::FlowInfo info = core::single_flow_info(snap.topo, request, scratch);
  if (!info.routable()) return kUnroutable;
  const core::VEdge* bottleneck = core::bottleneck_edge(snap.topo, info);
  if (bottleneck == nullptr) return kUnroutable;
  const std::vector<double>* hist = core::choose_history(
      snap.history(bottleneck->id), snap.history(bottleneck->id + ":ba"));
  if (hist == nullptr) return kNoHistory;
  if (hist->size() < min_history) return kShortHistory;
  return nullptr;
}

// ---- SyncTimer ----------------------------------------------------------------

SyncTimer::SyncTimer(snmp::AgentRegistry& agents, net::FlowEngine& flows) {
  agents.set_before_read([this, &flows] {
    const std::int64_t t0 = now_ns();
    flows.sync();
    total_ns_ += now_ns() - t0;
    ++calls_;
  });
}

// ---- outside probes -------------------------------------------------------------

namespace {

template <class Fn>
double time_ms(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return ns_to_ms(now_ns() - t0);
}

template <class Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(time_ms(fn));
  return median(v);
}

/// A seeded AR(1) series around a mean load, for fit and push probes on
/// workloads whose network keeps no measurement history.
std::vector<double> synthetic_series(std::uint64_t seed, std::size_t n) {
  auto rng = input_rng(seed, "synthetic-series");
  std::normal_distribution<double> noise(0.0, 1e6);
  std::vector<double> out;
  double x = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x = 0.8 * x + noise(rng);
    out.push_back(30e6 + x);
  }
  return out;
}

}  // namespace

void run_layer_probes(const ProbeTargets& t, std::uint64_t seed, Record& rec) {
  const auto set = [&rec](const std::string& name, double value, const std::string& unit) {
    if (!rec.per_layer.contains(name)) rec.layer(name, value, unit);
  };
  auto rng = input_rng(seed, "probes");

  // snmp: agent construction, GETNEXT over every switch FDB, poll-style GETs.
  set("snmp.agents.build_ms", median_ms(3, [&] {
        snmp::AgentRegistry fresh(*t.net, sim::Rng(seed).fork("probe-agents"));
      }),
      "ms");
  {
    snmp::SnmpClient client(*t.agents);
    const std::int64_t t0 = now_ns();
    for (const net::Ipv4Address sw : t.switches) {
      (void)client.walk(sw, "public", snmp::oids::kDot1dTpFdbEntry);
    }
    set("snmp.client.getnext_ns",
        static_cast<double>(now_ns() - t0) / static_cast<double>(client.request_count()), "ns");
  }
  {
    snmp::SnmpClient client(*t.agents);
    const std::int64_t t0 = now_ns();
    for (int rep = 0; rep < 8; ++rep) {
      for (const net::Ipv4Address sw : t.switches) {
        for (std::uint32_t port = 1; port <= 4; ++port) {
          (void)client.get(sw, "public", snmp::oids::kIfInOctets.child(port));
          (void)client.get(sw, "public", snmp::oids::kIfOutOctets.child(port));
        }
      }
    }
    set("snmp.client.get_ns",
        static_cast<double>(now_ns() - t0) / static_cast<double>(client.request_count()), "ns");
  }

  // core collection: bridge startup and l2_path, SNMP collector poll pass and
  // cold/warm queries, a full-universe master fetch.
  set("core.bridge_collector.startup_ms", median_ms(3, [&] {
        core::BridgeCollectorConfig cfg;
        cfg.switches = t.switches;
        cfg.arp = apps::make_arp(*t.net);
        cfg.location_check_interval_s = 0.0;
        core::BridgeCollector fresh(*t.engine, *t.agents, std::move(cfg));
        (void)fresh.startup();
      }),
      "ms");
  {
    std::uniform_int_distribution<std::size_t> pick(0, t.bridge_hosts.size() - 1);
    std::vector<std::pair<net::Ipv4Address, net::Ipv4Address>> pairs;
    for (int i = 0; i < 2000; ++i) {
      pairs.emplace_back(t.bridge_hosts[pick(rng)], t.bridge_hosts[pick(rng)]);
    }
    std::size_t found = 0;
    const double ms = time_ms([&] {
      for (const auto& [a, b] : pairs) found += t.bridge->l2_path(a, b).has_value() ? 1 : 0;
    });
    set("core.bridge_collector.l2_path_us", ms * 1e3 / static_cast<double>(pairs.size()), "us");
    rec.check("probe: l2_path answers every known host pair", found == pairs.size());
  }
  set("core.snmp_collector.poll_pass_ms", median_ms(3, [&] { t.collector->poll_now(); }), "ms");
  set("core.master_collector.query_ms",
      median_ms(3, [&] { (void)t.master->query(t.universe); }), "ms");
  if (!rec.per_layer.contains("core.snmp_collector.query_cold_ms")) {
    t.collector->clear_caches();
    set("core.snmp_collector.query_cold_ms",
        time_ms([&] { (void)t.collector->query(t.collector_hosts); }), "ms");
    set("core.snmp_collector.query_warm_ms",
        median_ms(3, [&] { (void)t.collector->query(t.collector_hosts); }), "ms");
  }

  // core serving: refresh, answers by kind, the Modeler's flow query.
  if (!rec.per_layer.contains("core.query_server.refresh_ms")) {
    std::vector<double> refresh;
    for (int i = 0; i < 5; ++i) refresh.push_back(time_ms([&] { (void)t.server->refresh(); }));
    set("core.query_server.refresh_ms", median(refresh), "ms");
    set("core.query_server.refresh_max_ms", *std::max_element(refresh.begin(), refresh.end()),
        "ms");
  }
  if (!rec.per_layer.contains("core.query_server.topology_us")) {
    const std::uint64_t hits0 = t.server->coalesce_hits();
    const std::uint64_t rejected0 = t.server->predict_rejected();
    std::vector<double> topo_us, flow_us, predict_us;
    std::size_t keyed = 0;
    for (const fleet::Query& q : t.catalog) {
      const std::int64_t t0 = now_ns();
      (void)fleet::answer_query(*t.server, q, false);
      const double us = ns_to_us(now_ns() - t0);
      if (q.kind == fleet::Query::Kind::kTopology) {
        topo_us.push_back(us);
      } else {
        ++keyed;
        (q.kind == fleet::Query::Kind::kFlow ? flow_us : predict_us).push_back(us);
      }
    }
    set("core.query_server.topology_us", median(topo_us), "us");
    set("core.query_server.flow_us", median(flow_us), "us");
    set("core.query_server.predict_us", median(predict_us), "us");
    set("core.query_server.coalesce_hit_ratio",
        keyed ? static_cast<double>(t.server->coalesce_hits() - hits0) / static_cast<double>(keyed)
              : 0.0,
        "ratio");
    set("core.query_server.predict_rejected",
        static_cast<double>(t.server->predict_rejected() - rejected0), "count");
  }
  const core::QuerySnapshotPtr snap = t.server->snapshot();
  {
    core::Modeler modeler(*t.master);
    core::MaxMinScratch scratch;
    std::vector<double> modeler_us, allocate_us;
    std::size_t over_bottleneck = 0;
    for (const fleet::Query& q : t.catalog) {
      if (q.kind != fleet::Query::Kind::kFlow) continue;
      if (modeler_us.size() < 50) {
        const std::int64_t t0 = now_ns();
        (void)modeler.flow_query(q.flow);
        modeler_us.push_back(ns_to_us(now_ns() - t0));
      }
      const std::int64_t t0 = now_ns();
      const core::MaxMinResult r = core::max_min_allocate(snap->topo, q.flow.flows, scratch);
      allocate_us.push_back(ns_to_us(now_ns() - t0));
      over_bottleneck += flows_within_bottleneck(r.flows) ? 0 : 1;
    }
    rec.check("probe: max-min allocations stay within bottleneck capacity", over_bottleneck == 0);
    set("core.modeler.flow_query_us", median(modeler_us), "us");
    set("core.maxmin.allocate_us", median(allocate_us), "us");
  }

  // rps: client-server fits on the histories predict queries select, and
  // streaming pushes.
  {
    const rps::ModelSpec spec = rps::ModelSpec::ar(16);
    const rps::ClientServerPredictor predictor(spec);
    std::vector<std::vector<double>> series;
    core::MaxMinScratch scratch;
    for (const fleet::Query& q : t.catalog) {
      if (q.kind != fleet::Query::Kind::kPredict || series.size() >= 50) continue;
      const core::FlowInfo info = core::single_flow_info(snap->topo, q.request, scratch);
      const core::VEdge* b = info.routable() ? core::bottleneck_edge(snap->topo, info) : nullptr;
      if (b == nullptr) continue;
      const std::vector<double>* h =
          core::choose_history(snap->history(b->id), snap->history(b->id + ":ba"));
      if (h != nullptr && h->size() >= 64) series.push_back(*h);
    }
    if (series.empty()) series.push_back(synthetic_series(seed, 1024));
    std::vector<double> fit_us;
    for (int rep = 0; rep < 3; ++rep) {
      for (const auto& s : series) {
        const std::int64_t t0 = now_ns();
        (void)predictor.predict(rps::ClientServerPredictor::Request{s, 30, spec});
        fit_us.push_back(ns_to_us(now_ns() - t0));
      }
    }
    set("rps.client_server.predict_us", median(fit_us), "us");

    std::vector<double> stream =
        t.stream_series.size() >= 256 ? t.stream_series : synthetic_series(seed + 1, 1200);
    rps::StreamingPredictor sp(spec);
    const std::size_t prime = stream.size() / 2;
    sp.prime(std::span<const double>(stream.data(), prime));
    const std::int64_t t0 = now_ns();
    for (std::size_t i = prime; i < stream.size(); ++i) (void)sp.push(stream[i]);
    set("rps.streaming.push_us",
        ns_to_us(now_ns() - t0) / static_cast<double>(stream.size() - prime), "us");
  }

  // sim / net: event throughput and the flow engine's sync.
  if (!rec.per_layer.contains("sim.engine.events_per_s")) {
    const std::int64_t t0 = now_ns();
    const std::size_t events = t.engine->advance(30.0);
    set("sim.engine.events_per_s",
        static_cast<double>(events) / std::max(1e-9, ns_to_s(now_ns() - t0)), "1/s");
  }
  if (!rec.per_layer.contains("net.flows.sync_us")) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < 1000; ++i) t.flows->sync();
    set("net.flows.sync_us", ns_to_us(now_ns() - t0) / 1000.0, "us");
  }
}

// ---- layer shares -----------------------------------------------------------------

void report_layer_shares(std::int64_t from_ns, std::int64_t to_ns, const NestedWork& work,
                         Record& rec) {
  const auto totals = Tracer::instance().totals(from_ns, to_ns);
  double collection = 0.0, serving = 0.0, refresh = 0.0, simnet = 0.0, busy = 0.0;
  for (const auto& [name, tot] : totals) {
    busy += tot.root_ms;
    if (name == "core.query_server.refresh") {
      refresh += tot.self_ms;
    } else if (name.rfind("core.query_server", 0) == 0 || name.rfind("core.modeler", 0) == 0) {
      serving += tot.self_ms;
    } else if (name.rfind("sim.", 0) == 0 || name.rfind("net.", 0) == 0) {
      simnet += tot.self_ms;
    } else if (name.rfind("core.", 0) == 0) {
      collection += tot.self_ms;
    }
  }
  const auto per_layer = [&rec](const std::string& name) {
    const auto it = rec.per_layer.find(name);
    return it == rec.per_layer.end() ? 0.0 : it->second.value;
  };
  // Work nested inside other layers' spans, moved to the layer doing it:
  // poll passes run inside Engine::advance; SNMP requests inside the
  // collectors; the server's max-min solves and fits inside its answers;
  // the sensors' Modeler solves and streaming pushes inside advance.
  const auto take = [](double& from, double amount) {
    const double moved = std::min(from, amount);
    from -= moved;
    return moved;
  };
  collection += take(simnet, static_cast<double>(work.poll_passes) *
                                 per_layer("core.snmp_collector.poll_pass_ms"));
  const double snmp =
      take(collection, static_cast<double>(work.snmp_requests) * work.snmp_request_ns * 1e-6);
  const double allocate_ms = per_layer("core.maxmin.allocate_us") * 1e-3;
  double maxmin = take(serving, static_cast<double>(work.serving_solves) * allocate_ms);
  maxmin += take(simnet, static_cast<double>(work.other_solves) * allocate_ms);
  double rps = take(serving, static_cast<double>(work.rps_fits) *
                                 per_layer("rps.client_server.predict_us") * 1e-3);
  rps += take(simnet, static_cast<double>(work.rps_pushes) * per_layer("rps.streaming.push_us") * 1e-3);
  const double denom = std::max(busy, 1e-9);
  rec.layer("snmp.share_pct", 100.0 * snmp / denom, "%");
  rec.layer("core.collection.share_pct", 100.0 * collection / denom, "%");
  rec.layer("core.serving.share_pct", 100.0 * serving / denom, "%");
  rec.layer("core.refresh.share_pct", 100.0 * refresh / denom, "%");
  rec.layer("core.maxmin.share_pct", 100.0 * maxmin / denom, "%");
  rec.layer("rps.share_pct", 100.0 * rps / denom, "%");
  rec.layer("sim_net.share_pct", 100.0 * simnet / denom, "%");
  rec.counts["trace.busy_ms"] = busy;
}

}  // namespace perfbench
