// lan_discovery: the Fig 3 campus LAN, queried in a closed loop by one
// client. Collectors run only on the simulation thread, so the client is
// that thread. Each cycle builds a fresh Bridge + SNMP collector stack on
// the same agents and takes it from cold through part-warm to warm: the
// full LAN first (cold, bridge startup included), then seeded random host
// subsets, then the full LAN again (warm), which must render exactly as the
// cold answer did.
#include <algorithm>
#include <memory>

#include "apps/testbed.hpp"
#include "core/master_collector.hpp"
#include "sim/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace remos;

namespace {

constexpr std::size_t kHosts = 1280;
constexpr std::size_t kSwitches = kHosts / 28;  // Fig 3: ~28 hosts per switch
constexpr std::size_t kSubsetsPerCycle = 12;
/// Cycle k replays query plan k % kPlanPeriod, so every later cycle must
/// reproduce the counts of its first occurrence exactly.
constexpr std::size_t kPlanPeriod = 4;

apps::LanTestbed::Params lan_params() {
  apps::LanTestbed::Params p;
  p.hosts = kHosts;
  p.switches = kSwitches;
  p.location_check_interval_s = 0.0;
  return p;
}

/// Replace the testbed's collector stack with a fresh, cold one on the same
/// agents, configured exactly as LanTestbed configures its own.
void rebuild_stack(apps::LanTestbed& lan) {
  lan.collector.reset();
  lan.bridge.reset();
  core::BridgeCollectorConfig bcfg;
  for (net::NodeId sw : lan.switches) bcfg.switches.push_back(lan.addr(sw));
  bcfg.arp = apps::make_arp(lan.net);
  bcfg.location_check_interval_s = lan.params.location_check_interval_s;
  lan.bridge = std::make_unique<core::BridgeCollector>(lan.engine, *lan.agents, std::move(bcfg));

  const net::SegmentId segment = lan.net.segment_of(lan.hosts.front(), 1);
  core::SnmpCollectorConfig scfg;
  scfg.name = "campus-snmp";
  scfg.poll_interval_s = lan.params.poll_interval_s;
  scfg.domain = {lan.net.segment(segment).prefix};
  scfg.subnets.push_back(core::SnmpCollectorConfig::SubnetInfo{
      lan.net.segment(segment).prefix, lan.addr(lan.router), lan.bridge.get(), false, 0.0});
  lan.collector = std::make_unique<core::SnmpCollector>(lan.engine, *lan.agents, std::move(scfg));
}

std::uint64_t stack_requests(const apps::LanTestbed& lan) {
  return lan.collector->snmp_request_count() + lan.bridge->client().request_count();
}

/// Host subsets of one cycle: every size 2, 4, ..., 64 twice, in seeded
/// order, each a seeded sample of hosts without repetition. The sizes are
/// fixed so the seed moves which hosts are asked about, not how much work
/// a cycle is.
std::vector<std::vector<net::Ipv4Address>> make_plan(const std::vector<net::Ipv4Address>& hosts,
                                                     std::mt19937_64& rng) {
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < kSubsetsPerCycle; ++i) sizes.push_back(std::size_t{2} << (i % 6));
  std::shuffle(sizes.begin(), sizes.end(), rng);
  std::vector<std::vector<net::Ipv4Address>> plan;
  for (const std::size_t size : sizes) {
    std::vector<net::Ipv4Address> pool = hosts;
    std::shuffle(pool.begin(), pool.end(), rng);
    pool.resize(size);
    plan.push_back(std::move(pool));
  }
  return plan;
}

/// Counts one cycle must reproduce whenever its plan comes round again.
struct CycleCounts {
  std::uint64_t requests = 0;
  std::uint64_t path_hits = 0;
  std::uint64_t path_misses = 0;
  double cost_s = 0.0;
  bool operator==(const CycleCounts&) const = default;
};

}  // namespace

void run_lan_discovery(const Options& opt, Record& rec) {
  const apps::LanTestbed::Params params = lan_params();

  // ---- set-up, repeated; the last testbed is the one measured ----
  std::unique_ptr<apps::LanTestbed> lan;
  std::vector<double> setup_s, build_ms, warm_ms;
  std::vector<CycleCounts> setup_counts;
  std::vector<net::Ipv4Address> all;
  for (int i = 0; i < kSetups; ++i) {
    rotate_cpu(static_cast<std::size_t>(i));
    lan.reset();
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span("apps.testbed.build");
      lan = std::make_unique<apps::LanTestbed>(params);
    }
    const std::int64_t t1 = now_ns();
    all = lan->host_addrs(kHosts);
    // Warm-up: one cold full-LAN query on the testbed's own stack, so every
    // agent has served requests before the measured cycles start.
    core::CollectorResponse warm;
    {
      ScopedSpan span("apps.testbed.warm_up");
      warm = lan->collector->query(all);
    }
    const std::int64_t t2 = now_ns();
    setup_s.push_back(ns_to_s(t2 - t0));
    build_ms.push_back(ns_to_ms(t1 - t0));
    warm_ms.push_back(ns_to_ms(t2 - t1));
    setup_counts.push_back(CycleCounts{stack_requests(*lan), 0, 0, warm.cost_s});
  }
  rec.check("lan: set-up counts identical across repeated set-ups",
            std::all_of(setup_counts.begin(), setup_counts.end(),
                        [&](const CycleCounts& c) { return c == setup_counts.front(); }));
  rec.pins["setup.snmp_requests"] = static_cast<double>(setup_counts.front().requests);
  rec.pins["setup.collector_virtual_s"] = setup_counts.front().cost_s;

  std::unique_ptr<SyncTimer> sync_timer;
  if (opt.trace) sync_timer = std::make_unique<SyncTimer>(*lan->agents, *lan->flows);

  auto plan_rng = input_rng(opt.seed, "lan-plans");
  std::vector<std::vector<std::vector<net::Ipv4Address>>> plans;
  for (std::size_t i = 0; i < kPlanPeriod; ++i) plans.push_back(make_plan(all, plan_rng));

  const double host_bps = params.host_link_bps;
  const auto capacities_match = [&](const core::VirtualTopology& topo) {
    for (const core::VEdge& e : topo.edges()) {
      const bool host_edge = topo.nodes()[e.a].kind == core::VNodeKind::kHost ||
                             topo.nodes()[e.b].kind == core::VNodeKind::kHost;
      const bool ok = host_edge ? e.capacity_bps == host_bps
                                : (e.capacity_bps == params.trunk_bps ||
                                   e.capacity_bps == params.uplink_bps);
      if (!ok) return false;
    }
    return true;
  };

  // ---- measured phase ----
  std::vector<double> latency_us, cost_s, gap_us, cycle_qps, cycle_sim_rate;
  std::vector<CycleCounts> cycle_counts;
  std::size_t missing_hosts = 0, disconnected = 0, bad_capacity = 0;
  std::size_t rerender_mismatch = 0, content_mismatch = 0, order_drift = 0;
  std::int64_t busy_ns = 0;
  const std::uint64_t requests0 = counter("snmp.client.requests_total");
  const std::uint64_t hits0 = counter("core.snmp_collector.path_cache_hits_total");
  const std::uint64_t misses0 = counter("core.snmp_collector.path_cache_misses_total");
  const std::uint64_t iterations0 = counter("core.maxmin.iterations_total");
  const std::uint64_t solves0 = counter("core.maxmin.solves_total");
  const std::uint64_t polls0 = counter("core.snmp_collector.poll_passes_total");
  std::uint64_t query_id = 0;
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::int64_t last_end = 0;

  const auto answered = [&](const core::CollectorResponse& resp,
                            const std::vector<net::Ipv4Address>& hosts, std::int64_t t0,
                            std::int64_t t1, double extra_cost_s) {
    if (last_end != 0) gap_us.push_back(ns_to_us(t0 - last_end));
    last_end = t1;
    latency_us.push_back(ns_to_us(t1 - t0));
    cost_s.push_back(resp.cost_s + extra_cost_s);
    busy_ns += t1 - t0;
    ++rec.attempted;
    const TopologyCheck c = check_topology(resp.topology, hosts);
    missing_hosts += c.all_hosts_present ? 0 : 1;
    disconnected += c.connected ? 0 : 1;
    bad_capacity += capacities_match(resp.topology) ? 0 : 1;
    if (!resp.complete || !c.all_hosts_present) rec.fail(kIncomplete);
    return resp.cost_s + extra_cost_s;
  };
  const auto full_lan = [&](const char* span) {
    const std::uint64_t id = ++query_id;
    const std::int64_t t0 = now_ns();
    core::CollectorResponse resp;
    {
      ScopedSpan q("lan.query", id);
      ScopedSpan s(span, id);
      resp = lan->collector->query(all);
    }
    return std::make_pair(resp, t0);
  };

  std::size_t cycle = 0;
  while (cycle < kPlanPeriod || now_ns() < deadline) {
    rotate_cpu(cycle);
    const auto& plan = plans[cycle % kPlanPeriod];
    const std::uint64_t cycle_hits0 = counter("core.snmp_collector.path_cache_hits_total");
    const std::uint64_t cycle_misses0 = counter("core.snmp_collector.path_cache_misses_total");
    double cycle_cost_s = 0.0;
    const std::int64_t cycle_busy0 = busy_ns;
    const std::size_t cycle_queries0 = latency_us.size();
    {
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span("core.collection.build_stack");
        rebuild_stack(*lan);
      }
      const std::int64_t t1 = now_ns();
      busy_ns += t1 - t0;
      last_end = t1;
    }

    // Cold: the client's first query pays the bridge startup, split out
    // as its own call so the trace can attribute it.
    std::string cold_render, cold_content;
    {
      const std::uint64_t id = ++query_id;
      const std::int64_t t0 = now_ns();
      double startup_cost_s = 0.0;
      core::CollectorResponse resp;
      {
        ScopedSpan q("lan.query", id);
        {
          ScopedSpan s("core.bridge_collector.startup", id);
          startup_cost_s = lan->bridge->startup();
        }
        ScopedSpan s("core.snmp_collector.query_cold", id);
        resp = lan->collector->query(all);
      }
      cycle_cost_s += answered(resp, all, t0, now_ns(), startup_cost_s);
      cold_render = fleet::render_topology(resp.topology);
      cold_content = canonical_render(resp.topology);
    }
    {
      const auto [resp, t0] = full_lan("core.snmp_collector.query_warm");
      cycle_cost_s += answered(resp, all, t0, now_ns(), 0.0);
      rerender_mismatch += fleet::render_topology(resp.topology) == cold_render ? 0 : 1;
    }
    for (const auto& hosts : plan) {
      const std::uint64_t id = ++query_id;
      const std::int64_t t0 = now_ns();
      core::CollectorResponse resp;
      {
        ScopedSpan q("lan.query", id);
        ScopedSpan s("core.snmp_collector.query_warm", id);
        resp = lan->collector->query(hosts);
      }
      cycle_cost_s += answered(resp, hosts, t0, now_ns(), 0.0);
    }
    {
      // After the subsets re-discovered parts of the LAN, the full answer
      // must still carry the same content; its node order and edge
      // orientation may differ, which is counted, not failed.
      const auto [resp, t0] = full_lan("core.snmp_collector.query_warm");
      cycle_cost_s += answered(resp, all, t0, now_ns(), 0.0);
      content_mismatch += canonical_render(resp.topology) == cold_content ? 0 : 1;
      order_drift += fleet::render_topology(resp.topology) == cold_render ? 0 : 1;
    }
    cycle_counts.push_back(
        CycleCounts{stack_requests(*lan),
                    counter("core.snmp_collector.path_cache_hits_total") - cycle_hits0,
                    counter("core.snmp_collector.path_cache_misses_total") - cycle_misses0,
                    cycle_cost_s});
    const double cycle_busy_s = ns_to_s(busy_ns - cycle_busy0);
    cycle_qps.push_back(static_cast<double>(latency_us.size() - cycle_queries0) / cycle_busy_s);
    cycle_sim_rate.push_back(cycle_cost_s / cycle_busy_s);
    ++cycle;
  }
  const std::int64_t end = now_ns();

  // ---- checks ----
  rec.check("lan: every queried host appears in the answer", missing_hosts == 0);
  rec.check("lan: every answer is connected", disconnected == 0);
  rec.check("lan: edge capacities equal the testbed's link capacities", bad_capacity == 0);
  rec.check("lan: warm full-LAN re-answer renders identically to the cold answer",
            rerender_mismatch == 0);
  rec.check("lan: full-LAN answer after the subsets carries the cold answer's content",
            content_mismatch == 0);
  rec.counts["full_lan_order_drift"] = static_cast<double>(order_drift);
  rec.meta["full_lan_order_drift"] =
      "cycles whose final full-LAN answer lists nodes or orients edges differently from the "
      "cold answer (same content): " + std::to_string(order_drift) + " of " +
      std::to_string(cycle);
  bool replay_identical = true;
  for (std::size_t k = kPlanPeriod; k < cycle_counts.size(); ++k) {
    replay_identical = replay_identical && cycle_counts[k] == cycle_counts[k % kPlanPeriod];
  }
  rec.check("lan: a replayed query plan reproduces its SNMP requests, cache hits and cost",
            replay_identical);

  // ---- counts the seed fixes: the first kPlanPeriod cycles ----
  CycleCounts pinned;
  for (std::size_t k = 0; k < kPlanPeriod; ++k) {
    pinned.requests += cycle_counts[k].requests;
    pinned.path_hits += cycle_counts[k].path_hits;
    pinned.path_misses += cycle_counts[k].path_misses;
    pinned.cost_s += cycle_counts[k].cost_s;
  }
  const std::size_t per_cycle = kSubsetsPerCycle + 3;
  const std::vector<double> pinned_costs(cost_s.begin(),
                                         cost_s.begin() + static_cast<std::ptrdiff_t>(
                                                              kPlanPeriod * per_cycle));
  const double collector_virtual_s = median(pinned_costs);
  rec.pins["cycles.snmp_requests"] = static_cast<double>(pinned.requests);
  rec.pins["cycles.path_cache_hits"] = static_cast<double>(pinned.path_hits);
  rec.pins["cycles.path_cache_misses"] = static_cast<double>(pinned.path_misses);
  rec.pins["cycles.virtual_s"] = pinned.cost_s;
  rec.pins["collector_virtual_s"] = collector_virtual_s;
  rec.pins["maxmin_iterations"] =
      static_cast<double>(counter("core.maxmin.iterations_total") - iterations0);

  // ---- end-to-end ----
  rec.e2e("setup_s", median(setup_s), "s");
  rec.e2e("latency_p50", median(latency_us), "us");
  rec.e2e("latency_tail", quantile(latency_us, kTailQuantile), "us");
  // Rates are medians over cycles (every cycle asks the same amount), so a
  // short disturbance on the machine moves one cycle, not the result.
  rec.e2e("queries_per_s", median(cycle_qps), "1/s");
  rec.e2e("sim_s_per_wall_s", median(cycle_sim_rate), "ratio");
  rec.e2e("collector_virtual_s", collector_virtual_s, "s");
  rec.meta["loop"] = "closed, 1 client thread (the simulation thread)";
  rec.meta["threads"] = "1";
  rec.meta["offered_rate"] = "closed loop";
  rec.meta["testbed"] = std::to_string(kHosts) + " hosts, " + std::to_string(kSwitches) +
                        " switches";
  rec.meta["cycles"] = std::to_string(cycle);
  const Tail whole = tail_of(latency_us);
  rec.meta["latency_tail"] = "p95 of " + std::to_string(latency_us.size()) +
                             " queries (cold queries are 1 in 15)";
  rec.meta["latency_p99_us"] = std::to_string(quantile(latency_us, 0.99));
  rec.meta["latency_tail_whole_run"] = "p" + std::to_string(whole.percentile) + " of " +
                                       std::to_string(whole.samples) + " = " +
                                       std::to_string(whole.value) + " us";
  rec.meta["queries_per_s"] =
      "answered queries per wall second a cycle spends building its stack and querying, "
      "median over cycles";
  rec.meta["sim_s_per_wall_s"] =
      "modeled collector seconds answered per such wall second, median over cycles";
  rec.counts["measured_wall_s"] = ns_to_s(end - start);
  rec.counts["snmp_requests"] =
      static_cast<double>(counter("snmp.client.requests_total") - requests0);

  if (!opt.trace) return;

  // ---- traced run: per-layer metrics ----
  const std::uint64_t requests = counter("snmp.client.requests_total") - requests0;
  const std::uint64_t hits = counter("core.snmp_collector.path_cache_hits_total") - hits0;
  const std::uint64_t misses = counter("core.snmp_collector.path_cache_misses_total") - misses0;
  const std::uint64_t solves = counter("core.maxmin.solves_total") - solves0;
  const std::uint64_t polls = counter("core.snmp_collector.poll_passes_total") - polls0;
  Tracer& tracer = Tracer::instance();
  rec.layer("apps.testbed.build_ms", median(build_ms), "ms");
  rec.layer("apps.testbed.warm_up_ms", median(warm_ms), "ms");
  rec.layer("snmp.client.requests_per_query",
            static_cast<double>(requests) / static_cast<double>(latency_us.size()), "count");
  rec.layer("core.bridge_collector.startup_ms",
            median(tracer.durations_us("core.bridge_collector.startup", start, end)) * 1e-3, "ms");
  rec.layer("core.snmp_collector.query_cold_ms",
            median(tracer.durations_us("core.snmp_collector.query_cold", start, end)) * 1e-3, "ms");
  rec.layer("core.snmp_collector.query_warm_ms",
            median(tracer.durations_us("core.snmp_collector.query_warm", start, end)) * 1e-3, "ms");
  rec.layer("core.snmp_collector.path_cache_hit_ratio",
            hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
            "ratio");
  rec.layer("core.benchmark_collector.probes", 0.0, "count");
  rec.layer("core.maxmin.iterations",
            static_cast<double>(counter("core.maxmin.iterations_total") - iterations0), "count");
  rec.layer("core.query_server.wait_us", median(gap_us), "us");
  rec.layer("bench.generator_lag_us", median(gap_us), "us");
  rec.layer("net.flows.sync_us", sync_timer->mean_us(), "us");
  rec.layer("snmp.client.requests", static_cast<double>(requests), "count");
  rec.layer("core.snmp_collector.path_cache_hits", static_cast<double>(hits), "count");
  rec.layer("core.snmp_collector.path_cache_misses", static_cast<double>(misses), "count");
  rec.layer("core.query_server.epochs", 0.0, "count");
  rec.layer("core.query_server.computations", 0.0, "count");

  // Outside probes on this LAN: a Master Collector and a QueryServer over
  // the campus collector, for the serving layers the workload bypasses.
  auto probe_rng = input_rng(opt.seed, "lan-probe-hosts");
  std::vector<net::Ipv4Address> universe = all;
  std::shuffle(universe.begin(), universe.end(), probe_rng);
  universe.resize(64);
  core::MasterCollector master(core::MasterCollectorConfig{"master", 0.002, true});
  master.add_site(core::MasterCollector::Site{"campus", lan->collector.get(), lan->addr(lan->router)});
  core::QueryServer server(master, universe);
  ProbeTargets t;
  t.engine = &lan->engine;
  t.net = &lan->net;
  t.flows = lan->flows.get();
  t.agents = lan->agents.get();
  for (net::NodeId sw : lan->switches) t.switches.push_back(lan->addr(sw));
  t.bridge = lan->bridge.get();
  t.bridge_hosts = all;
  t.collector = lan->collector.get();
  t.collector_hosts = universe;
  t.master = &master;
  t.universe = universe;
  t.server = &server;
  t.catalog = fleet::make_workload(universe, 300, input_rng(opt.seed, "lan-probe-catalog")());
  run_layer_probes(t, opt.seed, rec);

  NestedWork work;
  work.snmp_requests = requests;
  work.snmp_request_ns = rec.per_layer["snmp.client.getnext_ns"].value;
  work.poll_passes = polls;
  work.other_solves = solves;
  report_layer_shares(start, end, work, rec);
}

}  // namespace perfbench
