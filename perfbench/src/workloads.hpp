// The benchmark's three workloads and the helpers they share.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/bridge_collector.hpp"
#include "core/collector.hpp"
#include "core/query_server.hpp"
#include "core/snmp_collector.hpp"
#include "net/flows.hpp"
#include "query_fleet.hpp"
#include "sim/engine.hpp"
#include "snmp/agent.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// latency_tail is this quantile. On monitor_churn 1-2% of queries take a
/// slow path several times longer than the rest, so the p99 sits on that
/// cliff and moves by about 20% from run to run while p90-p98 stay within
/// 5-9%; p95 also lands among lan_discovery's cold queries (1 in 15). The
/// p99 and the highest percentile with ten samples beyond it are recorded
/// alongside.
inline constexpr double kTailQuantile = 0.95;

void run_lan_discovery(const Options& opt, Record& rec);
void run_wan_serving(const Options& opt, Record& rec);
void run_monitor_churn(const Options& opt, Record& rec);

/// Seeded stream for one named input of one workload.
[[nodiscard]] std::mt19937_64 input_rng(std::uint64_t seed, const std::string& what);

/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Answer checks shared by the workloads.
struct TopologyCheck {
  bool all_hosts_present = true;
  bool connected = true;
};
[[nodiscard]] TopologyCheck check_topology(const remos::core::VirtualTopology& topo,
                                           const std::vector<remos::net::Ipv4Address>& hosts);
/// Full-precision rendering that ignores node order and edge orientation:
/// nodes sorted by name, edges by id with endpoints (and their utilization
/// directions) normalized.
[[nodiscard]] std::string canonical_render(const remos::core::VirtualTopology& topo);
/// No flow is offered more than its path's bottleneck capacity.
[[nodiscard]] bool flows_within_bottleneck(const std::vector<remos::core::FlowInfo>& flows);

/// Why a predict query on `snap` returns nothing, judged from the snapshot
/// through the same public helpers the server answers with; nullptr when
/// the snapshot holds everything a fit needs.
[[nodiscard]] const char* predict_failure_reason(const remos::core::QuerySnapshot& snap,
                                                 const remos::core::FlowRequest& request,
                                                 std::size_t min_history);

/// Everything the traced run's outside probes call into. Each probe times a
/// layer's public calls on the workload's own network and objects after the
/// measured phase; metrics the workload measured in place are kept.
struct ProbeTargets {
  remos::sim::Engine* engine = nullptr;
  remos::net::Network* net = nullptr;
  remos::net::FlowEngine* flows = nullptr;
  remos::snmp::AgentRegistry* agents = nullptr;
  std::vector<remos::net::Ipv4Address> switches;
  remos::core::BridgeCollector* bridge = nullptr;
  std::vector<remos::net::Ipv4Address> bridge_hosts;
  remos::core::SnmpCollector* collector = nullptr;
  std::vector<remos::net::Ipv4Address> collector_hosts;
  remos::core::Collector* master = nullptr;
  std::vector<remos::net::Ipv4Address> universe;
  remos::core::QueryServer* server = nullptr;
  std::vector<remos::fleet::Query> catalog;
  /// A measurement series for the streaming-predictor probe (empty: a
  /// seeded synthetic series of the same shape is used).
  std::vector<double> stream_series;
};
void run_layer_probes(const ProbeTargets& t, std::uint64_t seed, Record& rec);

/// Wall-clock cost of the work nested inside the measured phase's spans,
/// estimated from the registry's call counts and the probes' per-call
/// costs, and each layer's share of the traced busy time.
struct NestedWork {
  std::uint64_t snmp_requests = 0;
  double snmp_request_ns = 0.0;
  std::uint64_t poll_passes = 0;
  std::uint64_t serving_solves = 0;  // one per QueryServer computation
  std::uint64_t other_solves = 0;    // the rest of the registry's solves
  std::uint64_t rps_fits = 0;
  std::uint64_t rps_pushes = 0;
};
void report_layer_shares(std::int64_t from_ns, std::int64_t to_ns, const NestedWork& work,
                         Record& rec);

/// Wraps the flow engine's sync hook on the agent registry so every call is
/// timed (traced runs): the agents call it before each read.
class SyncTimer {
 public:
  SyncTimer(remos::snmp::AgentRegistry& agents, remos::net::FlowEngine& flows);
  [[nodiscard]] double mean_us() const {
    return calls_ ? ns_to_us(total_ns_) / static_cast<double>(calls_) : 0.0;
  }

 private:
  std::int64_t total_ns_ = 0;
  std::uint64_t calls_ = 0;
};

/// Collector decorator that records a span around every query, so a
/// compound call (QueryServer::refresh, Modeler queries) splits into its
/// collector fetch and the rest.
class TracedCollector final : public remos::core::Collector {
 public:
  TracedCollector(remos::core::Collector& inner, const char* span) : inner_(inner), span_(span) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::vector<remos::net::Ipv4Prefix> responsibility() const override {
    return inner_.responsibility();
  }
  remos::core::CollectorResponse query(const std::vector<remos::net::Ipv4Address>& nodes) override {
    ScopedSpan span(span_);
    return inner_.query(nodes);
  }
  [[nodiscard]] const remos::sim::MeasurementHistory* history(
      const std::string& resource_id) const override {
    return inner_.history(resource_id);
  }

 private:
  remos::core::Collector& inner_;
  const char* span_;
};

/// Registry counter value (0 when never registered).
[[nodiscard]] std::uint64_t counter(const std::string& name);

}  // namespace perfbench
