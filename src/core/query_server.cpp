#include "core/query_server.hpp"

#include <cstdio>
#include <future>
#include <map>
#include <utility>

#include "core/modeler.hpp"
#include "sim/metrics.hpp"

namespace remos::core {
namespace {

std::string format_demand(double demand) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", demand);
  return buf;
}

std::string flow_request_key(const FlowRequest& request) {
  return request.src.to_string() + ">" + request.dst.to_string() + "@" +
         format_demand(request.demand_bps);
}

}  // namespace

/// Per-epoch coalescing tables. A slot is created by the first (leader)
/// query with a given key and epoch; followers share the leader's future.
/// Completed slots stay as memos until refresh() prunes the epoch.
struct QueryServer::CoalesceTables {
  template <class Value>
  struct Fit {
    std::promise<Value> promise;
    std::shared_future<Value> future;
    Fit() : future(promise.get_future().share()) {}
  };
  using Key = std::pair<std::uint64_t, std::string>;
  std::map<Key, std::shared_ptr<Fit<std::vector<FlowInfo>>>> flow;        // remos-guarded-by(coalesce_mu_)
  std::map<Key, std::shared_ptr<Fit<std::optional<FlowPrediction>>>> predict;  // remos-guarded-by(coalesce_mu_)
};

/// Borrowed max-min arenas: returned to the freelist on destruction, so a
/// leader's solve never shares arenas with a concurrent leader's.
class QueryServer::ScratchLease {
 public:
  ScratchLease(const QueryServer& server, std::unique_ptr<MaxMinScratch> scratch)
      : server_(server), scratch_(std::move(scratch)) {}
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;
  ~ScratchLease() {
    std::lock_guard lock(server_.scratch_mu_);
    server_.scratch_pool_.push_back(std::move(scratch_));
  }
  [[nodiscard]] MaxMinScratch& get() { return *scratch_; }

 private:
  const QueryServer& server_;
  // remos-analyze: allow(concurrency): exclusively owned by the leaseholder thread; the only handoff (back to the freelist) happens under scratch_mu_ in the destructor
  std::unique_ptr<MaxMinScratch> scratch_;
};

QueryServer::QueryServer(Collector& collector, std::vector<net::Ipv4Address> universe,
                         QueryServerConfig config)
    : collector_(collector),
      config_(std::move(config)),
      universe_(std::move(universe)),
      predictor_(config_.prediction_model),
      coalesce_(std::make_unique<CoalesceTables>()) {
  refresh();
}

QueryServer::~QueryServer() = default;

// remos-requires(serve_mu_)
QuerySnapshot QueryServer::build_snapshot() {
  QuerySnapshot snap;
  CollectorResponse resp = collector_.query(universe_);
  snap.topo = std::move(resp.topology);
  snap.complete = resp.complete;
  snap.cost_s = resp.cost_s;
  snap.staleness_s = resp.max_staleness_s;
  // Copy the freshest history window of every identified edge (both
  // directions): the prediction handles. Copies make the snapshot
  // self-contained — collectors keep appending to the live histories
  // while readers predict from the frozen ones.
  for (const VEdge& e : snap.topo.edges()) {
    if (e.id.empty()) continue;
    for (const std::string& rid : {e.id, e.id + ":ba"}) {
      if (snap.histories.contains(rid)) continue;
      const sim::MeasurementHistory* h = collector_.history(rid);
      if (h == nullptr || h->empty()) continue;
      snap.histories.emplace(rid, h->last(config_.history_window));
    }
  }
  return snap;
}

const QuerySnapshot& QueryServer::refresh() {
  QuerySnapshotPtr published;
  {
    std::lock_guard lock(serve_mu_);
    auto snap = std::make_shared<QuerySnapshot>(build_snapshot());
    snap->epoch = next_epoch_++;
    published = std::move(snap);
  }
  published_.store(published, std::memory_order_release);
  epochs_published_.fetch_add(1, std::memory_order_relaxed);
  sim::metrics().counter("core.query_server.epochs_total").inc();
  // Old-epoch coalescing slots can no longer gain followers (new queries
  // key on the new epoch); drop the memos. In-flight leaders keep their
  // slot alive through their own shared_ptr.
  {
    std::lock_guard lock(coalesce_mu_);
    const CoalesceTables::Key horizon{published->epoch, std::string()};
    coalesce_->flow.erase(coalesce_->flow.begin(), coalesce_->flow.lower_bound(horizon));
    coalesce_->predict.erase(coalesce_->predict.begin(),
                             coalesce_->predict.lower_bound(horizon));
  }
  return *published;
}

// ---- pure answer functions ------------------------------------------------

VirtualTopology QueryServer::answer_topology(const QuerySnapshot& snap,
                                             const std::vector<net::Ipv4Address>& nodes) const {
  VirtualTopology spanned = span_topology(snap.topo, nodes);
  if (!config_.simplify_topology) return spanned;
  return Modeler::simplify(spanned);  // audited inside simplify()
}

std::vector<FlowInfo> QueryServer::answer_flows(const QuerySnapshot& snap, const FlowQuery& query,
                                                MaxMinScratch& scratch) const {
  return max_min_allocate(snap.topo, query.flows, scratch).flows;
}

std::optional<FlowPrediction> QueryServer::answer_predict(const QuerySnapshot& snap,
                                                          const FlowRequest& request,
                                                          std::size_t horizon,
                                                          MaxMinScratch& scratch) const {
  const FlowInfo info = single_flow_info(snap.topo, request, scratch);
  if (!info.routable()) return std::nullopt;
  const VEdge* bottleneck = bottleneck_edge(snap.topo, info);
  if (bottleneck == nullptr) return std::nullopt;
  const std::vector<double>* hist =
      choose_history(snap.history(bottleneck->id), snap.history(bottleneck->id + ":ba"));
  if (hist == nullptr) return std::nullopt;
  return predict_from_history(*hist, *bottleneck, predictor_, config_.prediction_model, horizon,
                              config_.min_history, config_.prediction_cache);
}

PredictionTierStats QueryServer::prediction_tier_stats() const {
  PredictionTierStats stats;
  const rps::SharedPredictionCache* cache = config_.prediction_cache;
  if (cache == nullptr) return stats;
  // Each accessor takes the cache's own (leaf) lock; counters may move
  // between reads, so this is a monitoring view, not an atomic snapshot.
  stats.hot_hits = cache->hits();
  stats.hot_misses = cache->misses();
  stats.warm_hits = cache->warm_hits();
  stats.warm_misses = cache->warm_misses();
  stats.seeds = cache->seeds();
  stats.templates_stored = cache->templates_stored();
  return stats;
}

// ---- lock-free read path --------------------------------------------------

VirtualTopology QueryServer::topology_query(const std::vector<net::Ipv4Address>& nodes) const {
  queries_total_.fetch_add(1, std::memory_order_relaxed);
  const QuerySnapshotPtr snap = snapshot();
  return answer_topology(*snap, nodes);
}

std::vector<FlowInfo> QueryServer::flow_query(const FlowQuery& query) const {
  queries_total_.fetch_add(1, std::memory_order_relaxed);
  const QuerySnapshotPtr snap = snapshot();
  std::string key;
  for (const FlowRequest& f : query.flows) {
    key += flow_request_key(f);
    key += ';';
  }

  std::shared_ptr<CoalesceTables::Fit<std::vector<FlowInfo>>> fit;
  bool leader = false;
  {
    std::lock_guard lock(coalesce_mu_);
    auto& slot = coalesce_->flow[CoalesceTables::Key{snap->epoch, std::move(key)}];
    if (!slot) {
      slot = std::make_shared<CoalesceTables::Fit<std::vector<FlowInfo>>>();
      leader = true;
    }
    fit = slot;
  }
  if (!leader) {
    coalesce_hits_.fetch_add(1, std::memory_order_relaxed);
    return fit->future.get();
  }

  computations_.fetch_add(1, std::memory_order_relaxed);
  try {
    ScratchLease scratch = lease_scratch();
    std::vector<FlowInfo> result = answer_flows(*snap, query, scratch.get());
    fit->promise.set_value(result);
    return result;
  } catch (...) {
    fit->promise.set_exception(std::current_exception());
    throw;
  }
}

FlowInfo QueryServer::flow_info(net::Ipv4Address src, net::Ipv4Address dst) const {
  FlowQuery q;
  q.flows.push_back(FlowRequest{src, dst, std::numeric_limits<double>::infinity()});
  auto infos = flow_query(q);
  return infos.empty() ? FlowInfo{} : std::move(infos.front());
}

std::optional<FlowPrediction> QueryServer::predict_flow(const FlowRequest& request,
                                                        std::size_t horizon) const {
  queries_total_.fetch_add(1, std::memory_order_relaxed);
  if (horizon == 0) horizon = config_.prediction_horizon;
  const QuerySnapshotPtr snap = snapshot();
  std::string key = flow_request_key(request) + "#" + std::to_string(horizon);

  std::shared_ptr<CoalesceTables::Fit<std::optional<FlowPrediction>>> fit;
  bool leader = false;
  bool rejected = false;
  {
    std::lock_guard lock(coalesce_mu_);
    auto it = coalesce_->predict.find(CoalesceTables::Key{snap->epoch, key});
    if (it != coalesce_->predict.end()) {
      fit = it->second;
    } else if (fits_in_flight_.load(std::memory_order_relaxed) >= config_.max_fits_in_flight) {
      rejected = true;
    } else {
      fits_in_flight_.fetch_add(1, std::memory_order_relaxed);
      fit = std::make_shared<CoalesceTables::Fit<std::optional<FlowPrediction>>>();
      coalesce_->predict.emplace(CoalesceTables::Key{snap->epoch, std::move(key)}, fit);
      leader = true;
    }
  }
  if (rejected) {
    predict_rejected_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (!leader) {
    coalesce_hits_.fetch_add(1, std::memory_order_relaxed);
    return fit->future.get();
  }

  computations_.fetch_add(1, std::memory_order_relaxed);
  std::optional<FlowPrediction> result;
  try {
    ScratchLease scratch = lease_scratch();
    result = answer_predict(*snap, request, horizon, scratch.get());
  } catch (...) {
    fits_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    fit->promise.set_exception(std::current_exception());
    throw;
  }
  fits_in_flight_.fetch_sub(1, std::memory_order_relaxed);
  fit->promise.set_value(result);
  return result;
}

// ---- retained mutex baseline ---------------------------------------------

VirtualTopology QueryServer::topology_query_locked(const std::vector<net::Ipv4Address>& nodes) {
  queries_total_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(serve_mu_);
  const QuerySnapshot snap = build_snapshot();
  return answer_topology(snap, nodes);
}

std::vector<FlowInfo> QueryServer::flow_query_locked(const FlowQuery& query) {
  queries_total_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(serve_mu_);
  const QuerySnapshot snap = build_snapshot();
  return answer_flows(snap, query, locked_scratch_);
}

std::optional<FlowPrediction> QueryServer::predict_flow_locked(const FlowRequest& request,
                                                               std::size_t horizon) {
  queries_total_.fetch_add(1, std::memory_order_relaxed);
  if (horizon == 0) horizon = config_.prediction_horizon;
  std::lock_guard lock(serve_mu_);
  const QuerySnapshot snap = build_snapshot();
  return answer_predict(snap, request, horizon, locked_scratch_);
}

QueryServer::ScratchLease QueryServer::lease_scratch() const {
  std::unique_ptr<MaxMinScratch> scratch;
  {
    std::lock_guard lock(scratch_mu_);
    if (!scratch_pool_.empty()) {
      scratch = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
    }
  }
  if (!scratch) scratch = std::make_unique<MaxMinScratch>();
  return ScratchLease(*this, std::move(scratch));
}

}  // namespace remos::core
