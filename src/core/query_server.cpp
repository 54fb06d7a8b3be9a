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

const QuerySnapshot& QueryServer::refresh() {
  QuerySnapshotPtr published;
  {
    std::lock_guard lock(serve_mu_);
    auto snap = std::make_shared<QuerySnapshot>(
        fetch_snapshot(collector_, universe_, config_.history_window));
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
  VirtualTopology spanned = span_topology(snap->topo, nodes);
  if (!config_.simplify_topology) return spanned;
  return Modeler::simplify(spanned);  // audited inside simplify()
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
    std::vector<FlowInfo> result = max_min_allocate(snap->topo, query.flows, scratch.get()).flows;
    fit->promise.set_value(result);
    return result;
  } catch (...) {
    fit->promise.set_exception(std::current_exception());
    throw;
  }
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
    result = answer_predict(*snap, request, horizon, predictor_, config_.prediction_model,
                            config_.min_history, config_.prediction_cache, scratch.get());
  } catch (...) {
    fits_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    fit->promise.set_exception(std::current_exception());
    throw;
  }
  fits_in_flight_.fetch_sub(1, std::memory_order_relaxed);
  fit->promise.set_value(result);
  return result;
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
