// Threaded hammering of the shared surfaces — the tests the `tsan` preset
// exists for (cmake --preset tsan): SharedPredictionCache under concurrent
// readers/writers, parallel_for exception aggregation, and concurrent
// read-only MIB walks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/testbed.hpp"
#include "net/flows.hpp"
#include "rps/shared_cache.hpp"
#include "sim/thread_pool.hpp"
#include "snmp/mib.hpp"

namespace remos {
namespace {

rps::Prediction make_prediction(double v) {
  rps::Prediction p;
  p.mean = {v};
  p.variance = {0.0};
  return p;
}

TEST(SharedCacheConcurrency, ParallelGetOrComputeSingleFit) {
  std::atomic<double> now{0.0};
  rps::SharedPredictionCache cache(60.0, [&] { return now.load(); });
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        const auto p = cache.get_or_compute("hot-key", [&] {
          computes.fetch_add(1);
          return make_prediction(42.0);
        });
        EXPECT_DOUBLE_EQ(p.mean[0], 42.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  // compute() runs under the cache lock: exactly one fit for a hot key.
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 8u * 200u - 1u);
}

TEST(SharedCacheConcurrency, MixedReadersWritersInvalidators) {
  std::atomic<double> now{0.0};
  rps::SharedPredictionCache cache(0.5, [&] { return now.load(); });
  std::atomic<bool> stop{false};
  std::atomic<int> readers_running{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      const std::string key = "edge-" + std::to_string(t);
      bool first = true;
      while (!stop.load()) {
        (void)cache.get_or_compute(key, [&] { return make_prediction(t); });
        if (auto p = cache.peek(key)) EXPECT_DOUBLE_EQ(p->mean[0], t);
        if (first) readers_running.fetch_add(1);
        first = false;
      }
    });
  }
  threads.emplace_back([&] {
    // Invalidate only while every reader is live: on a loaded machine the
    // readers may otherwise not be scheduled before this loop finishes.
    while (readers_running.load() < 3) std::this_thread::yield();
    for (int i = 0; i < 500; ++i) {
      now.store(now.load() + 0.01);
      cache.invalidate("edge-" + std::to_string(i % 3));
      if (i % 100 == 99) cache.clear();
      (void)cache.size();
      (void)cache.hit_rate();
    }
    stop.store(true);
  });
  for (auto& t : threads) t.join();
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

TEST(ThreadPoolConcurrency, ParallelForAggregatesExceptions) {
  sim::ThreadPool pool(4);
  // Every lane throws: the first exception propagates, the remaining
  // lane failures are counted instead of vanishing.
  EXPECT_THROW(pool.parallel_for(4,
                                 [](std::size_t) -> void {
                                   throw std::runtime_error("every lane fails");
                                 }),
               std::runtime_error);
  // 4 lanes on 4 workers, each claims >=1 failing index: the ones beyond
  // the rethrown first are suppressed-but-counted.
  EXPECT_LE(pool.last_suppressed(), 3u);
  // A clean run resets the counter.
  pool.parallel_for(64, [](std::size_t) {});
  EXPECT_EQ(pool.last_suppressed(), 0u);
}

TEST(ThreadPoolConcurrency, ParallelForSingleFailureAmongMany) {
  sim::ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_for(200,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 97) throw std::logic_error("bad index");
                                 }),
               std::logic_error);
  EXPECT_EQ(pool.last_suppressed(), 0u);  // only one lane failed
  EXPECT_GT(ran.load(), 0u);
}

TEST(ThreadPoolConcurrency, ShutdownWakesAllWorkers) {
  // Construct and immediately destroy pools with idle workers: the
  // destructor's notify_all must wake every blocked worker (a lost wakeup
  // deadlocks this test; TSan additionally checks the handshake).
  for (int round = 0; round < 20; ++round) {
    sim::ThreadPool pool(8);
    if (round % 2 == 0) (void)pool.submit([] { return 1; }).get();
  }
}

TEST(MibConcurrency, ConcurrentReadOnlyWalks) {
  apps::LanTestbed lan;
  lan.engine.run_until(10.0);
  // Build one view per managed device, then walk them all from many
  // threads at once. Walks are read-only; value closures read live network
  // counters, which is safe while the simulation itself is quiescent.
  std::vector<snmp::MibView> views;
  for (const net::Node& n : lan.net.nodes()) {
    if (n.snmp_enabled) views.push_back(snmp::build_device_mib(lan.net, n.id));
  }
  ASSERT_FALSE(views.empty());
  std::vector<std::thread> threads;
  threads.reserve(6);
  std::atomic<std::size_t> visited{0};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (const auto& view : views) {
        snmp::Oid cursor;
        std::size_t steps = 0;
        while (auto vb = view.get_next(cursor)) {
          cursor = vb->oid;
          if (++steps > view.object_count()) break;  // ordering bug guard
        }
        EXPECT_EQ(steps, view.object_count());
        visited.fetch_add(steps);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(visited.load(), 0u);
}

/// Dumbbell with per-host access links; flows between disjoint host pairs
/// are bottleneck-independent, so the partitioned solver splits them.
struct ConcurrencyNet {
  net::Network lan{"conc"};
  sim::Engine engine;
  std::vector<net::NodeId> left, right;
  std::unique_ptr<net::FlowEngine> flows;

  explicit ConcurrencyNet(std::size_t pairs) {
    const net::NodeId sw = lan.add_switch("sw");
    for (std::size_t i = 0; i < pairs; ++i) {
      left.push_back(lan.add_host("l" + std::to_string(i)));
      right.push_back(lan.add_host("r" + std::to_string(i)));
      lan.connect(left.back(), sw, 100e6);
      lan.connect(right.back(), sw, 100e6);
    }
    lan.finalize();
    flows = std::make_unique<net::FlowEngine>(engine, lan);
  }
};

TEST(FlowEngineConcurrency, ConstQueriesRaceMutators) {
  // The regression the tsan preset pins: resolved_path historically
  // mutated the `mutable` path cache from const queries with no
  // synchronization, so RTT probes racing start()/stop() corrupted the
  // cache. Readers hammer every const query while the simulation thread
  // starts, advances, syncs, and stops flows.
  ConcurrencyNet c(4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      const std::size_t i = static_cast<std::size_t>(t) % c.left.size();
      while (!stop.load()) {
        (void)c.flows->current_rtt(c.left[i], c.right[i]);
        (void)c.flows->rate(static_cast<net::FlowId>(t + 1));
        (void)c.flows->stats(static_cast<net::FlowId>(t + 1));
        (void)c.flows->directed_link_rate(static_cast<net::LinkId>(i), true);
        (void)c.flows->active_count();
        (void)c.flows->path_cache_hits();
        (void)c.flows->waterfill_rounds_total();
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    std::vector<net::FlowId> ids;
    for (std::size_t i = 0; i < c.left.size(); ++i) {
      net::FlowSpec spec{.src = c.left[i], .dst = c.right[i]};
      if (i % 2 == 0) spec.bytes = 25'000;  // completes after 2 ms at 100 Mb/s
      ids.push_back(c.flows->start(std::move(spec)));
    }
    c.engine.advance(0.005);
    c.flows->sync();
    for (const net::FlowId id : ids) c.flows->stop(id);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(c.flows->active_count(), 0u);
}

TEST(FlowEngineConcurrency, ParallelRecomputeMatchesSequential) {
  // set_thread_pool routes large recomputes through the partitioned
  // parallel kernel; every per-flow rate must stay bit-identical to the
  // sequential engine fed the same start sequence.
  ConcurrencyNet seq(16);
  ConcurrencyNet par(16);
  sim::ThreadPool pool(4);
  par.flows->set_thread_pool(&pool, /*min_flows=*/2);
  std::vector<net::FlowId> seq_ids, par_ids;
  for (std::size_t i = 0; i < seq.left.size(); ++i) {
    seq_ids.push_back(seq.flows->start(net::FlowSpec{.src = seq.left[i], .dst = seq.right[i]}));
    par_ids.push_back(par.flows->start(net::FlowSpec{.src = par.left[i], .dst = par.right[i]}));
  }
  for (std::size_t i = 0; i < seq_ids.size(); ++i) {
    const double a = seq.flows->rate(seq_ids[i]);
    const double b = par.flows->rate(par_ids[i]);
    EXPECT_EQ(0, std::memcmp(&a, &b, sizeof a)) << "flow " << i;
    EXPECT_DOUBLE_EQ(a, 100e6);
  }
}

}  // namespace
}  // namespace remos
