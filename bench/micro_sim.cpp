// Micro-benchmarks (google-benchmark) for the simulation substrate:
// event-engine throughput (serial and parallel batches) and the
// request-level M/M/1 simulator.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "perfmodel/request_sim.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace heteroplace;

void BM_EventQueuePushPop(benchmark::State& state) {
  // Raw queue throughput, no engine bookkeeping: the slab pool's
  // zero-allocation push/pop against BENCH_eventqueue.json's seed column
  // (bench/perf_baseline.cpp measures the retired shared_ptr queue).
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    util::Rng rng(3);
    long fired = 0;
    for (int i = 0; i < n; ++i) {
      q.push(rng.uniform(0.0, 1e6), sim::EventPriority::kStateTransition, [&fired] { ++fired; });
    }
    while (!q.empty()) {
      auto popped = q.pop();
      popped.callback();
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_EventQueuePushPop)->RangeMultiplier(8)->Range(1024, 262144);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // The controller's reschedule pattern at queue scale: every pending
  // completion is cancelled and re-pushed, then the queue drains.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    util::Rng rng(13);
    long fired = 0;
    std::vector<sim::EventHandle> handles;
    handles.reserve(n);
    for (int i = 0; i < n; ++i) {
      handles.push_back(q.push(rng.uniform(0.0, 1e6), sim::EventPriority::kStateTransition,
                               [&fired] { ++fired; }));
    }
    for (auto& h : handles) {
      h.cancel();
      h = q.push(rng.uniform(0.0, 1e6), sim::EventPriority::kStateTransition,
                 [&fired] { ++fired; });
    }
    while (!q.empty()) q.pop();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 4 * n);
}
BENCHMARK(BM_EventQueueCancelChurn)->RangeMultiplier(4)->Range(4096, 65536);

void BM_EngineScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    util::Rng rng(5);
    long fired = 0;
    for (int i = 0; i < n; ++i) {
      engine.schedule_at(util::Seconds{rng.uniform(0.0, 1e6)},
                         sim::EventPriority::kStateTransition, [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRun)->RangeMultiplier(8)->Range(1024, 262144);

void BM_EngineCancellationHeavy(benchmark::State& state) {
  // The controller cancels/reschedules job completions constantly; this
  // measures the lazy-deletion path.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    util::Rng rng(9);
    long fired = 0;
    std::vector<sim::EventHandle> handles;
    handles.reserve(n);
    for (int i = 0; i < n; ++i) {
      handles.push_back(engine.schedule_at(util::Seconds{rng.uniform(0.0, 1e6)},
                                           sim::EventPriority::kStateTransition,
                                           [&fired] { ++fired; }));
    }
    for (int i = 0; i < n; i += 2) handles[i].cancel();  // half cancelled
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineCancellationHeavy)->Arg(16384)->Arg(65536);

void BM_EngineShardedBatch(benchmark::State& state) {
  // The federation's aligned-domain shape: every round, one batch of
  // `shards` distinct-shard items runs on the worker pool, and each item
  // stages `pushes` events — its own re-arm plus pushes-1 sharded no-ops
  // half a round later, which form a second batch of empty items. This
  // isolates the parallel engine's per-item cost (staged slot handout,
  // replay at the barrier) from any controller work.
  const auto shards = static_cast<sim::ShardId>(state.range(0));
  const int pushes = static_cast<int>(state.range(1));
  const auto threads = static_cast<unsigned>(state.range(2));
  constexpr double kRounds = 200.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine engine;
    engine.set_threads(threads);
    std::vector<std::function<void()>> loops(shards);
    for (sim::ShardId s = 0; s < shards; ++s) {
      loops[s] = [&engine, &loops, s, pushes] {
        for (int k = 1; k < pushes; ++k) {
          engine.schedule_in(util::Seconds{0.5}, sim::EventPriority::kStateTransition, s, [] {});
        }
        engine.schedule_in(util::Seconds{1.0}, sim::EventPriority::kController, s, loops[s]);
      };
      engine.schedule_at(util::Seconds{0.0}, sim::EventPriority::kController, s, loops[s]);
    }
    engine.run_until(util::Seconds{kRounds});
    events += engine.events_executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EngineShardedBatch)
    ->ArgNames({"shards", "pushes", "threads"})
    ->ArgsProduct({{24, 100}, {1, 8}, {1, 2, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RequestLevelMm1(benchmark::State& state) {
  perfmodel::RequestSimConfig cfg;
  cfg.lambda = 10.0;
  cfg.service_demand = 600.0;
  cfg.capacity_mhz = 12000.0;
  cfg.horizon_s = 5000.0;
  for (auto _ : state) {
    const auto r = perfmodel::run_request_sim(cfg);
    benchmark::DoNotOptimize(r.completed);
  }
}
BENCHMARK(BM_RequestLevelMm1);

}  // namespace

BENCHMARK_MAIN();
