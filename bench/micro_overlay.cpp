// Micro-benchmarks: Chord routing, joins, and stabilization throughput.

#include <benchmark/benchmark.h>

#include "squid/overlay/chord.hpp"
#include "squid/util/rng.hpp"

namespace {

using namespace squid;
using namespace squid::overlay;

void BM_Route(benchmark::State& state) {
  Rng rng(1);
  ChordRing ring(48);
  ring.build(static_cast<std::size_t>(state.range(0)), rng);
  const auto ids = ring.node_ids();
  std::size_t hops = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto r = ring.route(ids[i++ % ids.size()],
                              rng.below128(static_cast<u128>(1) << 48));
    hops += r.hops();
    benchmark::DoNotOptimize(r.dest);
  }
  state.counters["hops/route"] =
      static_cast<double>(hops) / static_cast<double>(state.iterations());
}

void BM_RouteStale(benchmark::State& state) {
  // The same lookups on a ring left unstabilized after churn: a tenth of
  // the nodes failed abruptly and the predecessors of every fourth noted
  // the timeout, so fingers and successor lists elsewhere still name dead
  // nodes and the finger scan has to step past them.
  Rng rng(8);
  ChordRing ring(48);
  const auto count = static_cast<std::size_t>(state.range(0));
  ring.build(count, rng);
  for (std::size_t i = 0; i < count / 10; ++i) {
    const NodeId dead = ring.random_node(rng);
    ring.fail(dead);
    if (i % 4 == 0) ring.note_timeout(ring.predecessor_of(dead), dead);
  }
  const auto ids = ring.node_ids();
  std::size_t hops = 0;
  std::size_t failed = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto r = ring.route(ids[i++ % ids.size()],
                              rng.below128(static_cast<u128>(1) << 48));
    hops += r.hops();
    failed += r.ok ? 0 : 1;
    benchmark::DoNotOptimize(r.dest);
  }
  const auto routes = static_cast<double>(state.iterations());
  state.counters["hops/route"] = static_cast<double>(hops) / routes;
  state.counters["failed/route"] = static_cast<double>(failed) / routes;
}

void BM_Join(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    ChordRing ring(48);
    ring.build(static_cast<std::size_t>(state.range(0)), rng);
    state.ResumeTiming();
    for (int i = 0; i < 16; ++i)
      (void)ring.join(ring.random_free_id(rng), ring.random_node(rng));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}

void BM_StabilizeSweep(benchmark::State& state) {
  Rng rng(3);
  ChordRing ring(48);
  ring.build(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    ring.stabilize_all(rng, 1);
  }
}

void BM_Build(benchmark::State& state) {
  Rng rng(4);
  const auto count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ChordRing ring(48);
    ring.build(count, rng);
    benchmark::DoNotOptimize(ring.size());
  }
}

void BM_RepairAll(benchmark::State& state) {
  Rng rng(5);
  ChordRing ring(48);
  ring.build(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    ring.repair_all();
    benchmark::DoNotOptimize(ring.size());
  }
}

void BM_RandomNode(benchmark::State& state) {
  Rng rng(6);
  ChordRing ring(48);
  ring.build(static_cast<std::size_t>(state.range(0)), rng);
  u128 acc = 0;
  for (auto _ : state) acc += ring.random_node(rng);
  benchmark::DoNotOptimize(acc);
}

void BM_SuccessorOf(benchmark::State& state) {
  Rng rng(7);
  ChordRing ring(48);
  ring.build(static_cast<std::size_t>(state.range(0)), rng);
  u128 acc = 0;
  for (auto _ : state)
    acc += ring.successor_of(rng.below128(static_cast<u128>(1) << 48));
  benchmark::DoNotOptimize(acc);
}

} // namespace

BENCHMARK(BM_Route)->Arg(1000)->Arg(5000)->Arg(20000);
BENCHMARK(BM_RouteStale)->Arg(5000);
BENCHMARK(BM_Join)->Arg(1000)->Arg(5000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_StabilizeSweep)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Build)->Arg(1000)->Arg(5400)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RepairAll)->Arg(1000)->Arg(5400)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RandomNode)->Arg(1000)->Arg(5400);
BENCHMARK(BM_SuccessorOf)->Arg(1000)->Arg(5400);
