// Micro-benchmarks: the observability layer's overhead contract
// (DESIGN.md 4c).
//
// Three operating points of the same end-to-end query:
//   - tracing disabled at runtime (the default): the per-site cost is one
//     predictable branch on a null pointer plus the metric counter adds —
//     this is the number the <2% regression budget of ISSUE 3 covers
//     relative to a -DSQUID_OBS=OFF build, where every site is dead code;
//   - tracing enabled: full span recording, the price `explain` pays;
//   - raw metric primitives, to show a counter add is a relaxed atomic.
//
// Compare against a -DSQUID_OBS=OFF build of the same binary to measure
// the compiled-out contract; within one build, BM_QueryTracingOff vs
// BM_QueryTracingOn bounds the runtime toggle's cost.

#include <benchmark/benchmark.h>

#include "squid/core/system.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/obs/telemetry.hpp"
#include "squid/obs/trace.hpp"
#include "squid/workload/corpus.hpp"

namespace {

using namespace squid;

struct World {
  std::unique_ptr<workload::KeywordCorpus> corpus;
  std::unique_ptr<core::SquidSystem> sys;
  Rng rng{17};
};

World make_world(std::size_t nodes, std::size_t elements) {
  World world;
  world.corpus =
      std::make_unique<workload::KeywordCorpus>(2, 600, 0.8, world.rng);
  world.sys = std::make_unique<core::SquidSystem>(world.corpus->make_space());
  world.sys->build_network(nodes, world.rng);
  world.sys->publish_batch(world.corpus->make_elements(elements, world.rng));
  return world;
}

void BM_QueryTracingOff(benchmark::State& state) {
  World world = make_world(static_cast<std::size_t>(state.range(0)), 20000);
  world.sys->set_tracing(false);
  const keyword::Query q = world.corpus->q1(2, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.sys->query(q, world.sys->ring().random_node(world.rng)));
  }
}

void BM_QueryTracingOn(benchmark::State& state) {
  World world = make_world(static_cast<std::size_t>(state.range(0)), 20000);
  world.sys->set_tracing(true);
  const keyword::Query q = world.corpus->q1(2, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.sys->query(q, world.sys->ring().random_node(world.rng)));
  }
}

/// Epoch-sampler overhead guard (DESIGN.md 4h): the same query sweep with
/// no sampler attached vs. one attached. The delta is the telemetry
/// pipeline's whole per-query price — scratch allocation, the passive
/// record() appends, and one mutex-guarded flush at finalize — and must
/// stay under the <2% budget. Present in both builds: under -DSQUID_OBS=OFF
/// the sampler records nothing and every engine site is a dead null check,
/// so On and Off must be indistinguishable there.
void BM_QuerySamplerOff(benchmark::State& state) {
  World world = make_world(static_cast<std::size_t>(state.range(0)), 20000);
  world.sys->set_tracing(false);
  const keyword::Query q = world.corpus->q1(2, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.sys->query(q, world.sys->ring().random_node(world.rng)));
  }
}

void BM_QuerySamplerOn(benchmark::State& state) {
  World world = make_world(static_cast<std::size_t>(state.range(0)), 20000);
  world.sys->set_tracing(false);
  obs::EpochSampler sampler(/*epoch_ticks=*/256);
  world.sys->set_telemetry(&sampler);
  const keyword::Query q = world.corpus->q1(2, true);
  sim::Time now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.sys->query(q, world.sys->ring().random_node(world.rng)));
    // Advance the epoch clock as a harness would; boundary crossings take
    // the windowed registry snapshot, which is part of the honest price.
    sampler.advance_to(now += 16);
  }
  world.sys->set_telemetry(nullptr);
}

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter& counter =
      obs::Registry::global().counter("squid.bench.counter_add");
  for (auto _ : state) {
    counter.add(1);
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_HistogramObserve(benchmark::State& state) {
  obs::HistogramMetric& histogram = obs::Registry::global().histogram(
      "squid.bench.histogram_observe", 0, 100, 16);
  double v = 0;
  for (auto _ : state) {
    histogram.observe(v);
    v = v < 100 ? v + 1 : 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_DeriveStats(benchmark::State& state) {
  World world = make_world(1000, 20000);
  world.sys->set_tracing(true);
  const auto result = world.sys->query(
      world.corpus->q1(2, true), world.sys->ring().random_node(world.rng));
  if (!result.trace) {
    state.SkipWithError("observability compiled out");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::derive_stats(*result.trace));
  }
}

} // namespace

BENCHMARK(BM_QueryTracingOff)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QueryTracingOn)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuerySamplerOff)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuerySamplerOn)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CounterAdd);
BENCHMARK(BM_HistogramObserve);
BENCHMARK(BM_DeriveStats)->Unit(benchmark::kMicrosecond);
