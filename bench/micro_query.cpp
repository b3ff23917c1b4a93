// Micro-benchmarks: publish and end-to-end query throughput of the full
// Squid stack (simulated overlay, real algorithms).

#include <benchmark/benchmark.h>

#include "squid/core/system.hpp"
#include "squid/core/update.hpp"
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
  world.corpus = std::make_unique<workload::KeywordCorpus>(2, 600, 0.8,
                                                           world.rng);
  world.sys = std::make_unique<core::SquidSystem>(world.corpus->make_space());
  world.sys->build_network(nodes, world.rng);
  for (const auto& e : world.corpus->make_elements(elements, world.rng))
    world.sys->publish(e);
  return world;
}

void BM_Publish(benchmark::State& state) {
  World world = make_world(1000, 0);
  for (auto _ : state) {
    world.sys->publish(world.corpus->make_element(world.rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_PublishUpdate(benchmark::State& state) {
  World world = make_world(1000, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::publish_update(
        *world.sys, world.corpus->make_element(world.rng),
        world.sys->ring().random_node(world.rng)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_QueryPartialKeyword(benchmark::State& state) {
  World world = make_world(static_cast<std::size_t>(state.range(0)), 20000);
  const keyword::Query q = world.corpus->q1(2, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.sys->query(q, world.sys->ring().random_node(world.rng)));
  }
}

void BM_QueryExactKeyword(benchmark::State& state) {
  World world = make_world(static_cast<std::size_t>(state.range(0)), 20000);
  const keyword::Query q = world.corpus->q2(0, 1, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.sys->query(q, world.sys->ring().random_node(world.rng)));
  }
}

} // namespace

BENCHMARK(BM_Publish);
BENCHMARK(BM_PublishUpdate);
BENCHMARK(BM_QueryPartialKeyword)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QueryExactKeyword)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMicrosecond);
