// The worker pool's bit-identicality lock (DESIGN.md 4f).
//
// query_parallel runs batches on S worker threads; query() runs the
// lockstep message engine (itself locked to the frozen seed recursion by
// async_differential_test.cpp). On twin systems the two must agree
// bit-for-bit per query — the element sequence IN ORDER, every QueryStats
// field, the timing DAG, the trace span multiset, completion — for every
// worker count, regardless of thread interleaving. With a fault plan, each
// parallel query k runs under fork_plan(plan, k); replaying the same forks
// sequentially must consume the RNG streams draw-for-draw identically.
// Runs at every worker count in kWorkerCounts (support/differential.hpp).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "squid/core/parallel.hpp"
#include "squid/core/system.hpp"
#include "squid/sim/fault.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using namespace testing_support;

/// live runs query_parallel, ref runs lockstep query().
class ParallelDifferential : public ::testing::TestWithParam<EngineConfig> {};

std::vector<ParallelQuerySpec> random_batch(const SquidSystem& sys,
                                            std::size_t count,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ParallelQuerySpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ParallelQuerySpec spec;
    spec.query = random_letter_query(rng);
    spec.origin = sys.ring().random_node(rng);
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST_P(ParallelDifferential, FaultFreeBatchesMatchLockstepAtEveryShardCount) {
  TwinWorld world = make_letter_twin(GetParam(), /*traced=*/obs::kEnabled);
  const std::vector<ParallelQuerySpec> specs =
      random_batch(*world.live, 24, 0x90ff);
  for (const unsigned shards : kWorkerCounts) {
    ParallelOptions opts;
    opts.shards = shards;
    const ParallelRun run = world.live->query_parallel(specs, opts);
    ASSERT_EQ(run.results.size(), specs.size());
    EXPECT_TRUE(run.faults.empty());
    // Sequential replay on the twin, in submit order (the owner cache, when
    // on, evolves with that order in both paths).
    for (std::size_t k = 0; k < specs.size(); ++k) {
      expect_identical(run.results[k],
                       world.ref->query(specs[k].query, specs[k].origin),
                       "S=" + std::to_string(shards) + " query " +
                           std::to_string(k));
    }
    // A fresh twin per shard count when the cache couples runs.
    if (std::get<3>(GetParam()))
      world = make_letter_twin(GetParam(), obs::kEnabled);
  }
}

TEST_P(ParallelDifferential, FaultedBatchesMatchIncludingPerQueryRngStreams) {
  sim::FaultPlan plan;
  plan.seed = 0x5eed;
  plan.drop_probability = 0.06;
  plan.delay_probability = 0.15;
  plan.max_delay = 3;
  plan.duplicate_probability = 0.08;

  TwinWorld world = make_letter_twin(GetParam(), /*traced=*/obs::kEnabled);
  const std::vector<ParallelQuerySpec> specs =
      random_batch(*world.live, 24, 0xfa17);
  std::uint64_t total_draws = 0;
  for (const unsigned shards : kWorkerCounts) {
    ParallelOptions opts;
    opts.shards = shards;
    opts.faults = &plan;
    const ParallelRun run = world.live->query_parallel(specs, opts);
    ASSERT_EQ(run.results.size(), specs.size());
    ASSERT_EQ(run.faults.size(), specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const std::string context = "S=" + std::to_string(shards) + " faulted " +
                                  std::to_string(k);
      // Replay the same per-query fork sequentially: answers AND the
      // injector's whole RNG stream must match draw for draw — any planning
      // order drift in the parallel path desynchronizes the stream.
      sim::FaultInjector injector(sim::fork_plan(plan, k));
      world.ref->set_fault_injector(&injector);
      expect_identical(run.results[k],
                       world.ref->query(specs[k].query, specs[k].origin),
                       context);
      EXPECT_EQ(run.faults[k].rng_draws, injector.rng_draws()) << context;
      EXPECT_EQ(run.faults[k].dropped, injector.dropped()) << context;
      EXPECT_EQ(run.faults[k].delayed, injector.delayed()) << context;
      EXPECT_EQ(run.faults[k].duplicated, injector.duplicated()) << context;
      total_draws += injector.rng_draws();
    }
    world.ref->set_fault_injector(nullptr);
    if (std::get<3>(GetParam()))
      world = make_letter_twin(GetParam(), obs::kEnabled);
  }
  EXPECT_GT(total_draws, 0u); // the plan actually exercised the fault path
}

INSTANTIATE_TEST_SUITE_P(Configs, ParallelDifferential,
                         ::testing::ValuesIn(kEngineMatrix), config_name);

TEST(ForEachIndex, RunsEveryIndexOnceAndForwardsTheFirstFailure) {
  for (const unsigned workers : kWorkerCounts) {
    std::vector<std::atomic<int>> runs(50);
    for_each_index(workers, runs.size(), [&](std::size_t k) { ++runs[k]; });
    for (std::size_t k = 0; k < runs.size(); ++k)
      EXPECT_EQ(runs[k].load(), 1) << "workers=" << workers << " k=" << k;
  }
  std::vector<std::size_t> order;
  for_each_index(1, 5, [&](std::size_t k) { order.push_back(k); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  // A throwing item: every worker is joined and the caller sees the error.
  for (const unsigned workers : {1u, 4u}) {
    const auto fail_at_7 = [](std::size_t k) {
      if (k == 7) throw std::runtime_error("item 7");
    };
    EXPECT_THROW(for_each_index(workers, 40, fail_at_7), std::runtime_error)
        << "workers=" << workers;
  }
}

} // namespace
} // namespace squid::core
