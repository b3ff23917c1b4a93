// The message-driven runtime's bit-identicality lock (DESIGN.md 4e).
//
// query_engine.cpp resolves queries as typed messages on a sim::Engine;
// query_engine_reference.cpp is the seed's synchronous recursion, frozen as
// an oracle. On twin systems (same topology, same data, same config, twin
// fault injectors fed the same plan) the two paths must agree bit-for-bit:
//   - the element sequence, in arrival order (not just the sorted set),
//   - every QueryStats field,
//   - the timing DAG, entry by entry,
//   - the injector's RNG stream (draw counts and per-hazard tallies), and
//   - the trace, as a multiset of spans (delivery deferral reorders span
//     *records*, but the set of spans and every derive_stats aggregate are
//     identical).
// Runs the full differential config matrix, faults off AND on.

#include <gtest/gtest.h>

#include <string>

#include "squid/core/system.hpp"
#include "squid/sim/fault.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using namespace testing_support;

/// live runs the message-driven engine, ref the frozen seed recursion.
class AsyncDifferential : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(AsyncDifferential, FaultFreeQueriesMatchTheSeedRecursion) {
  TwinWorld world = make_letter_twin(GetParam(), /*traced=*/obs::kEnabled);
  Rng rng(0x90ff);
  for (int trial = 0; trial < 40; ++trial) {
    const keyword::Query q = random_letter_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    const std::string context =
        keyword::to_string(q) + " trial " + std::to_string(trial);
    expect_same_as_reference(world.live->query(q, origin),
                     world.ref->query_reference(q, origin), context);
  }
}

TEST_P(AsyncDifferential, CountQueriesMatchTheSeedRecursion) {
  TwinWorld world = make_letter_twin(GetParam(), /*traced=*/false);
  Rng rng(0xc0c0);
  for (int trial = 0; trial < 20; ++trial) {
    const keyword::Query q = random_letter_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    EXPECT_EQ(world.live->query_aggregate(q, {AggregateKind::kCount}, origin)
                  .aggregate->count,
              world.ref->count_reference(q, origin))
        << keyword::to_string(q);
  }
}

TEST_P(AsyncDifferential, CentralizedQueriesMatchTheSeedRecursion) {
  TwinWorld world = make_letter_twin(GetParam(), /*traced=*/obs::kEnabled);
  Rng rng(0xce47);
  for (int trial = 0; trial < 10; ++trial) {
    const keyword::Query q = random_letter_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    expect_same_as_reference(world.live->query_centralized(q, origin),
                     world.ref->query_centralized_reference(q, origin),
                     keyword::to_string(q) + " [centralized]");
  }
}

TEST_P(AsyncDifferential, FaultedQueriesMatchIncludingTheRngStream) {
  TwinWorld world = make_letter_twin(GetParam(), /*traced=*/obs::kEnabled);

  sim::FaultPlan plan;
  plan.seed = 0x5eed;
  plan.drop_probability = 0.06;
  plan.delay_probability = 0.15;
  plan.max_delay = 3;
  plan.duplicate_probability = 0.08;
  sim::FaultInjector live_injector(plan);
  sim::FaultInjector ref_injector(plan);
  world.live->set_fault_injector(&live_injector);
  world.ref->set_fault_injector(&ref_injector);

  Rng rng(0xfa17);
  for (int trial = 0; trial < 40; ++trial) {
    const keyword::Query q = random_letter_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    const std::string context =
        keyword::to_string(q) + " faulted trial " + std::to_string(trial);
    expect_same_as_reference(world.live->query(q, origin),
                     world.ref->query_reference(q, origin), context);
    // The strongest invariant: both paths consumed the injector's stream
    // identically, draw for draw — any ordering drift desynchronizes the
    // twins for every later trial.
    ASSERT_EQ(live_injector.rng_draws(), ref_injector.rng_draws()) << context;
    EXPECT_EQ(live_injector.dropped(), ref_injector.dropped()) << context;
    EXPECT_EQ(live_injector.delayed(), ref_injector.delayed()) << context;
    EXPECT_EQ(live_injector.duplicated(), ref_injector.duplicated())
        << context;
    EXPECT_EQ(live_injector.pending_timeout_reports(),
              ref_injector.pending_timeout_reports())
        << context;
  }
  EXPECT_GT(live_injector.rng_draws(), 0u);
}

TEST_P(AsyncDifferential, PartitionWindowsApplyAtTheInjectorClock) {
  // The lockstep engine is constructed at the injector's current virtual
  // time, so partition windows keyed on absolute time sever the same sends
  // in both paths — including after set_now() time travel.
  TwinWorld world = make_letter_twin(GetParam(), /*traced=*/false);

  sim::FaultPlan plan;
  plan.partitions.push_back({0, 1 << 20, u128{1} << 100});
  sim::FaultInjector live_injector(plan);
  sim::FaultInjector ref_injector(plan);
  world.live->set_fault_injector(&live_injector);
  world.ref->set_fault_injector(&ref_injector);

  Rng rng(0x9a27);
  for (int trial = 0; trial < 10; ++trial) {
    const keyword::Query q = random_letter_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    expect_same_as_reference(world.live->query(q, origin),
                     world.ref->query_reference(q, origin),
                     "partition trial " + std::to_string(trial));
  }
  // Time-travel both injectors past the window: partitions lift in both.
  live_injector.set_now(1 << 20);
  ref_injector.set_now(1 << 20);
  for (int trial = 0; trial < 5; ++trial) {
    const keyword::Query q = random_letter_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    const auto live = world.live->query(q, origin);
    expect_same_as_reference(live, world.ref->query_reference(q, origin),
                     "lifted trial " + std::to_string(trial));
    EXPECT_TRUE(live.complete);
  }
  EXPECT_EQ(live_injector.partition_drops(), ref_injector.partition_drops());
}

INSTANTIATE_TEST_SUITE_P(Configs, AsyncDifferential,
                         ::testing::ValuesIn(kEngineMatrix), config_name);

} // namespace
} // namespace squid::core
