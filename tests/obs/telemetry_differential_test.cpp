// The telemetry pipeline's bit-transparency lock (DESIGN.md 4h).
//
// Attaching an EpochSampler (and running the HotspotDetector over what it
// collects) must be invisible to query execution: on twin systems — same
// topology, same data, same config — one with sampling on and one with it
// off, every query must agree bit-for-bit:
//   - the element sequence, in arrival order,
//   - every QueryStats field,
//   - the timing DAG, entry by entry,
//   - the trace, as a multiset of spans, and
//   - under faults, the injector's RNG stream draw-for-draw.
// Runs the full differential config matrix across all three delivery
// modes: lockstep query(), virtual-time query_async on a shared engine,
// and query_parallel on the worker pool at every worker count in
// kWorkerCounts, faults off AND on. The sampled twin's series is also
// checked non-empty (with observability compiled in), so the lock is not
// vacuous.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "squid/core/parallel.hpp"
#include "squid/core/system.hpp"
#include "squid/obs/hotspot.hpp"
#include "squid/obs/telemetry.hpp"
#include "squid/sim/engine.hpp"
#include "squid/sim/fault.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using namespace testing_support;

/// In each twin world, live runs with an EpochSampler attached and ref is
/// the identical system without one.
class TelemetryDifferential : public ::testing::TestWithParam<EngineConfig> {
};

/// Total load the sampler collected, summed over the whole series.
std::uint64_t collected_load(obs::EpochSampler& sampler) {
  std::uint64_t total = 0;
  for (const auto& epoch : sampler.finish().epochs)
    total += epoch.total().total();
  return total;
}

TEST_P(TelemetryDifferential, LockstepQueriesAreUnperturbedBySampling) {
  TwinWorld world = make_letter_twin(GetParam(), /*traced=*/obs::kEnabled);
  obs::EpochSampler sampler(32);
  world.live->set_telemetry(&sampler);

  Rng rng(0x7e1e);
  for (int trial = 0; trial < 30; ++trial) {
    const keyword::Query q = random_letter_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    const std::string context =
        keyword::to_string(q) + " trial " + std::to_string(trial);
    expect_identical(world.live->query(q, origin),
                     world.ref->query(q, origin), context);
    // Harness clock ticks between queries, crossing epoch boundaries.
    sampler.advance_to(static_cast<sim::Time>(trial + 1) * 8);
  }
  world.live->set_telemetry(nullptr);

  // The lock must not be vacuous: with observability compiled in, the
  // sampled twin really collected per-node load, and the detector consumes
  // it without touching the systems at all.
  if constexpr (obs::kEnabled) {
    EXPECT_GT(collected_load(sampler), 0u);
    obs::HotspotDetector detector;
    detector.observe_all(sampler.finish());
  } else {
    EXPECT_EQ(collected_load(sampler), 0u);
  }
}

TEST_P(TelemetryDifferential, VirtualTimeQueriesAreUnperturbedBySampling) {
  TwinWorld world = make_letter_twin(GetParam(), /*traced=*/obs::kEnabled);
  const bool cache = std::get<3>(GetParam());
  obs::EpochSampler sampler(16);
  world.live->set_telemetry(&sampler);

  Rng rng(0xa5c1);
  std::vector<keyword::Query> queries;
  std::vector<overlay::NodeId> origins;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(random_letter_query(rng));
    origins.push_back(world.live->ring().random_node(rng));
  }
  // With the owner cache on, query_async allows one in-flight query at a
  // time (single-writer cache); interleave only in the cache-off configs.
  const std::size_t batch = cache ? 1 : queries.size();
  for (std::size_t begin = 0; begin < queries.size(); begin += batch) {
    const std::size_t end = std::min(begin + batch, queries.size());
    sim::Engine sampled_engine, bare_engine;
    std::vector<QueryHandle> sampled_handles, bare_handles;
    for (std::size_t i = begin; i < end; ++i) {
      sampled_handles.push_back(
          world.live->query_async(queries[i], origins[i], sampled_engine));
      bare_handles.push_back(
          world.ref->query_async(queries[i], origins[i], bare_engine));
    }
    sampled_engine.run();
    bare_engine.run();
    for (std::size_t i = 0; i < sampled_handles.size(); ++i) {
      ASSERT_TRUE(sampled_handles[i].ready());
      ASSERT_TRUE(bare_handles[i].ready());
      expect_identical(sampled_handles[i].result(), bare_handles[i].result(),
                       "async query " + std::to_string(begin + i));
    }
    // Safe point between engine drains.
    sampler.advance_to(sampler.now() + 16);
  }
  world.live->set_telemetry(nullptr);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(collected_load(sampler), 0u);
  }
}

TEST_P(TelemetryDifferential, ParallelBatchesAreUnperturbedBySampling) {
  for (const unsigned shards : kWorkerCounts) {
    // A fresh twin per shard count: the owner cache, when on, couples runs.
    TwinWorld world = make_letter_twin(GetParam(), /*traced=*/obs::kEnabled);
    obs::EpochSampler sampler(32);
    world.live->set_telemetry(&sampler);

    Rng rng(0x9ba7 ^ shards);
    std::vector<ParallelQuerySpec> specs;
    for (int i = 0; i < 16; ++i) {
      ParallelQuerySpec spec;
      spec.query = random_letter_query(rng);
      spec.origin = world.live->ring().random_node(rng);
      specs.push_back(std::move(spec));
    }
    ParallelOptions opts;
    opts.shards = shards;
    const ParallelRun sampled_run = world.live->query_parallel(specs, opts);
    const ParallelRun bare_run = world.ref->query_parallel(specs, opts);
    ASSERT_EQ(sampled_run.results.size(), specs.size());
    ASSERT_EQ(bare_run.results.size(), specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
      expect_identical(sampled_run.results[k], bare_run.results[k],
                       "S=" + std::to_string(shards) + " query " +
                           std::to_string(k));
    }
    // advance_to only between batches — never while shards are in flight.
    sampler.advance_to(64);
    world.live->set_telemetry(nullptr);
    if constexpr (obs::kEnabled) {
      EXPECT_GT(collected_load(sampler), 0u);
    }
  }
}

TEST_P(TelemetryDifferential, FaultedQueriesKeepTheInjectorStreamIdentical) {
  TwinWorld world = make_letter_twin(GetParam(), /*traced=*/obs::kEnabled);
  obs::EpochSampler sampler(32);
  world.live->set_telemetry(&sampler);

  sim::FaultPlan plan;
  plan.seed = 0x5eed;
  plan.drop_probability = 0.06;
  plan.delay_probability = 0.15;
  plan.max_delay = 3;
  plan.duplicate_probability = 0.08;
  sim::FaultInjector sampled_injector(plan);
  sim::FaultInjector bare_injector(plan);
  world.live->set_fault_injector(&sampled_injector);
  world.ref->set_fault_injector(&bare_injector);

  Rng rng(0xfa17);
  for (int trial = 0; trial < 30; ++trial) {
    const keyword::Query q = random_letter_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    const std::string context =
        keyword::to_string(q) + " faulted trial " + std::to_string(trial);
    expect_identical(world.live->query(q, origin),
                     world.ref->query(q, origin), context);
    // The strongest invariant: recording sites draw no RNG, so both twins
    // consume the injector's stream identically, draw for draw.
    ASSERT_EQ(sampled_injector.rng_draws(), bare_injector.rng_draws())
        << context;
    EXPECT_EQ(sampled_injector.dropped(), bare_injector.dropped()) << context;
    EXPECT_EQ(sampled_injector.delayed(), bare_injector.delayed()) << context;
    EXPECT_EQ(sampled_injector.duplicated(), bare_injector.duplicated())
        << context;
    sampler.advance_to(static_cast<sim::Time>(trial + 1) * 8);
  }
  EXPECT_GT(sampled_injector.rng_draws(), 0u);
  world.live->set_telemetry(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Configs, TelemetryDifferential,
                         ::testing::ValuesIn(kEngineMatrix), config_name);

} // namespace
} // namespace squid::core
