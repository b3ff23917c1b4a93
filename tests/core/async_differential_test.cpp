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

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/obs/trace.hpp"
#include "squid/sim/fault.hpp"
#include "squid/util/rng.hpp"

namespace squid::core {
namespace {

using Config = std::tuple<std::string, unsigned, bool, bool>;
// curve, finger_base, aggregate, cache

class AsyncDifferential : public ::testing::TestWithParam<Config> {};

struct TwinWorld {
  std::unique_ptr<SquidSystem> live; ///< runs the message-driven engine
  std::unique_ptr<SquidSystem> ref;  ///< runs the frozen seed recursion
};

TwinWorld make_world(const Config& param, bool traced) {
  const auto& [curve, finger_base, aggregate, cache] = param;
  SquidConfig config;
  config.curve = curve;
  config.finger_base = finger_base;
  config.aggregate_subclusters = aggregate;
  config.cache_cluster_owners = cache;

  const char letters[] = "abcde";
  const keyword::KeywordSpace space(
      {keyword::StringCodec(letters, 3), keyword::StringCodec(letters, 3)});
  TwinWorld world;
  world.live = std::make_unique<SquidSystem>(space, config);
  world.ref = std::make_unique<SquidSystem>(space, config);
  world.live->set_tracing(traced);
  world.ref->set_tracing(traced);

  Rng rng_a(0xd1f ^ finger_base), rng_b(0xd1f ^ finger_base);
  world.live->build_network(35, rng_a);
  world.ref->build_network(35, rng_b);

  Rng rng(0xbeef);
  for (int i = 0; i < 400; ++i) {
    std::string a, b;
    for (std::uint64_t j = rng.range(1, 3); j-- > 0;)
      a.push_back(letters[rng.below(5)]);
    for (std::uint64_t j = rng.range(1, 3); j-- > 0;)
      b.push_back(letters[rng.below(5)]);
    const DataElement e{"e" + std::to_string(i), {a, b}};
    world.live->publish(e);
    world.ref->publish(e);
  }
  return world;
}

keyword::Query random_query(Rng& rng) {
  const char letters[] = "abcde";
  keyword::Query q;
  for (int dim = 0; dim < 2; ++dim) {
    const auto kind = rng.below(3);
    if (kind == 0) {
      q.terms.push_back(keyword::Any{});
    } else {
      std::string w;
      for (std::uint64_t j = rng.range(1, 3); j-- > 0;)
        w.push_back(letters[rng.below(5)]);
      if (kind == 1) {
        q.terms.push_back(keyword::Whole{w});
      } else {
        q.terms.push_back(keyword::Prefix{w});
      }
    }
  }
  return q;
}

std::vector<std::string> names_in_order(const QueryResult& r) {
  std::vector<std::string> names;
  for (const auto& e : r.elements) names.push_back(e.name);
  return names;
}

#if SQUID_OBS_ENABLED
/// Order-independent span fingerprint: everything except the indices that
/// depend on record order (parent / event / path slots).
using SpanKey =
    std::tuple<obs::SpanKind, overlay::NodeId, unsigned, sim::Time, sim::Time,
               std::uint32_t, std::uint32_t, std::uint32_t, u128, u128,
               std::uint64_t, std::uint64_t, std::uint64_t>;

std::vector<SpanKey> span_multiset(const obs::Trace& trace) {
  std::vector<SpanKey> keys;
  keys.reserve(trace.spans.size());
  for (const obs::Span& s : trace.spans) {
    keys.emplace_back(s.kind, s.node, s.level, s.start, s.end, s.hops,
                      s.messages, s.batch, s.range_lo, s.range_hi,
                      s.keys_scanned, s.keys_matched, s.matches);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}
#endif

void expect_identical(const QueryResult& live, const QueryResult& ref,
                      const std::string& context) {
  EXPECT_EQ(names_in_order(live), names_in_order(ref)) << context;
  EXPECT_EQ(live.complete, ref.complete) << context;
  EXPECT_EQ(live.stats.matches, ref.stats.matches) << context;
  EXPECT_EQ(live.stats.routing_nodes, ref.stats.routing_nodes) << context;
  EXPECT_EQ(live.stats.processing_nodes, ref.stats.processing_nodes)
      << context;
  EXPECT_EQ(live.stats.data_nodes, ref.stats.data_nodes) << context;
  EXPECT_EQ(live.stats.messages, ref.stats.messages) << context;
  EXPECT_EQ(live.stats.critical_path_hops, ref.stats.critical_path_hops)
      << context;
  EXPECT_EQ(live.stats.retries, ref.stats.retries) << context;
  EXPECT_EQ(live.stats.failed_clusters, ref.stats.failed_clusters) << context;
  ASSERT_EQ(live.timing.size(), ref.timing.size()) << context;
  for (std::size_t i = 0; i < live.timing.size(); ++i) {
    EXPECT_EQ(live.timing[i].parent, ref.timing[i].parent)
        << context << " timing " << i;
    EXPECT_EQ(live.timing[i].hops, ref.timing[i].hops)
        << context << " timing " << i;
  }
#if SQUID_OBS_ENABLED
  ASSERT_EQ(live.trace != nullptr, ref.trace != nullptr) << context;
  if (live.trace) {
    EXPECT_EQ(span_multiset(*live.trace), span_multiset(*ref.trace))
        << context;
    const QueryStats live_derived = obs::derive_stats(*live.trace);
    const QueryStats ref_derived = obs::derive_stats(*ref.trace);
    EXPECT_EQ(live_derived.messages, ref_derived.messages) << context;
    EXPECT_EQ(live_derived.retries, ref_derived.retries) << context;
    EXPECT_EQ(live_derived.failed_clusters, ref_derived.failed_clusters)
        << context;
  }
#endif
}

TEST_P(AsyncDifferential, FaultFreeQueriesMatchTheSeedRecursion) {
  TwinWorld world = make_world(GetParam(), /*traced=*/obs::kEnabled);
  Rng rng(0x90ff);
  for (int trial = 0; trial < 40; ++trial) {
    const keyword::Query q = random_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    const std::string context =
        keyword::to_string(q) + " trial " + std::to_string(trial);
    expect_identical(world.live->query(q, origin),
                     world.ref->query_reference(q, origin), context);
  }
}

TEST_P(AsyncDifferential, CountQueriesMatchTheSeedRecursion) {
  TwinWorld world = make_world(GetParam(), /*traced=*/false);
  Rng rng(0xc0c0);
  for (int trial = 0; trial < 20; ++trial) {
    const keyword::Query q = random_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    EXPECT_EQ(world.live->query_aggregate(q, {AggregateKind::kCount}, origin)
                  .aggregate->count,
              world.ref->count_reference(q, origin))
        << keyword::to_string(q);
  }
}

TEST_P(AsyncDifferential, CentralizedQueriesMatchTheSeedRecursion) {
  TwinWorld world = make_world(GetParam(), /*traced=*/obs::kEnabled);
  Rng rng(0xce47);
  for (int trial = 0; trial < 10; ++trial) {
    const keyword::Query q = random_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    expect_identical(world.live->query_centralized(q, origin),
                     world.ref->query_centralized_reference(q, origin),
                     keyword::to_string(q) + " [centralized]");
  }
}

TEST_P(AsyncDifferential, FaultedQueriesMatchIncludingTheRngStream) {
  TwinWorld world = make_world(GetParam(), /*traced=*/obs::kEnabled);

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
    const keyword::Query q = random_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    const std::string context =
        keyword::to_string(q) + " faulted trial " + std::to_string(trial);
    expect_identical(world.live->query(q, origin),
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
  TwinWorld world = make_world(GetParam(), /*traced=*/false);

  sim::FaultPlan plan;
  plan.partitions.push_back({0, 1 << 20, u128{1} << 100});
  sim::FaultInjector live_injector(plan);
  sim::FaultInjector ref_injector(plan);
  world.live->set_fault_injector(&live_injector);
  world.ref->set_fault_injector(&ref_injector);

  Rng rng(0x9a27);
  for (int trial = 0; trial < 10; ++trial) {
    const keyword::Query q = random_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    expect_identical(world.live->query(q, origin),
                     world.ref->query_reference(q, origin),
                     "partition trial " + std::to_string(trial));
  }
  // Time-travel both injectors past the window: partitions lift in both.
  live_injector.set_now(1 << 20);
  ref_injector.set_now(1 << 20);
  for (int trial = 0; trial < 5; ++trial) {
    const keyword::Query q = random_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    const auto live = world.live->query(q, origin);
    expect_identical(live, world.ref->query_reference(q, origin),
                     "lifted trial " + std::to_string(trial));
    EXPECT_TRUE(live.complete);
  }
  EXPECT_EQ(live_injector.partition_drops(), ref_injector.partition_drops());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AsyncDifferential,
    ::testing::Values(Config{"hilbert", 2, true, false},
                      Config{"hilbert", 2, false, false},
                      Config{"hilbert", 2, true, true},
                      Config{"hilbert", 8, true, false},
                      Config{"hilbert", 8, true, true},
                      Config{"zorder", 2, true, false},
                      Config{"zorder", 4, false, true},
                      Config{"gray", 2, true, false},
                      Config{"gray", 16, true, true}),
    [](const auto& info) {
      return std::get<0>(info.param) + "_b" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_agg" : "_noagg") +
             (std::get<3>(info.param) ? "_cache" : "_nocache");
    });

} // namespace
} // namespace squid::core
