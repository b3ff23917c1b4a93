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
// and the sharded parallel executor at S in {1,2,4} (SQUID_PARALLEL_SHARDS
// overrides), faults off AND on. The sampled twin's series is also checked
// non-empty (with observability compiled in), so the lock is not vacuous.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "squid/core/parallel.hpp"
#include "squid/core/system.hpp"
#include "squid/obs/hotspot.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/obs/telemetry.hpp"
#include "squid/obs/trace.hpp"
#include "squid/sim/engine.hpp"
#include "squid/sim/fault.hpp"
#include "squid/util/rng.hpp"

namespace squid::core {
namespace {

using Config = std::tuple<std::string, unsigned, bool, bool>;
// curve, finger_base, aggregate, cache

class TelemetryDifferential : public ::testing::TestWithParam<Config> {};

std::vector<unsigned> shard_counts() {
  const char* env = std::getenv("SQUID_PARALLEL_SHARDS");
  if (env == nullptr || *env == '\0') return {1, 2, 4};
  std::vector<unsigned> out;
  unsigned current = 0;
  bool any = false;
  for (const char* p = env;; ++p) {
    if (*p >= '0' && *p <= '9') {
      current = current * 10 + static_cast<unsigned>(*p - '0');
      any = true;
    } else {
      if (any && current > 0) out.push_back(current);
      current = 0;
      any = false;
      if (*p == '\0') break;
    }
  }
  return out.empty() ? std::vector<unsigned>{1, 2, 4} : out;
}

struct TwinWorld {
  std::unique_ptr<SquidSystem> sampled; ///< runs with telemetry attached
  std::unique_ptr<SquidSystem> bare;    ///< identical, no sampler
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
  world.sampled = std::make_unique<SquidSystem>(space, config);
  world.bare = std::make_unique<SquidSystem>(space, config);
  world.sampled->set_tracing(traced);
  world.bare->set_tracing(traced);

  Rng rng_a(0xd1f ^ finger_base), rng_b(0xd1f ^ finger_base);
  world.sampled->build_network(35, rng_a);
  world.bare->build_network(35, rng_b);

  Rng rng(0xbeef);
  for (int i = 0; i < 400; ++i) {
    std::string a, b;
    for (std::uint64_t j = rng.range(1, 3); j-- > 0;)
      a.push_back(letters[rng.below(5)]);
    for (std::uint64_t j = rng.range(1, 3); j-- > 0;)
      b.push_back(letters[rng.below(5)]);
    const DataElement e{"e" + std::to_string(i), {a, b}};
    world.sampled->publish(e);
    world.bare->publish(e);
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

void expect_identical(const QueryResult& sampled, const QueryResult& bare,
                      const std::string& context) {
  EXPECT_EQ(names_in_order(sampled), names_in_order(bare)) << context;
  EXPECT_EQ(sampled.complete, bare.complete) << context;
  EXPECT_EQ(sampled.stats.matches, bare.stats.matches) << context;
  EXPECT_EQ(sampled.stats.routing_nodes, bare.stats.routing_nodes) << context;
  EXPECT_EQ(sampled.stats.processing_nodes, bare.stats.processing_nodes)
      << context;
  EXPECT_EQ(sampled.stats.data_nodes, bare.stats.data_nodes) << context;
  EXPECT_EQ(sampled.stats.messages, bare.stats.messages) << context;
  EXPECT_EQ(sampled.stats.critical_path_hops, bare.stats.critical_path_hops)
      << context;
  EXPECT_EQ(sampled.stats.retries, bare.stats.retries) << context;
  EXPECT_EQ(sampled.stats.failed_clusters, bare.stats.failed_clusters)
      << context;
  EXPECT_EQ(sampled.stats.bytes_shipped, bare.stats.bytes_shipped) << context;
  EXPECT_EQ(sampled.stats.reply_messages, bare.stats.reply_messages)
      << context;
  ASSERT_EQ(sampled.timing.size(), bare.timing.size()) << context;
  for (std::size_t i = 0; i < sampled.timing.size(); ++i) {
    EXPECT_EQ(sampled.timing[i].parent, bare.timing[i].parent)
        << context << " timing " << i;
    EXPECT_EQ(sampled.timing[i].hops, bare.timing[i].hops)
        << context << " timing " << i;
  }
#if SQUID_OBS_ENABLED
  ASSERT_EQ(sampled.trace != nullptr, bare.trace != nullptr) << context;
  if (sampled.trace) {
    EXPECT_EQ(span_multiset(*sampled.trace), span_multiset(*bare.trace))
        << context;
  }
#endif
}

/// Total load the sampler collected, summed over the whole series.
std::uint64_t collected_load(obs::EpochSampler& sampler) {
  std::uint64_t total = 0;
  for (const auto& epoch : sampler.finish().epochs)
    total += epoch.total().total();
  return total;
}

TEST_P(TelemetryDifferential, LockstepQueriesAreUnperturbedBySampling) {
  TwinWorld world = make_world(GetParam(), /*traced=*/obs::kEnabled);
  obs::EpochSampler sampler(32);
  world.sampled->set_telemetry(&sampler);

  Rng rng(0x7e1e);
  for (int trial = 0; trial < 30; ++trial) {
    const keyword::Query q = random_query(rng);
    const auto origin = world.sampled->ring().random_node(rng);
    const std::string context =
        keyword::to_string(q) + " trial " + std::to_string(trial);
    expect_identical(world.sampled->query(q, origin),
                     world.bare->query(q, origin), context);
    // Harness clock ticks between queries, crossing epoch boundaries.
    sampler.advance_to(static_cast<sim::Time>(trial + 1) * 8);
  }
  world.sampled->set_telemetry(nullptr);

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
  TwinWorld world = make_world(GetParam(), /*traced=*/obs::kEnabled);
  const bool cache = std::get<3>(GetParam());
  obs::EpochSampler sampler(16);
  world.sampled->set_telemetry(&sampler);

  Rng rng(0xa5c1);
  std::vector<keyword::Query> queries;
  std::vector<overlay::NodeId> origins;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(random_query(rng));
    origins.push_back(world.sampled->ring().random_node(rng));
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
          world.sampled->query_async(queries[i], origins[i], sampled_engine));
      bare_handles.push_back(
          world.bare->query_async(queries[i], origins[i], bare_engine));
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
  world.sampled->set_telemetry(nullptr);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(collected_load(sampler), 0u);
  }
}

TEST_P(TelemetryDifferential, ParallelBatchesAreUnperturbedBySampling) {
  for (const unsigned shards : shard_counts()) {
    // A fresh twin per shard count: the owner cache, when on, couples runs.
    TwinWorld world = make_world(GetParam(), /*traced=*/obs::kEnabled);
    obs::EpochSampler sampler(32);
    world.sampled->set_telemetry(&sampler);

    Rng rng(0x9ba7 ^ shards);
    std::vector<ParallelQuerySpec> specs;
    for (int i = 0; i < 16; ++i) {
      ParallelQuerySpec spec;
      spec.query = random_query(rng);
      spec.origin = world.sampled->ring().random_node(rng);
      specs.push_back(std::move(spec));
    }
    ParallelOptions opts;
    opts.shards = shards;
    const ParallelRun sampled_run = world.sampled->query_parallel(specs, opts);
    const ParallelRun bare_run = world.bare->query_parallel(specs, opts);
    ASSERT_EQ(sampled_run.results.size(), specs.size());
    ASSERT_EQ(bare_run.results.size(), specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
      expect_identical(sampled_run.results[k], bare_run.results[k],
                       "S=" + std::to_string(shards) + " query " +
                           std::to_string(k));
    }
    // advance_to only between batches — never while shards are in flight.
    sampler.advance_to(64);
    world.sampled->set_telemetry(nullptr);
    if constexpr (obs::kEnabled) {
      EXPECT_GT(collected_load(sampler), 0u);
    }
  }
}

TEST_P(TelemetryDifferential, FaultedQueriesKeepTheInjectorStreamIdentical) {
  TwinWorld world = make_world(GetParam(), /*traced=*/obs::kEnabled);
  obs::EpochSampler sampler(32);
  world.sampled->set_telemetry(&sampler);

  sim::FaultPlan plan;
  plan.seed = 0x5eed;
  plan.drop_probability = 0.06;
  plan.delay_probability = 0.15;
  plan.max_delay = 3;
  plan.duplicate_probability = 0.08;
  sim::FaultInjector sampled_injector(plan);
  sim::FaultInjector bare_injector(plan);
  world.sampled->set_fault_injector(&sampled_injector);
  world.bare->set_fault_injector(&bare_injector);

  Rng rng(0xfa17);
  for (int trial = 0; trial < 30; ++trial) {
    const keyword::Query q = random_query(rng);
    const auto origin = world.sampled->ring().random_node(rng);
    const std::string context =
        keyword::to_string(q) + " faulted trial " + std::to_string(trial);
    expect_identical(world.sampled->query(q, origin),
                     world.bare->query(q, origin), context);
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
  world.sampled->set_telemetry(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TelemetryDifferential,
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
