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
//
// Shard counts default to {1, 2, 4}; the SQUID_PARALLEL_SHARDS env var
// (comma-separated) overrides — CI's TSan job sets "2,4" to spend its time
// on the genuinely concurrent cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "squid/core/parallel.hpp"
#include "squid/core/system.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/obs/trace.hpp"
#include "squid/sim/fault.hpp"
#include "squid/util/rng.hpp"

namespace squid::core {
namespace {

using Config = std::tuple<std::string, unsigned, bool, bool>;
// curve, finger_base, aggregate, cache

class ParallelDifferential : public ::testing::TestWithParam<Config> {};

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
  std::unique_ptr<SquidSystem> live; ///< runs query_parallel
  std::unique_ptr<SquidSystem> ref;  ///< runs lockstep query()
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

std::vector<ParallelQuerySpec> random_batch(const SquidSystem& sys,
                                            std::size_t count,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ParallelQuerySpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ParallelQuerySpec spec;
    spec.query = random_query(rng);
    spec.origin = sys.ring().random_node(rng);
    specs.push_back(std::move(spec));
  }
  return specs;
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

void expect_identical(const QueryResult& par, const QueryResult& ref,
                      const std::string& context) {
  EXPECT_EQ(names_in_order(par), names_in_order(ref)) << context;
  EXPECT_EQ(par.complete, ref.complete) << context;
  EXPECT_EQ(par.stats.matches, ref.stats.matches) << context;
  EXPECT_EQ(par.stats.routing_nodes, ref.stats.routing_nodes) << context;
  EXPECT_EQ(par.stats.processing_nodes, ref.stats.processing_nodes) << context;
  EXPECT_EQ(par.stats.data_nodes, ref.stats.data_nodes) << context;
  EXPECT_EQ(par.stats.messages, ref.stats.messages) << context;
  EXPECT_EQ(par.stats.critical_path_hops, ref.stats.critical_path_hops)
      << context;
  EXPECT_EQ(par.stats.retries, ref.stats.retries) << context;
  EXPECT_EQ(par.stats.failed_clusters, ref.stats.failed_clusters) << context;
  // Reply-path accounting is a sum of per-scan measured terms, so it must
  // be mode-identical too.
  EXPECT_EQ(par.stats.bytes_shipped, ref.stats.bytes_shipped) << context;
  EXPECT_EQ(par.stats.reply_messages, ref.stats.reply_messages) << context;
  ASSERT_EQ(par.timing.size(), ref.timing.size()) << context;
  for (std::size_t i = 0; i < par.timing.size(); ++i) {
    EXPECT_EQ(par.timing[i].parent, ref.timing[i].parent)
        << context << " timing " << i;
    EXPECT_EQ(par.timing[i].hops, ref.timing[i].hops)
        << context << " timing " << i;
  }
#if SQUID_OBS_ENABLED
  ASSERT_EQ(par.trace != nullptr, ref.trace != nullptr) << context;
  if (par.trace) {
    EXPECT_EQ(span_multiset(*par.trace), span_multiset(*ref.trace)) << context;
    const QueryStats par_derived = obs::derive_stats(*par.trace);
    const QueryStats ref_derived = obs::derive_stats(*ref.trace);
    EXPECT_EQ(par_derived.messages, ref_derived.messages) << context;
    EXPECT_EQ(par_derived.retries, ref_derived.retries) << context;
    EXPECT_EQ(par_derived.failed_clusters, ref_derived.failed_clusters)
        << context;
  }
#endif
}

TEST_P(ParallelDifferential, FaultFreeBatchesMatchLockstepAtEveryShardCount) {
  TwinWorld world = make_world(GetParam(), /*traced=*/obs::kEnabled);
  const std::vector<ParallelQuerySpec> specs =
      random_batch(*world.live, 24, 0x90ff);
  for (unsigned shards : shard_counts()) {
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
    if (std::get<3>(GetParam())) world = make_world(GetParam(), obs::kEnabled);
  }
}

TEST_P(ParallelDifferential, FaultedBatchesMatchIncludingPerQueryRngStreams) {
  sim::FaultPlan plan;
  plan.seed = 0x5eed;
  plan.drop_probability = 0.06;
  plan.delay_probability = 0.15;
  plan.max_delay = 3;
  plan.duplicate_probability = 0.08;

  TwinWorld world = make_world(GetParam(), /*traced=*/obs::kEnabled);
  const std::vector<ParallelQuerySpec> specs =
      random_batch(*world.live, 24, 0xfa17);
  std::uint64_t total_draws = 0;
  for (unsigned shards : shard_counts()) {
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
    if (std::get<3>(GetParam())) world = make_world(GetParam(), obs::kEnabled);
  }
  EXPECT_GT(total_draws, 0u); // the plan actually exercised the fault path
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelDifferential,
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

TEST(ForEachIndex, RunsEveryIndexOnceAndForwardsTheFirstFailure) {
  for (const unsigned workers : {1u, 2u, 4u}) {
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
