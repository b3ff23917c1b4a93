// The zero-fault differential lock (docs/FAULT_MODEL.md): attaching a
// FaultInjector with an EMPTY plan must leave every query bit-identical to
// running with no injector at all — same elements, same stats, same timing
// DAG, same trace — and must consume zero randomness. This is what lets
// every experiment link against the fault layer unconditionally.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/sim/fault.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using namespace testing_support;

struct Corpus {
  std::unique_ptr<SquidSystem> sys;
  std::vector<keyword::Query> queries;
};

Corpus make_corpus(std::uint64_t seed) {
  SquidConfig config;
  config.cache_cluster_owners = true;
  Rng rng(seed);
  Corpus corpus{
      make_letter_world(
          rng, {.letters = "abcd", .nodes = 48, .elements = 600, .name = "doc"},
          std::move(config))
          .sys,
      {}};
  corpus.sys->set_tracing(true);
  for (const char* text : {"a*, b*", "ab, *", "b*, *", "abc, abc", "*, c*"})
    corpus.queries.push_back(corpus.sys->space().parse(text));
  return corpus;
}

/// The shared live-vs-live lock plus what an empty plan promises on top:
/// every query completes without a retry or a failed cluster, traced.
void expect_transparent(const QueryResult& bare, const QueryResult& faulted) {
  expect_identical(bare, faulted, "empty fault plan");
  EXPECT_TRUE(faulted.complete);
  EXPECT_EQ(faulted.stats.retries, 0u);
  EXPECT_EQ(faulted.stats.failed_clusters, 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_NE(bare.trace, nullptr);
    EXPECT_NE(faulted.trace, nullptr);
  }
}

TEST(ZeroFaultDifferential, EmptyPlanIsBitTransparentForQueries) {
  Corpus bare = make_corpus(0xfau);
  Corpus faulted = make_corpus(0xfau);
  sim::FaultInjector injector{sim::FaultPlan{}};
  faulted.sys->set_fault_injector(&injector);

  Rng pick_bare(7), pick_faulted(7);
  for (const auto& q : bare.queries) {
    const auto origin = bare.sys->ring().random_node(pick_bare);
    ASSERT_EQ(origin, faulted.sys->ring().random_node(pick_faulted));
    expect_transparent(bare.sys->query(q, origin),
                       faulted.sys->query(q, origin));
  }
  EXPECT_EQ(injector.rng_draws(), 0u);
  EXPECT_EQ(injector.pending_timeout_reports(), 0u);
  EXPECT_EQ(faulted.sys->process_timeouts(), 0u);
}

TEST(ZeroFaultDifferential, EmptyPlanIsBitTransparentForCentralizedQueries) {
  Corpus bare = make_corpus(0xcau);
  Corpus faulted = make_corpus(0xcau);
  sim::FaultInjector injector{sim::FaultPlan{}};
  faulted.sys->set_fault_injector(&injector);

  Rng pick_bare(9), pick_faulted(9);
  for (const auto& q : bare.queries) {
    const auto origin = bare.sys->ring().random_node(pick_bare);
    ASSERT_EQ(origin, faulted.sys->ring().random_node(pick_faulted));
    expect_transparent(bare.sys->query_centralized(q, origin),
                       faulted.sys->query_centralized(q, origin));
  }
  EXPECT_EQ(injector.rng_draws(), 0u);
}

TEST(ZeroFaultDifferential, EmptyPlanLeavesCountQueriesIdentical) {
  Corpus bare = make_corpus(0x5eu);
  Corpus faulted = make_corpus(0x5eu);
  sim::FaultInjector injector{sim::FaultPlan{}};
  faulted.sys->set_fault_injector(&injector);

  const AggregateSpec count{AggregateKind::kCount};
  Rng pick_bare(11), pick_faulted(11);
  for (const auto& q : bare.queries) {
    const auto origin = bare.sys->ring().random_node(pick_bare);
    ASSERT_EQ(origin, faulted.sys->ring().random_node(pick_faulted));
    EXPECT_EQ(bare.sys->query_aggregate(q, count, origin).aggregate->count,
              faulted.sys->query_aggregate(q, count, origin).aggregate->count);
  }
  EXPECT_EQ(injector.rng_draws(), 0u);
}

} // namespace
} // namespace squid::core
