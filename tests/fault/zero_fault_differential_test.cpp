// The zero-fault differential lock (docs/FAULT_MODEL.md): attaching a
// FaultInjector with an EMPTY plan must leave every query bit-identical to
// running with no injector at all — same elements, same stats, same timing
// DAG, same trace — and must consume zero randomness. This is what lets
// every experiment link against the fault layer unconditionally.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/obs/metrics.hpp" // defines the SQUID_OBS_ENABLED default
#include "squid/obs/trace.hpp"
#include "squid/sim/fault.hpp"
#include "squid/util/rng.hpp"

namespace squid::core {
namespace {

struct Corpus {
  SquidSystem sys;
  std::vector<keyword::Query> queries;
};

Corpus make_corpus(std::uint64_t seed) {
  SquidConfig config;
  config.cache_cluster_owners = true;
  Corpus corpus{
      SquidSystem(keyword::KeywordSpace({keyword::StringCodec("abcd", 3),
                                         keyword::StringCodec("abcd", 3)}),
                  std::move(config)),
      {}};
  corpus.sys.set_tracing(true);
  Rng rng(seed);
  corpus.sys.build_network(48, rng);
  const char letters[] = "abcd";
  for (std::size_t i = 0; i < 600; ++i) {
    std::string a, b;
    for (std::uint64_t j = rng.range(1, 3); j-- > 0;)
      a.push_back(letters[rng.below(4)]);
    for (std::uint64_t j = rng.range(1, 3); j-- > 0;)
      b.push_back(letters[rng.below(4)]);
    corpus.sys.publish(DataElement{"doc" + std::to_string(i), {a, b}});
  }
  for (const char* text : {"a*, b*", "ab, *", "b*, *", "abc, abc", "*, c*"})
    corpus.queries.push_back(corpus.sys.space().parse(text));
  return corpus;
}

std::vector<std::string> names_of(const QueryResult& r) {
  std::vector<std::string> names;
  for (const auto& e : r.elements) names.push_back(e.name);
  std::sort(names.begin(), names.end());
  return names;
}

void expect_identical(const QueryResult& bare, const QueryResult& faulted) {
  EXPECT_EQ(names_of(bare), names_of(faulted));
  EXPECT_EQ(bare.complete, faulted.complete);
  EXPECT_TRUE(faulted.complete);
  EXPECT_EQ(bare.stats.matches, faulted.stats.matches);
  EXPECT_EQ(bare.stats.messages, faulted.stats.messages);
  EXPECT_EQ(bare.stats.routing_nodes, faulted.stats.routing_nodes);
  EXPECT_EQ(bare.stats.processing_nodes, faulted.stats.processing_nodes);
  EXPECT_EQ(bare.stats.data_nodes, faulted.stats.data_nodes);
  EXPECT_EQ(bare.stats.critical_path_hops, faulted.stats.critical_path_hops);
  EXPECT_EQ(bare.stats.retries, faulted.stats.retries);
  EXPECT_EQ(faulted.stats.retries, 0u);
  EXPECT_EQ(bare.stats.failed_clusters, faulted.stats.failed_clusters);
  EXPECT_EQ(faulted.stats.failed_clusters, 0u);
  ASSERT_EQ(bare.timing.size(), faulted.timing.size());
  for (std::size_t i = 0; i < bare.timing.size(); ++i) {
    EXPECT_EQ(bare.timing[i].parent, faulted.timing[i].parent);
    EXPECT_EQ(bare.timing[i].hops, faulted.timing[i].hops);
  }
#if SQUID_OBS_ENABLED
  ASSERT_TRUE(bare.trace && faulted.trace);
  EXPECT_EQ(bare.trace->spans.size(), faulted.trace->spans.size());
  for (std::size_t i = 0; i < bare.trace->spans.size(); ++i) {
    const auto& a = bare.trace->spans[i];
    const auto& b = faulted.trace->spans[i];
    EXPECT_EQ(a.kind, b.kind) << "span " << i;
    EXPECT_EQ(a.node, b.node) << "span " << i;
    EXPECT_EQ(a.messages, b.messages) << "span " << i;
    EXPECT_EQ(a.start, b.start) << "span " << i;
    EXPECT_EQ(a.end, b.end) << "span " << i;
  }
#endif
}

TEST(ZeroFaultDifferential, EmptyPlanIsBitTransparentForQueries) {
  Corpus bare = make_corpus(0xfau);
  Corpus faulted = make_corpus(0xfau);
  sim::FaultInjector injector{sim::FaultPlan{}};
  faulted.sys.set_fault_injector(&injector);

  Rng pick_bare(7), pick_faulted(7);
  for (const auto& q : bare.queries) {
    const auto origin = bare.sys.ring().random_node(pick_bare);
    ASSERT_EQ(origin, faulted.sys.ring().random_node(pick_faulted));
    expect_identical(bare.sys.query(q, origin), faulted.sys.query(q, origin));
  }
  EXPECT_EQ(injector.rng_draws(), 0u);
  EXPECT_EQ(injector.pending_timeout_reports(), 0u);
  EXPECT_EQ(faulted.sys.process_timeouts(), 0u);
}

TEST(ZeroFaultDifferential, EmptyPlanIsBitTransparentForCentralizedQueries) {
  Corpus bare = make_corpus(0xcau);
  Corpus faulted = make_corpus(0xcau);
  sim::FaultInjector injector{sim::FaultPlan{}};
  faulted.sys.set_fault_injector(&injector);

  Rng pick_bare(9), pick_faulted(9);
  for (const auto& q : bare.queries) {
    const auto origin = bare.sys.ring().random_node(pick_bare);
    ASSERT_EQ(origin, faulted.sys.ring().random_node(pick_faulted));
    expect_identical(bare.sys.query_centralized(q, origin),
                     faulted.sys.query_centralized(q, origin));
  }
  EXPECT_EQ(injector.rng_draws(), 0u);
}

TEST(ZeroFaultDifferential, EmptyPlanLeavesCountQueriesIdentical) {
  Corpus bare = make_corpus(0x5eu);
  Corpus faulted = make_corpus(0x5eu);
  sim::FaultInjector injector{sim::FaultPlan{}};
  faulted.sys.set_fault_injector(&injector);

  const AggregateSpec count{AggregateKind::kCount};
  Rng pick_bare(11), pick_faulted(11);
  for (const auto& q : bare.queries) {
    const auto origin = bare.sys.ring().random_node(pick_bare);
    ASSERT_EQ(origin, faulted.sys.ring().random_node(pick_faulted));
    EXPECT_EQ(bare.sys.query_aggregate(q, count, origin).aggregate->count,
              faulted.sys.query_aggregate(q, count, origin).aggregate->count);
  }
  EXPECT_EQ(injector.rng_draws(), 0u);
}

} // namespace
} // namespace squid::core
