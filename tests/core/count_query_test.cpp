#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "squid/core/parallel.hpp"
#include "squid/core/system.hpp"
#include "squid/sim/engine.hpp"
#include "squid/workload/corpus.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using testing_support::kWorkerCounts;

/// The lockstep kCount pushdown's answer.
std::uint64_t count_of(const SquidSystem& sys, const keyword::Query& q,
                       overlay::NodeId origin) {
  return sys.query_aggregate(q, {AggregateKind::kCount}, origin)
      .aggregate->count;
}

// A kCount query_aggregate: every delivery mode must agree with the
// element count of query(), for partial-keyword range queries and for the
// whole-keyword point queries that take the point-lookup fast path.
TEST(CountQuery, AgreesWithFullQueryAcrossForms) {
  Rng rng(181);
  workload::KeywordCorpus corpus(2, 200, 0.9, rng);
  SquidSystem sys(corpus.make_space());
  sys.build_network(50, rng);
  for (const auto& e : corpus.make_elements(1200, rng)) sys.publish(e);

  const AggregateSpec count_spec{AggregateKind::kCount};
  std::vector<ParallelQuerySpec> specs;
  std::vector<std::size_t> expected;
  sim::Engine engine(0);
  std::vector<QueryHandle> handles;
  for (const std::size_t rank : {0u, 3u, 9u, 40u}) {
    for (const bool partial : {true, false}) {
      const keyword::Query q = corpus.q1(rank, partial);
      const auto origin = sys.ring().random_node(rng);
      const std::size_t matches = sys.query(q, origin).stats.matches;
      EXPECT_EQ(count_of(sys, q, origin), matches) << keyword::to_string(q);
      specs.push_back({q, origin, count_spec});
      expected.push_back(matches);
      handles.push_back(sys.query_aggregate_async(q, count_spec, origin, engine));
    }
  }

  // All counts in flight at once on one shared virtual clock.
  engine.run();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].ready()) << keyword::to_string(specs[i].query);
    EXPECT_EQ(handles[i].result().aggregate->count, expected[i])
        << keyword::to_string(specs[i].query) << " [async]";
  }

  for (const unsigned shards : kWorkerCounts) {
    ParallelOptions opts;
    opts.shards = shards;
    const ParallelRun run = sys.query_parallel(specs, opts);
    ASSERT_EQ(run.results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
      EXPECT_EQ(run.results[i].aggregate->count, expected[i])
          << keyword::to_string(specs[i].query) << " [S=" << shards << "]";
  }
}

TEST(CountQuery, EmptyAndFullSpace) {
  Rng rng(182);
  SquidSystem sys(keyword::KeywordSpace(
      {keyword::StringCodec("abc", 2), keyword::StringCodec("abc", 2)}));
  sys.build_network(10, rng);
  const auto origin = sys.ring().node_ids().front();
  EXPECT_EQ(count_of(sys, sys.space().parse("(*, *)"), origin), 0u);
  sys.publish({"one", {std::string("ab"), std::string("c")}});
  sys.publish({"two", {std::string("ab"), std::string("c")}});
  EXPECT_EQ(count_of(sys, sys.space().parse("(*, *)"), origin), 2u);
  EXPECT_EQ(count_of(sys, sys.space().parse("(ab, c)"), origin), 2u);
  EXPECT_EQ(count_of(sys, sys.space().parse("(b*, *)"), origin), 0u);
}

TEST(CountQuery, RequiresLiveOrigin) {
  Rng rng(183);
  SquidSystem sys(keyword::KeywordSpace(
      {keyword::StringCodec("abc", 2), keyword::StringCodec("abc", 2)}));
  sys.build_network(4, rng);
  EXPECT_THROW((void)count_of(sys, sys.space().parse("(*, *)"),
                              sys.ring().id_mask()),
               std::invalid_argument);
}

} // namespace
} // namespace squid::core
