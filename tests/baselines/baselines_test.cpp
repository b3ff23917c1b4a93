// Baseline correctness: every comparator must return the same matches as
// Squid's engine (when it can express the query at all), so the comparative
// benches measure cost differences, never correctness differences.

#include <gtest/gtest.h>

#include "squid/baselines/chord_oracle.hpp"
#include "squid/baselines/flooding.hpp"
#include "squid/baselines/inverted_index.hpp"
#include "squid/core/system.hpp"
#include "squid/workload/corpus.hpp"
#include "support/differential.hpp"

namespace squid::baselines {
namespace {

struct World {
  std::unique_ptr<workload::KeywordCorpus> corpus;
  std::unique_ptr<core::SquidSystem> sys;
  std::vector<core::DataElement> all;
};

World make_world(std::uint64_t seed, std::size_t nodes, std::size_t elements) {
  World world;
  Rng rng(seed);
  world.corpus = std::make_unique<workload::KeywordCorpus>(2, 200, 0.9, rng);
  world.sys =
      std::make_unique<core::SquidSystem>(world.corpus->make_space());
  world.sys->build_network(nodes, rng);
  world.all = world.corpus->make_elements(elements, rng);
  for (const auto& e : world.all) world.sys->publish(e);
  return world;
}

std::size_t oracle_count(const World& world, const keyword::Query& q) {
  return testing_support::oracle_names(world.sys->space(), world.all, q)
      .size();
}

TEST(Flooding, UnboundedFloodIsCompleteButTouchesEveryone) {
  Rng rng(51);
  World world = make_world(51, 50, 1000);
  FloodingNetwork flood(200, 4, rng);
  for (const auto& e : world.all) flood.publish(e, rng);
  const keyword::Query q = world.corpus->q1(0, true);
  const auto result =
      flood.query(world.sys->space(), q, /*ttl=*/200, rng);
  EXPECT_EQ(result.matches, flood.total_matches(world.sys->space(), q));
  EXPECT_EQ(result.nodes_visited, flood.size()); // the whole network
  EXPECT_GE(result.messages, flood.size());      // at least one per peer
}

TEST(Flooding, TtlBoundedFloodMisses) {
  Rng rng(52);
  World world = make_world(52, 50, 2000);
  FloodingNetwork flood(500, 4, rng);
  for (const auto& e : world.all) flood.publish(e, rng);
  const keyword::Query q = world.corpus->q1(0, true);
  const std::size_t total = flood.total_matches(world.sys->space(), q);
  ASSERT_GT(total, 20u);
  const auto result = flood.query(world.sys->space(), q, /*ttl=*/2, rng);
  EXPECT_LT(result.matches, total); // no guarantee with a practical TTL
}

TEST(ChordOracle, FindsEveryMatchGivenGlobalKnowledge) {
  Rng rng(53);
  World world = make_world(53, 60, 1500);
  for (const std::size_t rank : {0u, 3u, 10u}) {
    const keyword::Query q = world.corpus->q1(rank, true);
    const OracleResult oracle = chord_oracle_query(*world.sys, q, rng);
    EXPECT_EQ(oracle.matches, oracle_count(world, q));
    // Cost model: two messages per matching key.
    EXPECT_EQ(oracle.messages, 2 * oracle.matching_keys);
  }
}

TEST(CentralizedQuery, AgreesWithDistributedEngine) {
  Rng rng(54);
  World world = make_world(54, 60, 1500);
  for (const std::size_t rank : {0u, 2u, 7u}) {
    const keyword::Query q = world.corpus->q1(rank, true);
    const auto origin = world.sys->ring().random_node(rng);
    const auto distributed = world.sys->query(q, origin);
    const auto centralized = world.sys->query_centralized(q, origin);
    EXPECT_EQ(centralized.stats.matches, distributed.stats.matches);
    EXPECT_EQ(testing_support::sorted_names(centralized.elements),
              testing_support::sorted_names(distributed.elements));
  }
}

TEST(CentralizedQuery, SegmentCapStillComplete) {
  Rng rng(55);
  World world = make_world(55, 40, 800);
  const keyword::Query q = world.corpus->q1(1, true);
  const auto origin = world.sys->ring().random_node(rng);
  const auto tight = world.sys->query_centralized(q, origin, /*max_segments=*/4);
  const auto loose = world.sys->query_centralized(q, origin, 4096);
  EXPECT_EQ(tight.stats.matches, loose.stats.matches);
}

TEST(InvertedIndex, WholeKeywordConjunctionsAreExact) {
  Rng rng(56);
  World world = make_world(56, 60, 1500);
  InvertedIndexDht index(60, rng);
  for (const auto& e : world.all) index.publish(e);

  const std::string a = world.corpus->vocabulary().by_rank(0);
  const std::string b = world.corpus->vocabulary().by_rank(1);
  {
    const auto result = index.query_whole({a, "*"}, rng);
    keyword::Query q{{keyword::Whole{a}, keyword::Any{}}};
    EXPECT_EQ(result.matches, oracle_count(world, q));
  }
  {
    const auto result = index.query_whole({a, b}, rng);
    keyword::Query q{{keyword::Whole{a}, keyword::Whole{b}}};
    EXPECT_EQ(result.matches, oracle_count(world, q));
    EXPECT_EQ(result.posting_nodes, 2u);
    EXPECT_EQ(result.messages, 4u);
  }
}

TEST(InvertedIndex, PrefixQueriesCostOneLookupPerVocabularyExpansion) {
  Rng rng(57);
  World world = make_world(57, 60, 1500);
  InvertedIndexDht index(60, rng);
  for (const auto& e : world.all) index.publish(e);

  const std::string word = world.corpus->vocabulary().by_rank(0);
  const std::string prefix = word.substr(0, 2);
  std::size_t expansions = 0;
  for (const auto& w : world.corpus->vocabulary().words())
    expansions += w.starts_with(prefix);
  ASSERT_GE(expansions, 2u);

  const auto result = index.query_prefix(
      0, prefix, world.corpus->vocabulary().words(), rng);
  keyword::Query q{{keyword::Prefix{prefix}, keyword::Any{}}};
  EXPECT_EQ(result.matches, oracle_count(world, q));
  EXPECT_EQ(result.messages, 2 * expansions);
}

TEST(InvertedIndex, RejectsAllWildcardQueries) {
  Rng rng(58);
  InvertedIndexDht index(10, rng);
  EXPECT_THROW((void)index.query_whole({"*", "*"}, rng),
               std::invalid_argument);
}

} // namespace
} // namespace squid::baselines
