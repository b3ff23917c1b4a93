// Query-engine correctness: the paper's central guarantee is that *all*
// data elements matching a query are found (completeness) with bounded
// cost. These tests check engine results against a brute-force oracle over
// every stored element, across all query forms, and validate the cost
// accounting invariants.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "squid/core/system.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using namespace testing_support;

LetterWorld make_doc_corpus(std::uint64_t seed, std::size_t nodes,
                            std::size_t elements, SquidConfig config = {}) {
  Rng rng(seed);
  return make_letter_world(rng,
                           {.letters = "abcd",
                            .nodes = nodes,
                            .elements = elements,
                            .name = "doc"},
                           std::move(config));
}

void check_query(const LetterWorld& corpus, const keyword::Query& q,
                 Rng& rng) {
  const SquidSystem& sys = *corpus.sys;
  const auto origin = sys.ring().random_node(rng);
  const QueryResult result = sys.query(q, origin);
  EXPECT_EQ(sorted_names(result.elements),
            oracle_names(sys.space(), corpus.all, q))
      << "query " << keyword::to_string(q);
  // Cost-accounting invariants.
  const auto& s = result.stats;
  EXPECT_EQ(s.matches, result.elements.size());
  EXPECT_LE(s.data_nodes, s.processing_nodes);
  EXPECT_LE(s.processing_nodes, s.routing_nodes);
  EXPECT_LE(s.routing_nodes, sys.ring().size());
  if (s.matches > 0) {
    EXPECT_GE(s.data_nodes, 1u);
  }
}

TEST(QueryEngine, CompletenessAcrossAllQueryForms) {
  const LetterWorld corpus = make_doc_corpus(11, 40, 400);
  Rng rng(12);
  const std::vector<std::string> queries{
      "(a, b)",    "(ab, *)",    "(*, cd)",   "(a*, *)",   "(*, a*)",
      "(ab*, c*)", "(c*, d*)",   "(*, *)",    "(dcb, a)",  "(b*, bcd)",
      "(aaa, *)",  "(d*, *)",    "(a*, b*)",  "(abc, bcd)"};
  for (const auto& text : queries)
    check_query(corpus, corpus.sys->space().parse(text), rng);
}

TEST(QueryEngine, CompletenessFromEveryOrigin) {
  const LetterWorld corpus = make_doc_corpus(13, 20, 150);
  const keyword::Query q = corpus.sys->space().parse("(b*, *)");
  const auto expected = oracle_names(corpus.sys->space(), corpus.all, q);
  for (const auto origin : corpus.sys->ring().node_ids()) {
    const QueryResult result = corpus.sys->query(q, origin);
    EXPECT_EQ(sorted_names(result.elements), expected);
  }
}

TEST(QueryEngine, RandomizedQueriesAgainstOracle) {
  const LetterWorld corpus = make_doc_corpus(17, 60, 500);
  Rng rng(18);
  for (int trial = 0; trial < 150; ++trial)
    check_query(corpus, random_letter_query(rng, "abcd"), rng);
}

TEST(QueryEngine, ExactKeyQueryIsAPointLookup) {
  const LetterWorld corpus = make_doc_corpus(19, 40, 300);
  Rng rng(20);
  // A fully specified query maps to at most one index -> at most one data
  // node, and the message count stays O(1) (one dispatch plus its reply).
  const QueryResult result =
      corpus.sys->query(corpus.sys->space().parse("(abc, bcd)"),
                        corpus.sys->ring().random_node(rng));
  EXPECT_LE(result.stats.data_nodes, 1u);
  EXPECT_LE(result.stats.messages, 3u);
  EXPECT_LE(result.stats.processing_nodes, 2u);
}

TEST(QueryEngine, EmptyResultQueriesTerminateCleanly) {
  const LetterWorld corpus = make_doc_corpus(21, 30, 100);
  Rng rng(22);
  // "dddd..." truncates to "ddd" (max_len 3): legal but never published.
  const QueryResult result =
      corpus.sys->query(corpus.sys->space().parse("(ddd, ddd)"),
                        corpus.sys->ring().random_node(rng));
  EXPECT_EQ(result.stats.matches, 0u);
  EXPECT_EQ(result.stats.data_nodes, 0u);
}

TEST(QueryEngine, AggregationReducesMessagesWhenClustersShareOwners) {
  // Aggregation pays off when many sibling sub-clusters land on the same
  // peer (paper 3.4.2): few nodes over a 3D space maximizes sharing. With
  // one sub-cluster per destination aggregation costs an extra reply, so it
  // is not universally cheaper — this test exercises the regime it targets.
  const auto build = [](bool aggregate) {
    SquidConfig config;
    config.aggregate_subclusters = aggregate;
    SquidSystem sys(keyword::KeywordSpace({keyword::StringCodec("abcd", 2),
                                           keyword::StringCodec("abcd", 2),
                                           keyword::StringCodec("abcd", 2)}),
                    config);
    Rng rng(24);
    sys.build_network(5, rng);
    const char letters[] = "abcd";
    for (int i = 0; i < 300; ++i) {
      std::string a{letters[rng.below(4)]}, b{letters[rng.below(4)]},
          c{letters[rng.below(4)]};
      sys.publish(DataElement{"x" + std::to_string(i), {a, b, c}});
    }
    return sys;
  };
  SquidSystem agg = build(true);
  SquidSystem naive = build(false);
  Rng rng_a(25), rng_b(25);
  std::size_t agg_messages = 0, naive_messages = 0;
  std::size_t agg_matches = 0, naive_matches = 0;
  for (const std::string text : {"(a*, *, b*)", "(*, a, *)", "(*, *, c*)"}) {
    const auto ra =
        agg.query(agg.space().parse(text), agg.ring().random_node(rng_a));
    const auto rn =
        naive.query(naive.space().parse(text), naive.ring().random_node(rng_b));
    agg_messages += ra.stats.messages;
    naive_messages += rn.stats.messages;
    agg_matches += ra.stats.matches;
    naive_matches += rn.stats.matches;
  }
  EXPECT_EQ(agg_matches, naive_matches); // identical results either way
  EXPECT_LT(agg_messages, naive_messages);
}

TEST(QueryEngine, NumericRangeQueriesAgainstOracle) {
  SquidSystem sys(keyword::KeywordSpace({keyword::NumericCodec(0, 1024, 7),
                                         keyword::NumericCodec(0, 100, 7),
                                         keyword::NumericCodec(0, 10, 7)}));
  Rng rng(25);
  sys.build_network(40, rng);
  std::vector<DataElement> all;
  for (int i = 0; i < 400; ++i) {
    all.push_back(DataElement{"res" + std::to_string(i),
                              {rng.uniform() * 1024, rng.uniform() * 100,
                               rng.uniform() * 10}});
    sys.publish(all.back());
  }
  const std::vector<std::string> queries{
      "(256-512, *, *)",       "(*, 10-20, 5-*)", "(0-100, 0-50, *)",
      "(900-*, *, *-2)",       "(*, *, *)",       "(512-513, 50-51, 5-6)",
      "(300-800, 20-80, 1-9)"};
  for (const auto& text : queries) {
    const keyword::Query q = sys.space().parse(text);
    const QueryResult result = sys.query(q, sys.ring().random_node(rng));
    EXPECT_EQ(sorted_names(result.elements), oracle_names(sys.space(), all, q))
        << text;
  }
}

TEST(QueryEngine, QueriesAreRepeatable) {
  const LetterWorld corpus = make_doc_corpus(26, 30, 200);
  const auto origin = corpus.sys->ring().node_ids().front();
  const keyword::Query q = corpus.sys->space().parse("(c*, *)");
  const QueryResult a = corpus.sys->query(q, origin);
  const QueryResult b = corpus.sys->query(q, origin);
  EXPECT_EQ(sorted_names(a.elements), sorted_names(b.elements));
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.processing_nodes, b.stats.processing_nodes);
}

TEST(QueryEngine, CompletenessOnLargerRealisticSpace) {
  // 26-letter alphabet, 4-char keywords, 2D, 300 nodes, 3000 elements.
  SquidSystem sys(keyword::KeywordSpace(
      {keyword::StringCodec("abcdefghijklmnopqrstuvwxyz", 4),
       keyword::StringCodec("abcdefghijklmnopqrstuvwxyz", 4)}));
  Rng rng(27);
  sys.build_network(300, rng);
  const std::vector<std::string> stems{"comp", "netw", "data", "grid",
                                       "peer", "stor", "query", "inde"};
  std::vector<DataElement> all;
  for (int i = 0; i < 3000; ++i) {
    const auto pick = [&](void) -> std::string {
      std::string w = stems[rng.below(stems.size())];
      w.resize(1 + rng.below(4)); // random truncation spreads the corpus
      if (rng.chance(0.5)) w.push_back("abcdefghijklmnopqrstuvwxyz"[rng.below(26)]);
      return w;
    };
    all.push_back(DataElement{"d" + std::to_string(i), {pick(), pick()}});
    sys.publish(all.back());
  }
  for (const std::string text :
       {"(comp*, *)", "(c*, n*)", "(grid, *)", "(p*, *)", "(*, da*)"}) {
    const keyword::Query q = sys.space().parse(text);
    const QueryResult result = sys.query(q, sys.ring().random_node(rng));
    EXPECT_EQ(sorted_names(result.elements), oracle_names(sys.space(), all, q))
        << text;
    // The paper's scalability claim: only a fraction of nodes process a
    // query.
    EXPECT_LT(result.stats.processing_nodes, sys.ring().size() / 2) << text;
  }
}

} // namespace
} // namespace squid::core
