#include <gtest/gtest.h>

#include "squid/core/system.hpp"
#include "squid/workload/corpus.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

keyword::KeywordSpace doc_space() {
  return keyword::KeywordSpace(
      {keyword::StringCodec("abcdefghijklmnopqrstuvwxyz", 4),
       keyword::StringCodec("abcdefghijklmnopqrstuvwxyz", 4)});
}

TEST(Unpublish, RemovesExactlyTheNamedElement) {
  Rng rng(161);
  SquidSystem sys(doc_space());
  sys.build_network(20, rng);
  const DataElement a{"a", {std::string("grid"), std::string("data")}};
  const DataElement b{"b", {std::string("grid"), std::string("data")}};
  sys.publish(a);
  sys.publish(b);
  EXPECT_EQ(sys.key_count(), 1u); // same keyword pair, one key
  EXPECT_TRUE(sys.unpublish(a));
  EXPECT_EQ(sys.element_count(), 1u);
  EXPECT_EQ(sys.key_count(), 1u); // b still holds the key alive
  const auto result =
      sys.query(sys.space().parse("(grid, data)"), sys.ring().node_ids()[0]);
  ASSERT_EQ(result.stats.matches, 1u);
  EXPECT_EQ(result.elements[0].name, "b");
}

TEST(Unpublish, LastElementRemovesTheKey) {
  Rng rng(162);
  SquidSystem sys(doc_space());
  sys.build_network(10, rng);
  const DataElement a{"solo", {std::string("one"), std::string("two")}};
  sys.publish(a);
  EXPECT_TRUE(sys.unpublish(a));
  EXPECT_EQ(sys.key_count(), 0u);
  EXPECT_EQ(sys.element_count(), 0u);
  EXPECT_EQ(sys.query(sys.space().parse("(one, two)"),
                      sys.ring().node_ids()[0])
                .stats.matches,
            0u);
}

TEST(Unpublish, MissingElementsReturnFalse) {
  Rng rng(163);
  SquidSystem sys(doc_space());
  sys.build_network(10, rng);
  const DataElement a{"x", {std::string("one"), std::string("two")}};
  EXPECT_FALSE(sys.unpublish(a)); // never published
  sys.publish(a);
  const DataElement other_name{"y", {std::string("one"), std::string("two")}};
  EXPECT_FALSE(sys.unpublish(other_name)); // same key, wrong name
  EXPECT_TRUE(sys.unpublish(a));
  EXPECT_FALSE(sys.unpublish(a)); // already gone
}

TEST(Unpublish, QueriesStayCompleteThroughPublishUnpublishChurn) {
  Rng rng(164);
  workload::KeywordCorpus corpus(2, 150, 0.9, rng);
  SquidSystem sys(corpus.make_space());
  sys.build_network(30, rng);
  std::vector<DataElement> live;
  for (int round = 0; round < 200; ++round) {
    if (live.empty() || rng.chance(0.6)) {
      live.push_back(corpus.make_element(rng));
      sys.publish(live.back());
    } else {
      const auto victim = rng.below(live.size());
      EXPECT_TRUE(sys.unpublish(live[victim]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  const keyword::Query q = corpus.q1(0, true);
  EXPECT_EQ(sys.query(q, sys.ring().random_node(rng)).stats.matches,
            testing_support::oracle_names(sys.space(), live, q).size());
  EXPECT_EQ(sys.element_count(), live.size());
}

} // namespace
} // namespace squid::core
