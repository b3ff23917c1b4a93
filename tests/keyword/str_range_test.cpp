// Lexicographic string-range terms ("cat-dog"): ordered keyword intervals
// become coordinate intervals, resolvable like every other flexible query.

#include <gtest/gtest.h>

#include "squid/core/system.hpp"
#include "squid/keyword/space.hpp"
#include "squid/util/rng.hpp"
#include "support/differential.hpp"

namespace squid::keyword {
namespace {

constexpr const char* kAlpha = "abcdefghijklmnopqrstuvwxyz";

TEST(StrRange, ParseProducesStrRangeOnStringDims) {
  const KeywordSpace space({StringCodec(kAlpha, 5), StringCodec(kAlpha, 5)});
  const Query q = space.parse("(cat-dog, *)");
  const auto& term = std::get<StrRange>(q.terms[0]);
  EXPECT_EQ(term.lo, "cat");
  EXPECT_EQ(term.hi, "dog");
  EXPECT_EQ(to_string(q), "(cat-dog, *)");
}

TEST(StrRange, OpenBoundsCoverTheAxisEnds) {
  const KeywordSpace space({StringCodec(kAlpha, 3), StringCodec(kAlpha, 3)});
  const Query lo_open = space.parse("(*-m, *)");
  EXPECT_EQ(std::get<StrRange>(lo_open.terms[0]).lo, "");
  const Query hi_open = space.parse("(m-*, *)");
  EXPECT_EQ(std::get<StrRange>(hi_open.terms[0]).hi, "zzz");
}

TEST(StrRange, MembershipMatchesDictionaryOrder) {
  const KeywordSpace space({StringCodec(kAlpha, 5), StringCodec(kAlpha, 5)});
  const Query q = space.parse("(cat-dog, *)");
  const auto in = [&](const std::string& w) {
    return space.matches(q, {w, std::string("x")});
  };
  EXPECT_TRUE(in("cat"));
  EXPECT_TRUE(in("cats")); // "cats" > "cat", < "dog"
  EXPECT_TRUE(in("crow"));
  EXPECT_TRUE(in("dog"));
  EXPECT_FALSE(in("dogs")); // extensions of the upper bound sort after it
  EXPECT_FALSE(in("ant"));
  EXPECT_FALSE(in("eel"));
}

TEST(StrRange, RejectsReversedBounds) {
  const KeywordSpace space({StringCodec(kAlpha, 5), StringCodec(kAlpha, 5)});
  EXPECT_THROW((void)space.to_rect(space.parse("(dog-cat, *)")),
               std::invalid_argument);
}

TEST(StrRange, EndToEndQueryThroughTheEngine) {
  Rng rng(131);
  core::SquidSystem sys(
      keyword::KeywordSpace({StringCodec(kAlpha, 4), StringCodec(kAlpha, 4)}));
  sys.build_network(40, rng);
  const std::vector<std::string> words{"ant",  "bee",  "cat", "crow", "dog",
                                       "eel",  "fox",  "gnu", "hen",  "imp"};
  std::vector<core::DataElement> all;
  for (const auto& w : words) {
    all.push_back({"doc-" + w, {w, std::string("tag")}});
    sys.publish(all.back());
  }
  const Query q = sys.space().parse("(bee-fox, *)");
  const auto result = sys.query(q, sys.ring().random_node(rng));
  EXPECT_EQ(testing_support::sorted_names(result.elements),
            (std::vector<std::string>{"doc-bee", "doc-cat", "doc-crow",
                                      "doc-dog", "doc-eel", "doc-fox"}));
}

} // namespace
} // namespace squid::keyword
