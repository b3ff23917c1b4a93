#include "squid/keyword/space.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string_view>

#include "squid/util/rng.hpp"

namespace squid::keyword {
namespace {

constexpr const char* kAlpha = "abcdefghijklmnopqrstuvwxyz";

KeywordSpace make_document_space() {
  // 2D storage-system space (paper Fig 1a): two keyword dimensions.
  return KeywordSpace({StringCodec(kAlpha, 5), StringCodec(kAlpha, 5)});
}

KeywordSpace make_resource_space() {
  // 3D grid-resource space (paper Fig 1b): storage, bandwidth, cost.
  return KeywordSpace({NumericCodec(0, 1024, 10), NumericCodec(0, 100, 10),
                       NumericCodec(0, 10000, 10)});
}

TEST(KeywordSpace, BitsPerDimIsWidestCodec) {
  const KeywordSpace mixed(
      {StringCodec(kAlpha, 5), NumericCodec(0, 100, 8)});
  EXPECT_EQ(mixed.dims(), 2u);
  EXPECT_EQ(mixed.bits_per_dim(), 24u); // string codec dominates
}

TEST(KeywordSpace, EncodeProducesPerDimensionCoordinates) {
  const KeywordSpace space = make_document_space();
  const sfc::Point p = space.encode({std::string("computer"),
                                     std::string("network")});
  ASSERT_EQ(p.size(), 2u);
  const auto& codec = std::get<StringCodec>(space.dimension(0));
  EXPECT_EQ(p[0], codec.encode("computer"));
  EXPECT_EQ(p[1], codec.encode("network"));
}

TEST(KeywordSpace, EncodeRejectsWrongTokenKind) {
  const KeywordSpace space = make_document_space();
  EXPECT_THROW((void)space.encode({3.0, std::string("net")}),
               std::invalid_argument);
  EXPECT_THROW((void)space.encode({std::string("one")}),
               std::invalid_argument);
  const KeywordSpace resources = make_resource_space();
  EXPECT_THROW((void)resources.encode({std::string("big"), 1.0, 2.0}),
               std::invalid_argument);
}

TEST(KeywordSpace, DecodeInvertsEncodeForStrings) {
  const KeywordSpace space = make_document_space();
  const auto tokens = space.decode(
      space.encode({std::string("comp"), std::string("net")}));
  EXPECT_EQ(std::get<std::string>(tokens[0]), "comp");
  EXPECT_EQ(std::get<std::string>(tokens[1]), "net");
}

TEST(KeywordSpace, ParseRecognizesEveryTermKind) {
  const KeywordSpace space(
      {StringCodec(kAlpha, 5), NumericCodec(0, 1024, 10)});
  const Query q = space.parse("(comp*, 256-512)");
  ASSERT_EQ(q.terms.size(), 2u);
  EXPECT_EQ(std::get<Prefix>(q.terms[0]).prefix, "comp");
  EXPECT_DOUBLE_EQ(std::get<NumRange>(q.terms[1]).lo, 256);
  EXPECT_DOUBLE_EQ(std::get<NumRange>(q.terms[1]).hi, 512);

  const Query q2 = space.parse("network, *");
  EXPECT_EQ(std::get<Whole>(q2.terms[0]).word, "network");
  EXPECT_TRUE(std::holds_alternative<Any>(q2.terms[1]));

  const Query q3 = space.parse("(x, 100-*)");
  EXPECT_DOUBLE_EQ(std::get<NumRange>(q3.terms[1]).lo, 100);
  EXPECT_DOUBLE_EQ(std::get<NumRange>(q3.terms[1]).hi, 1024);

  const Query q4 = space.parse("(x, *-100)");
  EXPECT_DOUBLE_EQ(std::get<NumRange>(q4.terms[1]).lo, 0);
  EXPECT_DOUBLE_EQ(std::get<NumRange>(q4.terms[1]).hi, 100);

  const Query q5 = space.parse("(x, 42)");
  EXPECT_DOUBLE_EQ(std::get<NumExact>(q5.terms[1]).value, 42);
}

TEST(KeywordSpace, ParseRejectsArityMismatch) {
  const KeywordSpace space = make_document_space();
  EXPECT_THROW((void)space.parse("(one)"), std::invalid_argument);
  EXPECT_THROW((void)space.parse("(a, b, c)"), std::invalid_argument);
  EXPECT_THROW((void)space.parse("(, b)"), std::invalid_argument);
}

TEST(KeywordSpace, QueryToStringRoundTrips) {
  const KeywordSpace space(
      {StringCodec(kAlpha, 5), NumericCodec(0, 1024, 10)});
  EXPECT_EQ(to_string(space.parse("(comp*, 256-512)")), "(comp*, 256-512)");
  EXPECT_EQ(to_string(space.parse("(net, *)")), "(net, *)");
}

TEST(KeywordSpace, MatchesImplementsFlexibleQuerySemantics) {
  const KeywordSpace space = make_document_space();
  const std::vector<Token> doc{std::string("compu"), std::string("netwo")};

  EXPECT_TRUE(space.matches(space.parse("(compu, netwo)"), doc));
  EXPECT_TRUE(space.matches(space.parse("(comp*, net*)"), doc));
  EXPECT_TRUE(space.matches(space.parse("(comp*, *)"), doc));
  EXPECT_TRUE(space.matches(space.parse("(*, *)"), doc));
  EXPECT_FALSE(space.matches(space.parse("(comp, *)"), doc)); // whole != prefix
  EXPECT_FALSE(space.matches(space.parse("(x*, *)"), doc));
  EXPECT_FALSE(space.matches(space.parse("(compu, x*)"), doc));
}

TEST(KeywordSpace, RangeQueriesMatchLikeThePaperExample) {
  // "(256-512MB, *, 1Mbps-*)" from 3.3: memory, cpu, bandwidth.
  const KeywordSpace space({NumericCodec(0, 2048, 12),
                            NumericCodec(0, 4000, 12),
                            NumericCodec(0, 1000, 12)});
  const Query q = space.parse("(256-512, *, 100-*)");
  EXPECT_TRUE(space.matches(q, {300.0, 1000.0, 500.0}));
  EXPECT_TRUE(space.matches(q, {512.0, 0.0, 100.0}));
  EXPECT_FALSE(space.matches(q, {600.0, 1000.0, 500.0}));
  EXPECT_FALSE(space.matches(q, {300.0, 1000.0, 50.0}));
}

TEST(KeywordSpace, ToRectAgreesWithCurveContainment) {
  // matches() is defined via the rectangle, so any element matching the
  // query must land in a cluster of the decomposition; cross-check through
  // an actual curve round trip.
  const KeywordSpace space(
      {StringCodec("abcd", 3), StringCodec("abcd", 3)});
  const Query q = space.parse("(a*, *)");
  const sfc::Rect rect = space.to_rect(q);
  Rng rng(8);
  const char letters[] = "abcd";
  for (int i = 0; i < 200; ++i) {
    std::string w1, w2;
    for (std::uint64_t j = rng.below(4); j-- > 0;)
      w1.push_back(letters[rng.below(4)]);
    for (std::uint64_t j = rng.below(4); j-- > 0;)
      w2.push_back(letters[rng.below(4)]);
    const std::vector<Token> doc{w1, w2};
    EXPECT_EQ(rect.contains(space.encode(doc)), w1.starts_with("a"))
        << w1 << "," << w2;
  }
}

TEST(KeywordSpace, RejectsTermKindMismatchedToDimension) {
  const KeywordSpace space(
      {StringCodec(kAlpha, 5), NumericCodec(0, 100, 8)});
  Query bad1{{NumRange{1, 2}, Any{}}};
  EXPECT_THROW((void)space.to_rect(bad1), std::invalid_argument);
  Query bad2{{Any{}, Whole{"word"}}};
  EXPECT_THROW((void)space.to_rect(bad2), std::invalid_argument);
}

TEST(KeywordSpace, RequirementErrorsNameTheSourceFromTheRepositoryRoot) {
  // A failed requirement names its source file relative to the repository
  // root, not by the absolute path of the checkout that built the library.
  const KeywordSpace space = make_document_space();
  try {
    (void)space.to_rect(space.parse("(m-a, *)"));
    FAIL() << "an out-of-order string range was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string_view what = e.what();
    EXPECT_TRUE(what.starts_with("src/keyword/space.cpp:")) << what;
  }
}

TEST(KeywordSpace, RejectsOversizedIndexBudget) {
  // 6 string dims x 24 bits = 144 bits > 128.
  std::vector<KeywordSpace::Dimension> dims;
  for (int i = 0; i < 6; ++i) dims.push_back(StringCodec(kAlpha, 5));
  EXPECT_THROW(KeywordSpace space(std::move(dims)), std::invalid_argument);
}

} // namespace
} // namespace squid::keyword
