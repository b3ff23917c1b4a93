// Cross-parameter sweeps: exercise the full stack at corners the focused
// suites do not reach — extreme ring widths, tiny and large successor
// lists, high-dimensional curves, random alphabets, 3D end-to-end engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "squid/core/system.hpp"
#include "squid/overlay/chord.hpp"
#include "squid/sfc/hilbert.hpp"
#include "squid/util/rng.hpp"
#include "support/differential.hpp"

namespace squid {
namespace {

// --- Chord geometry sweep --------------------------------------------------

using ChordGeometry = std::tuple<unsigned, unsigned, std::size_t>;
// id_bits, successor list, nodes

class ChordSweep : public ::testing::TestWithParam<ChordGeometry> {};

TEST_P(ChordSweep, BuildsConsistentlyAndRoutesCorrectly) {
  const auto& [bits, successors, nodes] = GetParam();
  Rng rng(bits * 131 + successors);
  overlay::ChordRing ring(bits, successors);
  ring.build(nodes, rng);
  EXPECT_TRUE(ring.ring_consistent());
  for (int trial = 0; trial < 60; ++trial) {
    const u128 key = rng.next128() & ring.id_mask();
    const auto r = ring.route(ring.random_node(rng), key);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.dest, ring.successor_of(key));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corners, ChordSweep,
    ::testing::Values(ChordGeometry{8, 1, 5}, ChordGeometry{8, 4, 40},
                      ChordGeometry{16, 1, 100}, ChordGeometry{16, 16, 100},
                      ChordGeometry{48, 8, 300}, ChordGeometry{128, 4, 100},
                      ChordGeometry{128, 32, 50}),
    [](const auto& info) {
      return "bits" + std::to_string(std::get<0>(info.param)) + "_succ" +
             std::to_string(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param));
    });

// --- High-dimensional Hilbert ------------------------------------------------

class HighDimHilbert : public ::testing::TestWithParam<unsigned> {};

TEST_P(HighDimHilbert, RoundTripAndContinuity) {
  const unsigned dims = GetParam();
  const sfc::HilbertCurve curve(dims, 2);
  sfc::Point prev = curve.point_of(0);
  for (u128 h = 0; h <= curve.max_index(); ++h) {
    const sfc::Point p = curve.point_of(h);
    ASSERT_EQ(curve.index_of(p), h);
    if (h > 0) {
      std::uint64_t moved = 0;
      for (unsigned d = 0; d < dims; ++d)
        moved += p[d] > prev[d] ? p[d] - prev[d] : prev[d] - p[d];
      ASSERT_EQ(moved, 1u) << "discontinuity at " << lo64(h);
    }
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HighDimHilbert, ::testing::Values(5u, 6u, 7u),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

// --- Random-alphabet codec fuzz ---------------------------------------------

TEST(CodecFuzz, RandomAlphabetsRoundTripAndOrder) {
  Rng rng(7331);
  for (int config = 0; config < 20; ++config) {
    // Random alphabet: a shuffled subset of letters, size 2..26.
    std::vector<char> pool;
    for (char c = 'a'; c <= 'z'; ++c) pool.push_back(c);
    rng.shuffle(pool);
    const std::size_t alpha_size = 2 + rng.below(25);
    std::string alphabet(pool.begin(), pool.begin() + alpha_size);
    std::sort(alphabet.begin(), alphabet.end()); // codec order = char order
    const unsigned max_len = 1 + static_cast<unsigned>(rng.below(5));
    const keyword::StringCodec codec(alphabet, max_len);

    const auto random_word = [&] {
      std::string w;
      for (std::uint64_t j = rng.below(max_len + 1); j-- > 0;)
        w.push_back(alphabet[rng.below(alphabet.size())]);
      return w;
    };
    for (int trial = 0; trial < 50; ++trial) {
      const std::string a = random_word();
      const std::string b = random_word();
      ASSERT_EQ(codec.decode(codec.encode(a)), a);
      ASSERT_EQ(a < b, codec.encode(a) < codec.encode(b))
          << a << " vs " << b << " alphabet " << alphabet;
      const auto prefix_len = rng.below(a.size() + 1);
      const sfc::Interval iv = codec.prefix_interval(a.substr(0, prefix_len));
      ASSERT_TRUE(iv.contains(codec.encode(a)));
    }
  }
}

// --- 3D end-to-end engine sweep ----------------------------------------------

using CurveAndBase = std::tuple<std::string, unsigned>;

class Engine3D : public ::testing::TestWithParam<CurveAndBase> {};

TEST_P(Engine3D, ThreeDimensionalCompleteness) {
  const auto& [curve, finger_base] = GetParam();
  core::SquidConfig config;
  config.curve = curve;
  config.finger_base = finger_base;
  Rng rng(911);
  const char letters[] = "abc";
  core::SquidSystem sys(
      keyword::KeywordSpace({keyword::StringCodec(letters, 2),
                             keyword::StringCodec(letters, 2),
                             keyword::StringCodec(letters, 2)}),
      config);
  sys.build_network(25, rng);
  std::vector<core::DataElement> all;
  for (int i = 0; i < 300; ++i) {
    const auto word = [&] {
      std::string w;
      for (std::uint64_t j = rng.range(1, 2); j-- > 0;)
        w.push_back(letters[rng.below(3)]);
      return w;
    };
    all.push_back({"e" + std::to_string(i), {word(), word(), word()}});
    sys.publish(all.back());
  }
  for (const std::string text :
       {"(a*, *, *)", "(*, b, *)", "(a, b*, c)", "(*, *, *)", "(c*, a*, *)"}) {
    const keyword::Query q = sys.space().parse(text);
    const auto result = sys.query(q, sys.ring().random_node(rng));
    ASSERT_EQ(testing_support::sorted_names(result.elements),
              testing_support::oracle_names(sys.space(), all, q))
        << curve << " base " << finger_base << " " << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, Engine3D,
    ::testing::Values(CurveAndBase{"hilbert", 2}, CurveAndBase{"hilbert", 8},
                      CurveAndBase{"zorder", 2}, CurveAndBase{"gray", 4}),
    [](const auto& info) {
      return std::get<0>(info.param) + "_b" +
             std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace squid
