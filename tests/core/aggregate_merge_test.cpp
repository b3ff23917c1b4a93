// Merge laws for the aggregation-pushdown partials (DESIGN.md 4g).
//
// The whole correctness story of in-overlay aggregation rests on one
// algebraic fact: folding elements into per-node partials and merging the
// partials up an ARBITRARY tree, in ARBITRARY order, must equal one flat
// fold at the origin — bit for bit, including the kSum double. This suite
// attacks that claim directly: random element sets, random partitions,
// permuted merge orders, adversarial float values for the exact
// superaccumulator, tie-heavy top-k inputs, and shuffled group-by keys.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "squid/core/aggregate.hpp"
#include "squid/util/exact_sum.hpp"
#include "squid/util/rng.hpp"

namespace squid::core {
namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// --- ExactSum: the superaccumulator itself ----------------------------------

TEST(ExactSumTest, SingleValueRoundTripsBitExactly) {
  Rng rng(0xac5);
  std::vector<double> samples = {0.0,
                                 -0.0,
                                 1.0,
                                 -1.0,
                                 0.1,
                                 1e308,
                                 -1e308,
                                 1e-308,
                                 5e-324, // min subnormal
                                 -5e-324,
                                 std::numeric_limits<double>::max(),
                                 std::numeric_limits<double>::denorm_min(),
                                 3.141592653589793};
  for (int i = 0; i < 500; ++i) {
    // Random bit patterns, filtered to finite values: subnormals, odd
    // exponents, everything.
    const std::uint64_t bits = rng();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) samples.push_back(v);
  }
  for (double v : samples) {
    ExactSum s;
    s.add(v);
    // -0.0 folds to +0.0 (the accumulator is a signed integer; zero is
    // zero); everything else must round-trip to the identical bit pattern.
    const double expect = v == 0.0 ? 0.0 : v;
    EXPECT_EQ(double_bits(s.value()), double_bits(expect)) << v;
  }
}

TEST(ExactSumTest, CatastrophicCancellationIsExact) {
  // The classic failure of naive summation: 1e308 + 1.0 - 1e308 == 1.0
  // only if no intermediate rounding happened. Also pits the extremes of
  // the exponent range against each other.
  ExactSum s;
  s.add(1e308);
  s.add(1.0);
  s.add(-1e308);
  EXPECT_EQ(s.value(), 1.0);

  ExactSum t;
  t.add(std::numeric_limits<double>::denorm_min());
  t.add(1e300);
  t.add(-1e300);
  EXPECT_EQ(double_bits(t.value()),
            double_bits(std::numeric_limits<double>::denorm_min()));
}

TEST(ExactSumTest, MergeIsAssociativeAndCommutativeBitExactly) {
  Rng rng(0x5u);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> values;
    const std::size_t n = 1 + rng.below(24);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t bits = rng();
      double v = 0;
      std::memcpy(&v, &bits, sizeof(v));
      if (!std::isfinite(v)) v = static_cast<double>(bits >> 12) * 1e-3;
      values.push_back(v);
    }
    ExactSum flat;
    for (double v : values) flat.add(v);

    // Random partition into up to 5 parts, parts merged in random order.
    std::vector<ExactSum> parts(1 + rng.below(5));
    for (double v : values) parts[rng.below(parts.size())].add(v);
    std::vector<std::size_t> order(parts.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    ExactSum merged;
    for (std::size_t idx : order) merged.merge(parts[idx]);

    EXPECT_EQ(merged, flat) << "trial " << trial;
    EXPECT_EQ(double_bits(merged.value()), double_bits(flat.value()))
        << "trial " << trial;
  }
}

TEST(ExactSumTest, RejectsNonFiniteInput) {
  ExactSum s;
  EXPECT_THROW(s.add(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(s.add(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

// --- AggregatePartial: fold/merge across every kind --------------------------

std::vector<DataElement> random_elements(Rng& rng, std::size_t n) {
  const char* groups[] = {"red", "green", "blue", "cyan"};
  std::vector<DataElement> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Coarse value grid on purpose: collisions exercise the tie-breaks.
    const double value = static_cast<double>(rng.below(16)) * 0.25 - 2.0;
    out.push_back(DataElement{"e" + std::to_string(i),
                              {std::string(groups[rng.below(4)]), value}});
  }
  return out;
}

std::vector<AggregateSpec> all_specs() {
  std::vector<AggregateSpec> specs;
  AggregateSpec s;
  s.kind = AggregateKind::kCount;
  specs.push_back(s);
  s.kind = AggregateKind::kSum;
  s.dim = 1;
  specs.push_back(s);
  s.kind = AggregateKind::kMin;
  specs.push_back(s);
  s.kind = AggregateKind::kMax;
  specs.push_back(s);
  s.kind = AggregateKind::kGroupBy;
  s.dim = 0;
  specs.push_back(s);
  s.kind = AggregateKind::kTopK;
  s.dim = 1;
  s.k = 3;
  s.largest = true;
  specs.push_back(s);
  s.largest = false;
  specs.push_back(s);
  s.k = 1000; // k far beyond the population: nothing ever truncates
  specs.push_back(s);
  return specs;
}

TEST(AggregateMergeTest, TreeMergeEqualsFlatFoldForEveryKind) {
  Rng rng(0x90);
  for (const AggregateSpec& spec : all_specs()) {
    for (int trial = 0; trial < 50; ++trial) {
      const std::vector<DataElement> elements =
          random_elements(rng, 1 + rng.below(40));
      AggregatePartial flat = make_partial(spec);
      for (const DataElement& e : elements) flat.fold(e);

      // Partition into parts, fold each, then merge pairs in random order —
      // an arbitrary binary tree over the parts.
      std::vector<AggregatePartial> parts;
      for (std::size_t p = 0; p < 1 + rng.below(6); ++p)
        parts.push_back(make_partial(spec));
      for (const DataElement& e : elements)
        parts[rng.below(parts.size())].fold(e);
      while (parts.size() > 1) {
        const std::size_t a = rng.below(parts.size());
        std::size_t b = rng.below(parts.size() - 1);
        if (b >= a) ++b;
        parts[a].merge(parts[b]);
        parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(b));
      }

      EXPECT_EQ(parts[0], flat)
          << aggregate_kind_name(spec.kind) << " trial " << trial;
      if (spec.kind == AggregateKind::kSum) {
        EXPECT_EQ(double_bits(parts[0].sum.value()),
                  double_bits(flat.sum.value()))
            << "sum bits, trial " << trial;
      }
    }
  }
}

TEST(AggregateMergeTest, MergeIsCommutative) {
  Rng rng(0xc0);
  for (const AggregateSpec& spec : all_specs()) {
    const std::vector<DataElement> elements = random_elements(rng, 30);
    AggregatePartial a = make_partial(spec), b = make_partial(spec);
    for (std::size_t i = 0; i < elements.size(); ++i)
      (i % 2 == 0 ? a : b).fold(elements[i]);
    AggregatePartial ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab, ba) << aggregate_kind_name(spec.kind);
  }
}

TEST(AggregateMergeTest, TopKTieBreakIsArrivalOrderIndependent) {
  // Every element shares one value: the winners are decided purely by the
  // deterministic name tie-break, never by fold or merge order.
  AggregateSpec spec;
  spec.kind = AggregateKind::kTopK;
  spec.dim = 1;
  spec.k = 4;
  std::vector<DataElement> elements;
  for (int i = 0; i < 12; ++i)
    elements.push_back(
        DataElement{"tie" + std::to_string(i), {std::string("g"), 7.0}});

  Rng rng(0x7e);
  std::vector<TopEntry> expect;
  for (int trial = 0; trial < 30; ++trial) {
    for (std::size_t i = elements.size(); i > 1; --i)
      std::swap(elements[i - 1], elements[rng.below(i)]);
    AggregatePartial left = make_partial(spec), right = make_partial(spec);
    for (std::size_t i = 0; i < elements.size(); ++i)
      (i < elements.size() / 2 ? left : right).fold(elements[i]);
    left.merge(right);
    ASSERT_EQ(left.top.size(), 4u);
    if (trial == 0) {
      expect = left.top;
      // Name-ascending among equals.
      for (std::size_t i = 1; i < expect.size(); ++i)
        EXPECT_LT(expect[i - 1].name, expect[i].name);
    } else {
      EXPECT_EQ(left.top, expect) << "trial " << trial;
    }
  }
}

TEST(AggregateMergeTest, LargestFlagOrdersTopKBothWays) {
  AggregateSpec spec;
  spec.kind = AggregateKind::kTopK;
  spec.dim = 1;
  spec.k = 2;
  std::vector<DataElement> elements = {DataElement{"lo", {std::string("g"), 1.0}},
                                       DataElement{"mid", {std::string("g"), 2.0}},
                                       DataElement{"hi", {std::string("g"), 3.0}}};
  spec.largest = true;
  AggregatePartial big = make_partial(spec);
  for (const auto& e : elements) big.fold(e);
  ASSERT_EQ(big.top.size(), 2u);
  EXPECT_EQ(big.top[0].name, "hi");
  EXPECT_EQ(big.top[1].name, "mid");

  spec.largest = false;
  AggregatePartial small = make_partial(spec);
  for (const auto& e : elements) small.fold(e);
  ASSERT_EQ(small.top.size(), 2u);
  EXPECT_EQ(small.top[0].name, "lo");
  EXPECT_EQ(small.top[1].name, "mid");
}

TEST(AggregateMergeTest, GroupByIsKeyOrderIndependentAndSorted) {
  AggregateSpec spec;
  spec.kind = AggregateKind::kGroupBy;
  spec.dim = 0;
  Rng rng(0x6b);
  std::vector<DataElement> elements = random_elements(rng, 60);
  AggregatePartial forward = make_partial(spec);
  for (const auto& e : elements) forward.fold(e);
  AggregatePartial backward = make_partial(spec);
  for (auto it = elements.rbegin(); it != elements.rend(); ++it)
    backward.fold(*it);
  EXPECT_EQ(forward, backward);
  // The group list is the canonical key-sorted form.
  for (std::size_t i = 1; i < forward.groups.size(); ++i)
    EXPECT_LT(forward.groups[i - 1].key, forward.groups[i].key);
  std::uint64_t total = 0;
  for (const GroupCount& g : forward.groups) total += g.count;
  EXPECT_EQ(total, elements.size());
}

TEST(AggregateMergeTest, MinMaxPartialTracksBothExtremes) {
  // One kMin query answers both extremes (the caller reads min AND max
  // from the same partial), so the partial must track both regardless of
  // the requested kind.
  AggregateSpec spec;
  spec.kind = AggregateKind::kMin;
  spec.dim = 1;
  AggregatePartial p = make_partial(spec);
  EXPECT_FALSE(p.has_extremes);
  p.fold(DataElement{"a", {std::string("g"), 5.0}});
  p.fold(DataElement{"b", {std::string("g"), -3.0}});
  p.fold(DataElement{"c", {std::string("g"), 9.0}});
  EXPECT_TRUE(p.has_extremes);
  EXPECT_EQ(p.min, -3.0);
  EXPECT_EQ(p.max, 9.0);
}

TEST(AggregateMergeTest, MergingMismatchedSpecsFailsLoudly) {
  AggregateSpec count;
  count.kind = AggregateKind::kCount;
  AggregateSpec sum;
  sum.kind = AggregateKind::kSum;
  sum.dim = 1;
  AggregatePartial a = make_partial(count), b = make_partial(sum);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(AggregateMergeTest, EmptyPartialIsTheMergeIdentity) {
  Rng rng(0x1d);
  for (const AggregateSpec& spec : all_specs()) {
    AggregatePartial folded = make_partial(spec);
    for (const DataElement& e : random_elements(rng, 10)) folded.fold(e);
    AggregatePartial left = make_partial(spec);
    left.merge(folded);
    EXPECT_EQ(left, folded) << aggregate_kind_name(spec.kind);
    AggregatePartial right = folded;
    right.merge(make_partial(spec));
    EXPECT_EQ(right, folded) << aggregate_kind_name(spec.kind);
  }
}

} // namespace
} // namespace squid::core
