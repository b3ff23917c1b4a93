// RefineCursor correctness against the reference mapping: every cell the
// cursor reports — via seek, descend/ascend walks, child classification, and
// entry points — must be bit-identical to the Curve's root-depth
// cell_of_prefix / point_of path, and decompositions built on the cursor
// must reproduce the pre-cursor refiner output exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "squid/sfc/cursor.hpp"
#include "squid/sfc/refine.hpp"
#include "squid/util/rng.hpp"

namespace squid::sfc {
namespace {

Rect random_rect(Rng& rng, unsigned dims, std::uint64_t max_coord) {
  // 64-bit axes span the whole word, where max_coord + 1 wraps to 0.
  const auto coord = [&] {
    return max_coord == ~std::uint64_t{0} ? rng() : rng.below(max_coord + 1);
  };
  Rect rect;
  for (unsigned d = 0; d < dims; ++d) {
    const std::uint64_t a = coord();
    const std::uint64_t b = coord();
    rect.dims.push_back({std::min(a, b), std::max(a, b)});
  }
  return rect;
}

CellRelation reference_relation(const Curve& curve, u128 prefix,
                                unsigned level, const Rect& query) {
  const Rect cell = curve.cell_of_prefix(prefix, level);
  if (!cell.intersects(query)) return CellRelation::disjoint;
  if (query.covers(cell)) return CellRelation::covered;
  return CellRelation::partial;
}

/// The pre-cursor decompose algorithm, verbatim: explicit stack over
/// cell_of_prefix. Kept here as the oracle the cursor engine must match.
std::vector<Segment> reference_decompose(const Curve& curve, const Rect& query,
                                         unsigned max_level) {
  const ClusterRefiner refiner(curve); // for segment_of only
  const unsigned depth = std::min(max_level, curve.bits_per_dim());
  std::vector<Segment> out;
  const auto emit = [&out](const Segment& seg) {
    if (!out.empty() && out.back().hi + 1 == seg.lo) {
      out.back().hi = seg.hi;
    } else {
      out.push_back(seg);
    }
  };

  struct Frame {
    ClusterNode node;
    u128 next_child = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({ClusterNode{0, 0}, 0});
  const u128 fanout = static_cast<u128>(1) << curve.dims();
  {
    const auto rel = reference_relation(curve, 0, 0, query);
    if (rel == CellRelation::covered || depth == 0)
      return {refiner.segment_of(ClusterNode{0, 0})};
    if (rel == CellRelation::disjoint) return {};
  }
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_child == fanout) {
      stack.pop_back();
      continue;
    }
    const u128 digit = frame.next_child++;
    const ClusterNode child{(frame.node.prefix << curve.dims()) | digit,
                            frame.node.level + 1};
    const Rect cell = curve.cell_of_prefix(child.prefix, child.level);
    if (!cell.intersects(query)) continue;
    if (query.covers(cell) || child.level >= depth) {
      emit(refiner.segment_of(child));
    } else {
      stack.push_back({child, 0});
    }
  }
  return out;
}

/// `prefix` extended by one digit / cut back by `up` levels, with the
/// d = 128 shifts defined.
u128 child_of(u128 prefix, unsigned d, u128 digit) {
  return (d >= 128 ? 0 : prefix << d) | digit;
}
u128 ancestor_of(u128 prefix, unsigned d, unsigned up) {
  return up * d >= 128 ? 0 : prefix >> (up * d);
}

/// Everything a cursor exposes about its node, checked against a freshly
/// built cursor seeked from the root and against cell_of_prefix/point_of.
void expect_matches_fresh(const Curve& curve, const RefineCursor& cursor,
                          u128 prefix, unsigned level, const Rect& rect,
                          Rng& rng) {
  const unsigned d = curve.dims();
  const unsigned b = curve.bits_per_dim();
  RefineCursor fresh(curve);
  fresh.seek(prefix, level);
  ASSERT_EQ(cursor.level(), level);
  ASSERT_EQ(cursor.prefix(), prefix) << "level " << level;
  InlineRect got;
  InlineRect want;
  cursor.cell(got);
  fresh.cell(want);
  ASSERT_EQ(got.to_rect(), want.to_rect()) << "level " << level;
  ASSERT_EQ(got.to_rect(), curve.cell_of_prefix(prefix, level));
  const CellRelation rel = reference_relation(curve, prefix, level, rect);
  ASSERT_EQ(cursor.relation_to(rect), fresh.relation_to(rect));
  ASSERT_EQ(cursor.relation_to(rect), rel);
  if (level < b) {
    // Every child when the fanout is small, a random sample otherwise.
    const u128 fanout = cursor.fanout();
    const bool all = fanout != 0 && fanout <= 64;
    const u128 count = all ? fanout : 8;
    for (u128 k = 0; k < count; ++k) {
      const u128 w = all ? k : rng.next128() & low_mask(d);
      const CellRelation child_rel = cursor.classify_child(w, rect);
      ASSERT_EQ(child_rel, fresh.classify_child(w, rect));
      ASSERT_EQ(child_rel, reference_relation(curve, child_of(prefix, d, w),
                                              level + 1, rect))
          << "level " << level << " child " << static_cast<unsigned>(w);
    }
  }
  Point entry(d);
  Point fresh_entry(d);
  cursor.entry_point(entry.data());
  fresh.entry_point(fresh_entry.data());
  ASSERT_EQ(entry, fresh_entry);
  const unsigned shift = (b - level) * d;
  ASSERT_EQ(entry, curve.point_of(shift >= 128 ? 0 : prefix << shift));
}

/// Random seek sequences in the shapes the planner produces — the same node,
/// siblings, cousins, ancestors, descendants, the root, unrelated deep cells
/// — interleaved with descend/ascend walks. Each seek starts from wherever
/// the previous step left the cursor, so a stale common-ancestor state
/// shows up as a mismatch against a fresh cursor.
void check_incremental_seeks(const Curve& curve, std::uint64_t seed,
                             int steps) {
  const unsigned d = curve.dims();
  const unsigned b = curve.bits_per_dim();
  RefineCursor cursor(curve);
  Rng rng(seed);
  const auto random_digits = [&](unsigned levels) {
    return rng.next128() & low_mask(levels * d);
  };
  u128 prefix = 0;
  unsigned level = 0;
  Rect rect = random_rect(rng, d, curve.max_coord());
  for (int step = 0; step < steps; ++step) {
    if (step % 16 == 0) rect = random_rect(rng, d, curve.max_coord());
    switch (rng.below(9)) {
      case 0: // the same node again
        break;
      case 1: // a sibling
        if (level >= 1)
          prefix = child_of(ancestor_of(prefix, d, 1), d, random_digits(1));
        break;
      case 2: // a cousin: same level, a random nearer-the-root ancestor
        if (level >= 2) {
          const unsigned up = 2 + static_cast<unsigned>(rng.below(level - 1));
          prefix = ancestor_of(prefix, d, up);
          for (unsigned k = 0; k < up; ++k)
            prefix = child_of(prefix, d, random_digits(1));
        }
        break;
      case 3: { // an ancestor
        const unsigned to = static_cast<unsigned>(rng.below(level + 1));
        prefix = ancestor_of(prefix, d, level - to);
        level = to;
        break;
      }
      case 4: { // a descendant
        const unsigned to =
            level + static_cast<unsigned>(rng.below(b - level + 1));
        for (; level < to; ++level)
          prefix = child_of(prefix, d, random_digits(1));
        break;
      }
      case 5: // the root
        prefix = 0;
        level = 0;
        break;
      case 6: // an unrelated deep cell
        level = b / 2 + static_cast<unsigned>(rng.below(b - b / 2 + 1));
        prefix = random_digits(level);
        break;
      case 7: { // a descend walk, no seek
        const unsigned n = static_cast<unsigned>(rng.below(b - level + 1));
        for (unsigned k = 0; k < n; ++k, ++level) {
          const u128 w = random_digits(1);
          cursor.descend(w);
          prefix = child_of(prefix, d, w);
        }
        ASSERT_NO_FATAL_FAILURE(
            expect_matches_fresh(curve, cursor, prefix, level, rect, rng));
        continue;
      }
      case 8: { // an ascend walk, no seek
        const unsigned n = static_cast<unsigned>(rng.below(level + 1));
        for (unsigned k = 0; k < n; ++k) cursor.ascend();
        prefix = ancestor_of(prefix, d, n);
        level -= n;
        ASSERT_NO_FATAL_FAILURE(
            expect_matches_fresh(curve, cursor, prefix, level, rect, rng));
        continue;
      }
    }
    cursor.seek(prefix, level);
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_fresh(curve, cursor, prefix, level, rect, rng))
        << "step " << step;
  }
}

using Config = std::tuple<std::string, unsigned, unsigned>;

class CursorOracle : public ::testing::TestWithParam<Config> {
protected:
  void SetUp() override {
    const auto& [family, dims, bits] = GetParam();
    curve_ = make_curve(family, dims, bits);
  }

  std::unique_ptr<Curve> curve_;
};

TEST_P(CursorOracle, SeekReproducesEveryReferenceCell) {
  RefineCursor cursor(*curve_);
  Rng rng(41);
  const unsigned d = curve_->dims();
  const unsigned b = curve_->bits_per_dim();
  for (unsigned level = 0; level <= b; ++level) {
    for (int trial = 0; trial < 40; ++trial) {
      const u128 prefix = rng.next128() & low_mask(level * d);
      cursor.seek(prefix, level);
      EXPECT_EQ(cursor.prefix(), prefix);
      EXPECT_EQ(cursor.level(), level);
      const Rect want = curve_->cell_of_prefix(prefix, level);
      InlineRect got;
      cursor.cell(got);
      ASSERT_EQ(got.to_rect(), want) << "level " << level;
      for (unsigned i = 0; i < d; ++i) {
        EXPECT_EQ(cursor.cell_lo(i), want.dims[i].lo);
        EXPECT_EQ(cursor.cell_hi(i), want.dims[i].hi);
      }
    }
  }
}

TEST_P(CursorOracle, DescendAscendWalkTracksReference) {
  RefineCursor cursor(*curve_);
  Rng rng(42);
  const unsigned d = curve_->dims();
  const unsigned b = curve_->bits_per_dim();
  for (int walk = 0; walk < 30; ++walk) {
    cursor.reset();
    std::vector<u128> digits;
    u128 prefix = 0;
    // All the way down...
    for (unsigned level = 0; level < b; ++level) {
      const u128 digit = rng.next128() & low_mask(d);
      digits.push_back(digit);
      cursor.descend(digit);
      prefix = (prefix << d) | digit;
      InlineRect got;
      cursor.cell(got);
      ASSERT_EQ(got.to_rect(), curve_->cell_of_prefix(prefix, level + 1));
    }
    // ...and back up, re-checking each ancestor cell.
    for (unsigned level = b; level-- > 0;) {
      cursor.ascend();
      prefix >>= d;
      InlineRect got;
      cursor.cell(got);
      ASSERT_EQ(got.to_rect(), curve_->cell_of_prefix(prefix, level));
    }
  }
}

TEST_P(CursorOracle, EntryPointMatchesInverseMappingOfSegmentLow) {
  RefineCursor cursor(*curve_);
  Rng rng(43);
  const unsigned d = curve_->dims();
  const unsigned b = curve_->bits_per_dim();
  std::vector<std::uint64_t> got(d);
  for (unsigned level = 0; level <= b; ++level) {
    for (int trial = 0; trial < 40; ++trial) {
      const u128 prefix = rng.next128() & low_mask(level * d);
      cursor.seek(prefix, level);
      const unsigned shift = (b - level) * d;
      const u128 lo_index = shift >= 128 ? 0 : prefix << shift;
      const Point want = curve_->point_of(lo_index);
      cursor.entry_point(got.data());
      for (unsigned i = 0; i < d; ++i)
        ASSERT_EQ(got[i], want[i]) << "level " << level << " axis " << i;
    }
  }
}

TEST_P(CursorOracle, RelationAndChildClassificationMatchReference) {
  RefineCursor cursor(*curve_);
  Rng rng(44);
  const unsigned d = curve_->dims();
  const unsigned b = curve_->bits_per_dim();
  const u128 fanout = cursor.fanout();
  for (int q = 0; q < 25; ++q) {
    const Rect rect = random_rect(rng, d, curve_->max_coord());
    for (unsigned level = 0; level <= b; ++level) {
      const u128 prefix = rng.next128() & low_mask(level * d);
      cursor.seek(prefix, level);
      EXPECT_EQ(cursor.relation_to(rect),
                reference_relation(*curve_, prefix, level, rect));
      if (level == b) continue;
      for (u128 w = 0; w < fanout; ++w) {
        const u128 child_prefix = (prefix << d) | w;
        ASSERT_EQ(cursor.classify_child(w, rect),
                  reference_relation(*curve_, child_prefix, level + 1, rect))
            << "level " << level << " child " << static_cast<unsigned>(w);
      }
    }
  }
}

TEST_P(CursorOracle, DecomposeIsUnchangedFromReferenceEngine) {
  const ClusterRefiner refiner(*curve_);
  Rng rng(45);
  const unsigned b = curve_->bits_per_dim();
  for (int q = 0; q < 60; ++q) {
    const Rect rect = random_rect(rng, curve_->dims(), curve_->max_coord());
    for (unsigned depth : {1u, b / 2, b}) {
      ASSERT_EQ(refiner.decompose(rect, depth),
                reference_decompose(*curve_, rect, depth))
          << "query " << q << " depth " << depth;
    }
  }
}

TEST_P(CursorOracle, DecomposeCappedIsUnchangedFromReferenceEngine) {
  const ClusterRefiner refiner(*curve_);
  Rng rng(46);
  for (int q = 0; q < 40; ++q) {
    const Rect rect = random_rect(rng, curve_->dims(), curve_->max_coord());
    for (std::size_t cap : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      // The pre-cursor progressive deepening, verbatim: full re-decomposition
      // per level, keep the deepest result within the cap.
      std::vector<Segment> best = reference_decompose(*curve_, rect, 1);
      for (unsigned level = 2; level <= curve_->bits_per_dim(); ++level) {
        std::vector<Segment> next = reference_decompose(*curve_, rect, level);
        if (next.size() > cap) break;
        const bool converged = next == best;
        best = std::move(next);
        if (converged) break;
      }
      ASSERT_EQ(refiner.decompose_capped(rect, cap), best)
          << "query " << q << " cap " << cap;
    }
  }
}

TEST_P(CursorOracle, IncrementalSeekMatchesFreshCursor) {
  check_incremental_seeks(*curve_, 49, 1000);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, CursorOracle,
    ::testing::Values(Config{"hilbert", 1, 16}, Config{"hilbert", 2, 8},
                      Config{"hilbert", 3, 5}, Config{"hilbert", 4, 4},
                      Config{"hilbert", 5, 3}, Config{"hilbert", 6, 2},
                      Config{"zorder", 1, 12}, Config{"zorder", 2, 8},
                      Config{"zorder", 3, 5}, Config{"zorder", 6, 2},
                      Config{"gray", 1, 12}, Config{"gray", 2, 8},
                      Config{"gray", 3, 5}, Config{"gray", 6, 2}),
    [](const auto& info) {
      return std::get<0>(info.param) + "_d" +
             std::to_string(std::get<1>(info.param)) + "_m" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Cursor, SeekAfterDeepWalkRestoresState) {
  // Interleave seeks and walks: seek keeps the orientation stack up to the
  // common ancestor and rebuilds only below it, so a walk's deeper levels
  // must never leak into the next seek's state.
  const auto curve = make_curve("hilbert", 3, 8);
  RefineCursor cursor(*curve);
  Rng rng(47);
  for (int i = 0; i < 200; ++i) {
    const unsigned level = 1 + static_cast<unsigned>(rng.below(8));
    const u128 prefix = rng.next128() & low_mask(level * 3);
    cursor.seek(prefix, level);
    InlineRect got;
    cursor.cell(got);
    ASSERT_EQ(got.to_rect(), curve->cell_of_prefix(prefix, level));
    // Random sub-walk, then the next iteration's seek must still be exact.
    if (level < 8 && rng.below(2)) cursor.descend(rng.next128() & low_mask(3));
  }
}

TEST(Cursor, HandlesMaxGeometryCurves) {
  // The widest supported geometries: 128x1 (fanout is the whole space) is
  // exercised via d=64 b=2 and d=2 b=64 here to keep runtime sane; both hit
  // the >=64-bit shift guards in the coordinate math.
  for (auto [family, d, b] : {std::tuple<const char*, unsigned, unsigned>
                                  {"hilbert", 2, 64},
                              {"zorder", 2, 64},
                              {"hilbert", 64, 2},
                              {"gray", 63, 2}}) {
    const auto curve = make_curve(family, d, b);
    RefineCursor cursor(*curve);
    Rng rng(48);
    for (int trial = 0; trial < 20; ++trial) {
      const unsigned level = static_cast<unsigned>(rng.below(b + 1));
      const u128 prefix = rng.next128() & low_mask(level * d);
      cursor.seek(prefix, level);
      InlineRect got;
      cursor.cell(got);
      ASSERT_EQ(got.to_rect(), curve->cell_of_prefix(prefix, level))
          << family << " level " << level;
    }
  }
}

TEST(Cursor, IncrementalSeekHandlesMaxGeometryCurves) {
  // The geometries of HandlesMaxGeometryCurves plus d = 128, b = 1: every
  // shift guard of the common-ancestor test (d * b = 128, level 0).
  for (auto [family, d, b] : {std::tuple<const char*, unsigned, unsigned>
                                  {"hilbert", 2, 64},
                              {"zorder", 2, 64},
                              {"hilbert", 64, 2},
                              {"gray", 63, 2},
                              {"hilbert", 128, 1}}) {
    SCOPED_TRACE(std::string(family) + " d" + std::to_string(d) + " b" +
                 std::to_string(b));
    const auto curve = make_curve(family, d, b);
    check_incremental_seeks(*curve, 50, 150);
  }
}

} // namespace
} // namespace squid::sfc
