// Incremental refinement cursor: descend the space-filling-curve tree with
// per-level transform state instead of re-inverting from the root.
//
// The refinement tree (paper Figs 6-7) is expanded one cell at a time, and
// the seed path computed each cell's bounds with Curve::cell_of_prefix — a
// full O(bits_per_dim * dims) inverse mapping plus two heap allocations per
// tree node, even though a child cell differs from its parent by exactly one
// level of the transform. RefineCursor carries that one level of state down
// the tree, so producing a child cell costs O(dims) and zero allocations.
//
// All three curve families share the same digit model. Let h_k be the d-bit
// index digit at level k (axis 0 at the digit's most significant bit). The
// coordinate digit appended to the axes at level k is a_k:
//
//   zorder:   a_k = h_k                                  (no state)
//   gray:     a_k = graycode(h_k)                        (no state)
//   hilbert:  a_k = S_k(g_k)  — see below                (signed permutation)
//
// The Hilbert rule is derived from Skilling's transpose_to_axes (AIP Conf.
// Proc. 707, 2004; see hilbert.cpp), which factors into (1) a Gray-decode
// sweep that couples adjacent levels:
//
//   g_k[0] = h_k[0] ^ h_{k-1}[d-1],   g_k[i] = h_k[i] ^ h_k[i-1]  (i >= 1)
//
// and (2) an "undo excess work" sweep whose net effect on every level deeper
// than k is a fixed signed axis permutation T(g_k) — the composition, for
// axis i = d-1 down to 0, of "complement axis 0" when g_k[i] is set and
// "swap axis 0 with axis i" otherwise. The cumulative rotation/reflection
// state at level k is S_k = T(g_0) . T(g_1) ... T(g_{k-1}), updated in O(d)
// per descent. Differential tests (tests/sfc/cursor_test.cpp) prove the
// cursor bit-identical to cell_of_prefix for every family, dimension, and
// level; the seed path stays available on the virtual Curve interface.
// Because every level's state is kept, seek() reuses the common ancestor of
// the current and the target node instead of re-descending from the root.

#pragma once

#include <cstdint>

#include "squid/sfc/curve.hpp"
#include "squid/sfc/types.hpp"
#include "squid/util/require.hpp"

namespace squid::sfc {

class RefineCursor {
public:
  explicit RefineCursor(const Curve& curve)
      : dims_(curve.dims()),
        bits_(curve.bits_per_dim()),
        family_(curve.family()),
        digit_mask_(low_mask(dims_)) {
    reset();
  }

  unsigned dims() const noexcept { return dims_; }
  unsigned bits_per_dim() const noexcept { return bits_; }
  unsigned level() const noexcept { return level_; }
  u128 prefix() const noexcept { return prefix_; }
  u128 fanout() const noexcept {
    return dims_ >= 128 ? 0 : static_cast<u128>(1) << dims_;
  }

  /// Return to the root cell (the whole space).
  void reset() noexcept {
    level_ = 0;
    prefix_ = 0;
    for (unsigned i = 0; i < dims_; ++i) {
      coords_[i] = 0;
      perm_[i] = static_cast<std::uint8_t>(i);
    }
    flip_[0] = 0;
  }

  /// Position the cursor at an arbitrary tree node. The cursor ascends to
  /// the deepest common ancestor c of its current node and the target, then
  /// descends the target's remaining digits: O(((level() - c) + (level - c))
  /// * dims), so a seek to a sibling costs O(dims) and a repeat seek O(1).
  /// The per-level orientation stack makes every ascend a pop, so the state
  /// at c is exactly what a descent from the root would build.
  void seek(u128 prefix, unsigned level) noexcept {
    while (level_ > level) ascend();
    // level_ >= 1 keeps the shift below level * dims_ <= 128.
    while (level_ > 0 && (prefix >> ((level - level_) * dims_)) != prefix_)
      ascend();
    for (unsigned k = level_; k < level; ++k) {
      const unsigned rem = (level - 1 - k) * dims_;
      descend((prefix >> rem) & digit_mask_);
    }
  }

  /// Step into child `digit` (the next d index bits) in O(dims).
  void descend(u128 digit) noexcept {
    const unsigned d = dims_;
    const u128 a = coord_digit(digit);
    if (family_ == CurveFamily::hilbert) push_state(digit);
    for (unsigned i = 0; i < d; ++i)
      coords_[i] = (coords_[i] << 1) |
                   static_cast<std::uint64_t>((a >> i) & 1u);
    prefix_ = (d >= 128 ? 0 : prefix_ << d) | digit;
    ++level_;
  }

  /// Step back to the parent cell in O(dims).
  void ascend() noexcept {
    --level_;
    prefix_ = dims_ >= 128 ? 0 : prefix_ >> dims_;
    for (unsigned i = 0; i < dims_; ++i) coords_[i] >>= 1;
  }

  /// Bounds of the current cell along one axis.
  std::uint64_t cell_lo(unsigned axis) const noexcept {
    return shifted_lo(coords_[axis], bits_ - level_);
  }
  std::uint64_t cell_hi(unsigned axis) const noexcept {
    const unsigned s = bits_ - level_;
    return shifted_lo(coords_[axis], s) + width_mask(s);
  }

  /// Current cell bounds, written into inline (allocation-free) storage.
  void cell(InlineRect& out) const noexcept {
    out.size = dims_;
    const unsigned s = bits_ - level_;
    for (unsigned i = 0; i < dims_; ++i) {
      const std::uint64_t lo = shifted_lo(coords_[i], s);
      out.dims[i] = Interval{lo, lo + width_mask(s)};
    }
  }

  /// Relation of the current cell to `query` in O(dims), no allocation.
  /// `query` must have dims() valid intervals.
  CellRelation relation_to(const Rect& query) const noexcept {
    return relation(query, bits_ - level_, 0, /*child=*/false);
  }

  /// Relation of child `digit`'s cell to `query` WITHOUT descending: O(dims),
  /// no state update, no allocation. Classifying all 2^d children of a node
  /// this way is the decompose/refine hot loop. Requires level() <
  /// bits_per_dim().
  CellRelation classify_child(u128 digit, const Rect& query) const noexcept {
    return relation(query, bits_ - level_ - 1, coord_digit(digit),
                    /*child=*/true);
  }

  /// The first point the curve visits inside the current cell, i.e. the
  /// point of the cell's lowest index (= point_of(prefix << remaining)).
  /// `out` must have room for dims() coordinates. O((bits-level) * dims).
  void entry_point(std::uint64_t* out) const noexcept;

private:
  /// lo << s with the s==64 root-of-64-bit-axes case defined (lo is 0 there).
  static std::uint64_t shifted_lo(std::uint64_t c, unsigned s) noexcept {
    return s >= 64 ? 0 : c << s;
  }
  static std::uint64_t width_mask(unsigned s) noexcept {
    return s >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << s) - 1;
  }

  /// Coordinate digit appended at the current level for index digit `w`,
  /// as an axis-indexed bitmask (bit i = axis i's new low bit).
  u128 coord_digit(u128 w) const noexcept {
    const unsigned d = dims_;
    u128 a = 0;
    switch (family_) {
      case CurveFamily::zorder:
        for (unsigned i = 0; i < d; ++i)
          a |= ((w >> (d - 1 - i)) & 1u) << i;
        break;
      case CurveFamily::gray: {
        unsigned prev = 0;
        for (unsigned i = 0; i < d; ++i) {
          const auto wi = static_cast<unsigned>((w >> (d - 1 - i)) & 1u);
          a |= static_cast<u128>(wi ^ prev) << i;
          prev = wi;
        }
        break;
      }
      case CurveFamily::hilbert: {
        const std::uint8_t* sperm = perm_.data() + level_ * d;
        const u128 sflip = flip_[level_];
        std::uint8_t g[kMaxDims];
        gray_coupled(w, g);
        for (unsigned i = 0; i < d; ++i)
          a |= static_cast<u128>(g[sperm[i]] ^
                                 static_cast<unsigned>((sflip >> i) & 1u))
               << i;
        break;
      }
    }
    return a;
  }

  /// The level-coupled Gray decode of Skilling's inverse: g[0] folds in the
  /// previous digit's last-axis bit (the LSB of the current prefix).
  void gray_coupled(u128 w, std::uint8_t* g) const noexcept {
    const unsigned d = dims_;
    auto prev = static_cast<unsigned>(prefix_ & 1u);
    for (unsigned i = 0; i < d; ++i) {
      const auto wi = static_cast<unsigned>((w >> (d - 1 - i)) & 1u);
      g[i] = static_cast<std::uint8_t>(wi ^ prev);
      prev = wi;
    }
  }

  /// The signed axis permutation T(g): for i = d-1 down to 0, complement
  /// axis 0 when g[i] is set, else swap axis 0 with axis i. Written as
  /// out[j] = in[tperm[j]] ^ tflip[j].
  static void transform_of(const std::uint8_t* g, unsigned d,
                           std::uint8_t* tperm, u128& tflip) noexcept {
    for (unsigned i = 0; i < d; ++i) tperm[i] = static_cast<std::uint8_t>(i);
    tflip = 0;
    for (unsigned i = d; i-- > 0;) {
      if (g[i]) {
        tflip ^= 1u;
      } else if (i != 0) {
        const std::uint8_t t = tperm[0];
        tperm[0] = tperm[i];
        tperm[i] = t;
        const auto b0 = static_cast<unsigned>(tflip & 1u);
        const auto bi = static_cast<unsigned>((tflip >> i) & 1u);
        if (b0 != bi) {
          tflip ^= 1u;
          tflip ^= static_cast<u128>(1) << i;
        }
      }
    }
  }

  /// S' = S . T: s'perm[j] = tperm[sperm[j]], s'flip[j] = tflip[sperm[j]]
  /// ^ sflip[j].
  static void compose(const std::uint8_t* sperm, u128 sflip,
                      const std::uint8_t* tperm, u128 tflip, unsigned d,
                      std::uint8_t* operm, u128& oflip) noexcept {
    oflip = 0;
    for (unsigned j = 0; j < d; ++j) {
      operm[j] = tperm[sperm[j]];
      oflip |= static_cast<u128>(((tflip >> sperm[j]) & 1u) ^
                                 ((sflip >> j) & 1u))
               << j;
    }
  }

  /// Compute and store the cumulative state for level_+1.
  void push_state(u128 w) noexcept {
    const unsigned d = dims_;
    std::uint8_t g[kMaxDims];
    gray_coupled(w, g);
    std::uint8_t tperm[kMaxDims];
    u128 tflip = 0;
    transform_of(g, d, tperm, tflip);
    const std::uint8_t* sperm = perm_.data() + level_ * d;
    compose(sperm, flip_[level_], tperm, tflip, d,
            perm_.data() + (level_ + 1) * d, flip_[level_ + 1]);
  }

  /// Shared classify: cell with `s = bits - level(cell)` free bits per axis.
  /// When `child` is set, `a` carries the extra coordinate digit appended
  /// below the current coords.
  CellRelation relation(const Rect& query, unsigned s, u128 a,
                        bool child) const noexcept {
    bool inside = true;
    for (unsigned i = 0; i < dims_; ++i) {
      const std::uint64_t c =
          child ? (coords_[i] << 1) | static_cast<std::uint64_t>((a >> i) & 1u)
                : coords_[i];
      const std::uint64_t lo = shifted_lo(c, s);
      const std::uint64_t hi = lo + width_mask(s);
      const Interval& q = query.dims[i];
      if (lo > q.hi || hi < q.lo) return CellRelation::disjoint;
      inside &= (q.lo <= lo) & (hi <= q.hi);
    }
    return inside ? CellRelation::covered : CellRelation::partial;
  }

  unsigned dims_;
  unsigned bits_;
  CurveFamily family_;
  u128 digit_mask_;
  unsigned level_ = 0;
  u128 prefix_ = 0;
  /// Axis coordinate prefixes: coords_[i] holds the top `level_` bits of
  /// axis i, right-aligned.
  std::array<std::uint64_t, kMaxDims> coords_;
  /// Hilbert cumulative state per level, stride dims_: since
  /// bits_per_dim * dims <= 128, the flat storage never exceeds
  /// (bits+1)*dims <= 2*kMaxDims bytes.
  std::array<std::uint8_t, 2 * kMaxDims> perm_;
  std::array<u128, kMaxLevels + 1> flip_;
};

} // namespace squid::sfc
