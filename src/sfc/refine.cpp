#include "squid/sfc/refine.hpp"

#include <algorithm>
#include <array>

#include "squid/util/require.hpp"

namespace squid::sfc {

namespace {

/// prefix << dims with the dims==128 case defined (only the d=128, b=1
/// curve, where every prefix is 0 anyway).
u128 child_prefix(u128 prefix, unsigned dims, u128 digit) noexcept {
  return (dims >= 128 ? 0 : prefix << dims) | digit;
}

void emit_merged(std::vector<Segment>& out, const Segment& seg) {
  if (!out.empty() && out.back().hi + 1 == seg.lo) {
    out.back().hi = seg.hi; // adjacent in curve order: same cluster
  } else {
    out.push_back(seg);
  }
}

} // namespace

void ClusterRefiner::check_query(const Rect& query) const {
  SQUID_REQUIRE(query.dims.size() == curve_.dims(),
                "query dimensionality does not match the curve");
  for (const auto& iv : query.dims) {
    SQUID_REQUIRE(iv.lo <= iv.hi, "query interval is empty (lo > hi)");
    SQUID_REQUIRE(iv.hi <= curve_.max_coord(),
                  "query interval exceeds curve resolution");
  }
}

Segment ClusterRefiner::segment_of(const ClusterNode& node) const {
  SQUID_REQUIRE(node.level <= curve_.bits_per_dim(),
                "cluster level exceeds curve depth");
  const unsigned shift = (curve_.bits_per_dim() - node.level) * curve_.dims();
  // shift == 128 only at the root (prefix 0), where a literal shift is UB.
  const u128 lo = shift >= 128 ? 0 : node.prefix << shift;
  return Segment{lo, lo + low_mask(shift)};
}

std::vector<Segment> ClusterRefiner::decompose(const Rect& query,
                                               unsigned max_level) const {
  check_query(query);
  const unsigned depth = std::min(max_level, curve_.bits_per_dim());
  RefineCursor cursor(curve_);

  // The root needs classification before descending.
  {
    const auto rel = cursor.relation_to(query);
    if (rel == CellRelation::disjoint) return {};
    if (rel == CellRelation::covered || depth == 0)
      return {segment_of(ClusterNode{0, 0})};
  }

  // Depth-first descent in ascending digit order (= curve order), with one
  // next-child counter per level; cells cost O(dims) and no allocations.
  std::vector<Segment> out;
  const unsigned d = curve_.dims();
  const u128 fanout = cursor.fanout();
  std::array<u128, kMaxLevels> next;
  unsigned lvl = 0;
  next[0] = 0;
  for (;;) {
    if (next[lvl] == fanout) {
      if (lvl == 0) break;
      cursor.ascend();
      --lvl;
      continue;
    }
    const u128 w = next[lvl]++;
    const auto rel = cursor.classify_child(w, query);
    if (rel == CellRelation::disjoint) continue;
    if (rel == CellRelation::covered || lvl + 1 >= depth) {
      emit_merged(out, segment_of(ClusterNode{
                           child_prefix(cursor.prefix(), d, w), lvl + 1}));
    } else {
      cursor.descend(w);
      next[++lvl] = 0;
    }
  }
  return out;
}

std::size_t ClusterRefiner::count_tree_nodes(const Rect& query,
                                             unsigned max_level) const {
  check_query(query);
  const unsigned depth = std::min(max_level, curve_.bits_per_dim());
  std::size_t visited = 1; // root
  RefineCursor cursor(curve_);
  if (cursor.relation_to(query) != CellRelation::partial || depth == 0)
    return visited;
  const u128 fanout = cursor.fanout();
  std::array<u128, kMaxLevels> next;
  unsigned lvl = 0;
  next[0] = 0;
  for (;;) {
    if (next[lvl] == fanout) {
      if (lvl == 0) break;
      cursor.ascend();
      --lvl;
      continue;
    }
    const u128 w = next[lvl]++;
    const auto rel = cursor.classify_child(w, query);
    if (rel == CellRelation::disjoint) continue;
    ++visited;
    if (rel == CellRelation::partial && lvl + 1 < depth) {
      cursor.descend(w);
      next[++lvl] = 0;
    }
  }
  return visited;
}

std::vector<Segment> ClusterRefiner::decompose_capped(
    const Rect& query, std::size_t max_segments) const {
  SQUID_REQUIRE(max_segments >= 1, "segment cap must be positive");
  check_query(query);
  RefineCursor cursor(curve_);
  const unsigned d = curve_.dims();
  const u128 fanout = cursor.fanout();

  {
    const auto rel = cursor.relation_to(query);
    if (rel == CellRelation::disjoint) return {};
    if (rel == CellRelation::covered) return {segment_of(ClusterNode{0, 0})};
  }

  // Curve-ordered frontier: settled (covered) runs merge eagerly and pass
  // through every later level untouched; only still-partial clusters are
  // deepened. This replaces the seed's full re-decomposition per level.
  struct Entry {
    Segment seg;
    bool partial;
    ClusterNode node; ///< meaningful only when partial
  };
  std::vector<Entry> entries{{segment_of(ClusterNode{0, 0}), true, {0, 0}}};

  const auto append = [](std::vector<Entry>& list, Entry entry) {
    if (!entry.partial && !list.empty() && !list.back().partial &&
        list.back().seg.hi + 1 == entry.seg.lo) {
      list.back().seg.hi = entry.seg.hi;
    } else {
      list.push_back(entry);
    }
  };

  std::vector<Segment> best;
  std::vector<Entry> deeper;
  for (unsigned level = 1; level <= curve_.bits_per_dim(); ++level) {
    deeper.clear();
    bool any_partial = false;
    for (const Entry& entry : entries) {
      if (!entry.partial) {
        append(deeper, entry);
        continue;
      }
      cursor.seek(entry.node.prefix, entry.node.level);
      for (u128 w = 0; w < fanout; ++w) {
        const auto rel = cursor.classify_child(w, query);
        if (rel == CellRelation::disjoint) continue;
        const ClusterNode child{child_prefix(entry.node.prefix, d, w),
                                entry.node.level + 1};
        const bool partial = rel == CellRelation::partial;
        any_partial |= partial;
        append(deeper, Entry{segment_of(child), partial, child});
      }
    }

    // Merged view at this level: partial cells are emitted whole, so a
    // settled run and a partial neighbor can still fuse.
    std::vector<Segment> merged;
    for (const Entry& entry : deeper) emit_merged(merged, entry.seg);
    if (level > 1 && merged.size() > max_segments) break;
    const bool converged = merged == best;
    best = std::move(merged);
    if (converged || !any_partial) break;
    entries.swap(deeper);
  }
  return best;
}

} // namespace squid::sfc
