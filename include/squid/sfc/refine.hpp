// Cluster identification and recursive query refinement (paper 3.4).
//
// A flexible query is a hyper-rectangle in the keyword space. Its matching
// indices form a union of contiguous curve segments ("clusters"). Because an
// exact decomposition can touch exponentially many segments (e.g. a single
// keyword with a trailing wildcard defines a 1-wide column crossed by the
// curve once per cell), the paper never materializes it centrally: the
// refinement tree of Figs 6-7 is expanded *one level per overlay node*, and
// branches are pruned where no peers/data exist. The distributed query
// engine runs that per-node step on a RefineCursor (cursor.hpp) directly;
// ClusterRefiner supplies the tree's geometry (segment_of, validate_query)
// and decompose(), the bounded expansion used by tests, baselines, and
// cluster-count analytics.
//
// All tree expansion runs on the incremental RefineCursor: descending a
// level costs O(dims) and the hot loops perform zero heap allocations per
// tree node. The public decompose entry points validate their query once;
// per-node work is unchecked.

#pragma once

#include <limits>
#include <vector>

#include "squid/sfc/cursor.hpp"
#include "squid/sfc/curve.hpp"
#include "squid/sfc/types.hpp"

namespace squid::sfc {

/// A node of the refinement tree: the level-`level` cell whose indices share
/// the (level*d)-bit `prefix` — the paper's "cluster prefix" (digital
/// causality, 3.1.1).
struct ClusterNode {
  u128 prefix = 0;
  unsigned level = 0;

  friend bool operator==(const ClusterNode&, const ClusterNode&) = default;
};

class ClusterRefiner {
public:
  explicit ClusterRefiner(const Curve& curve) : curve_(curve) {}

  /// Index range represented by a tree node.
  Segment segment_of(const ClusterNode& node) const;

  /// Expand the tree from the root down to at most `max_level`, emitting
  /// maximal merged segments in ascending order. Cells still partial at
  /// `max_level` are emitted whole, so the result over-approximates the
  /// query region unless max_level == bits_per_dim (exact decomposition).
  std::vector<Segment> decompose(
      const Rect& query,
      unsigned max_level = std::numeric_limits<unsigned>::max()) const;

  /// Number of refinement-tree nodes expanded by the preceding decompose()
  /// call pattern for the same arguments; exposed for the analytics benches.
  std::size_t count_tree_nodes(
      const Rect& query,
      unsigned max_level = std::numeric_limits<unsigned>::max()) const;

  /// Deepest decomposition whose segment count stays within `max_segments`
  /// (progressive deepening). Used by the naive centralized query baseline,
  /// which must materialize every cluster at the origin — the scalability
  /// problem the paper's distributed refinement exists to avoid.
  /// Incremental: a frontier of still-partial clusters is carried from level
  /// to level and only those are deepened; settled segments pass through.
  std::vector<Segment> decompose_capped(const Rect& query,
                                        std::size_t max_segments) const;

  /// Throws std::invalid_argument unless `query` matches the curve's
  /// geometry. The distributed engine calls this once per query and then
  /// drives the unchecked cursor paths for every tree node.
  void validate_query(const Rect& query) const { check_query(query); }

  const Curve& curve() const noexcept { return curve_; }

private:
  void check_query(const Rect& query) const;

  const Curve& curve_;
};

} // namespace squid::sfc
