// In-overlay aggregation: typed aggregate specs and mergeable partials.
//
// Discovery workloads overwhelmingly ask count / sum / min / max / group-by
// / top-k rather than "ship me every matching element". An AggregateSpec
// rides the ScanRequest frame to each scan site, which folds its matching
// elements into an AggregatePartial locally; partials then merge up the
// cluster-dispatch tree and finalize once at the origin (DESIGN.md 4g).
//
// Every merge operator here is exactly associative and commutative —
// count via integer addition, sum via the ExactSum superaccumulator,
// min/max via idempotent comparison, group-by via key-sorted count maps,
// top-k via bounded sorted lists with a (value, name) total order — so the
// final answer is bit-identical regardless of tree shape, delivery mode,
// worker count, or merge order. That is what lets the differential suite
// compare pushdown against an origin-side fold over ship-all elements.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "squid/core/types.hpp"
#include "squid/util/exact_sum.hpp"

namespace squid::core {

enum class AggregateKind : std::uint8_t {
  kNone = 0, ///< not an aggregate query (element-shipping scan)
  kCount,
  kSum,
  kMin,
  kMax,
  kGroupBy,
  kTopK,
};

const char* aggregate_kind_name(AggregateKind kind) noexcept;

/// What to compute over the matching elements. `dim` selects the payload
/// attribute (keyword-space dimension) the aggregate reads: kSum/kMin/kMax/
/// kTopK require a numeric dimension, kGroupBy accepts any dimension (the
/// group key is the token's textual rendering), kCount ignores it.
struct AggregateSpec {
  AggregateKind kind = AggregateKind::kNone;
  std::uint32_t dim = 0;
  /// kTopK: number of entries to keep. Ignored by other kinds.
  std::uint32_t k = 0;
  /// kTopK: true selects the k largest values, false the k smallest.
  bool largest = true;

  friend bool operator==(const AggregateSpec&, const AggregateSpec&) = default;
};

/// One group-by bucket: elements whose `dim` token renders as `key`.
struct GroupCount {
  std::string key;
  std::uint64_t count = 0;

  friend bool operator==(const GroupCount&, const GroupCount&) = default;
};

/// One top-k entry. The element name is the deterministic tie-break: among
/// equal values the lexicographically smaller name ranks first, so any
/// multiset of candidates yields exactly one top-k list.
struct TopEntry {
  double value = 0;
  std::string name;

  friend bool operator==(const TopEntry&, const TopEntry&) = default;
};

/// A mergeable partial aggregate. One per scan site, merged pairwise up the
/// dispatch tree; the origin's fully-merged partial IS the answer. Fields
/// unused by `spec.kind` stay default-initialized so bit-equality holds.
struct AggregatePartial {
  AggregateSpec spec;
  /// Elements folded in (maintained by every kind).
  std::uint64_t count = 0;
  /// kSum: exact order-independent accumulator.
  ExactSum sum;
  /// kMin/kMax: both extremes are maintained (the kinds differ only in
  /// which one the caller reads); false until the first element folds.
  bool has_extremes = false;
  double min = 0;
  double max = 0;
  /// kGroupBy: buckets sorted by key (strictly ascending, no duplicates).
  std::vector<GroupCount> groups;
  /// kTopK: best-first sorted entries, at most spec.k of them. "Best" is
  /// (value descending if spec.largest else ascending, then name ascending).
  std::vector<TopEntry> top;

  /// Fold one matching element into this partial (scan-site side).
  void fold(const DataElement& element);

  /// Merge another partial of the same spec (interior-node side). Exactly
  /// associative and commutative.
  void merge(const AggregatePartial& other);

  friend bool operator==(const AggregatePartial&,
                         const AggregatePartial&) = default;
};

/// An empty partial carrying `spec` (interior tree nodes with no local
/// scans start from this).
AggregatePartial make_partial(const AggregateSpec& spec);

/// True when `a` ranks strictly before `b` in a top list under `spec`
/// (value order per spec.largest, name-ascending tie-break).
bool top_entry_before(const AggregateSpec& spec, const TopEntry& a,
                      const TopEntry& b) noexcept;

} // namespace squid::core
