// Tiered mutable key store (DESIGN.md 4j).
//
// The flat sorted-array store (DESIGN.md 4b) made scans contiguous and load
// probes rank queries, at the recorded cost of an O(K) array shift per
// single-key publish of a NEW key — fine for publish-once corpora, fatal
// for update-heavy workloads (moving objects retract and republish every
// epoch). This container keeps the flat layout as the BASE tier and adds a
// small sorted DELTA tier in front of it:
//
//   * base_index_/base_data_ — the big sorted arrays, exactly 4b's layout.
//   * delta_index_/delta_data_ — keys inserted since the last merge, also
//     sorted. Inserting here shifts O(|delta|) elements, not O(K).
//   * dead_ — tombstones: base keys whose payload was retracted. The base
//     slot stays in place (no O(K) erase); readers skip it. A republished
//     tombstone is resurrected in place.
//
// Reads merge the two tiers on the fly: scans walk base, delta, and the
// tombstone list in lockstep (ascending key order, O(1) amortized per key),
// rank queries subtract/add the side tiers with two extra binary searches,
// and order statistics select across the tiers in O(log^2). Every read is
// bit-identical to a from-scratch flat build of the same content — the
// invariant tests/core/store_differential_test.cpp locks end to end.
//
// A deterministic amortized merge folds the tiers back into the base when
// |delta| + |tombstones| exceeds the threshold (delta_cap): by default
// max(kDeltaFloor, 4*sqrt(K)) — the classic defer-and-merge balance point,
// giving amortized O(sqrt K) per mutation with the O(K) fold paid once per
// Theta(sqrt K) operations. The threshold is a pure function of sizes, so
// any replay of the same operation sequence merges at the same steps.
// delta_cap = 1 degenerates to the 4b flat store (merge after every
// mutation), which is how bench/micro_store measures before/after.
//
// A batch of sorted writes (write_sorted) follows the same threshold: a
// batch that keeps the pending count under it runs key by key in place;
// a larger one folds the tiers and the batch together in one pass, so an
// update-heavy batch pays one O(K + n) fold, not one per ~4*sqrt(K)
// mutations.
//
// The same container holds the Chord ring's membership (ChordNode payloads
// keyed by node id), whose successor/predecessor lookups are the two
// neighbour reads first_at_or_after and last_before.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "squid/util/require.hpp"
#include "squid/util/u128.hpp"

namespace squid::util {

/// Size threshold at which the delta tier folds into the base: the default
/// policy (cap = 0) allows max(kDeltaFloor, 4*sqrt(base_keys)) pending
/// entries; a non-zero cap is used verbatim (cap = 1 -> flat-store
/// behavior). Exposed so benches and docs state the exact rule.
inline std::size_t store_merge_threshold(std::size_t base_keys,
                                         std::size_t cap) noexcept {
  if (cap != 0) return cap;
  constexpr std::size_t kDeltaFloor = 64;
  const auto root = static_cast<std::size_t>(
      std::sqrt(static_cast<double>(base_keys)));
  return std::max(kDeltaFloor, 4 * root);
}

/// Monotone counters describing the store's merge behavior (the owner
/// publishes them as squid.store.* metrics).
struct TieredStoreStats {
  std::uint64_t merges = 0; ///< delta->base folds performed
};

template <class Payload>
class TieredStore {
public:
  /// `delta_cap`: 0 = automatic sqrt policy (store_merge_threshold);
  /// n > 0 = merge whenever |delta| + |tombstones| >= n.
  explicit TieredStore(std::size_t delta_cap = 0) : delta_cap_(delta_cap) {}

  // --- Size / tier introspection ------------------------------------------

  /// Number of LIVE keys (base minus tombstones plus delta).
  std::size_t size() const noexcept {
    return base_index_.size() - dead_.size() + delta_index_.size();
  }
  bool empty() const noexcept { return size() == 0; }
  std::size_t delta_size() const noexcept { return delta_index_.size(); }
  std::size_t tombstones() const noexcept { return dead_.size(); }
  const TieredStoreStats& stats() const noexcept { return stats_; }
  std::size_t delta_cap() const noexcept { return delta_cap_; }

  // --- Mutation -------------------------------------------------------------

  /// Payload of `key`'s live slot, or nullptr when the key is absent
  /// (never stored, or tombstoned).
  Payload* find(u128 key) {
    // The tiers are disjoint, so a base hit (live or tombstoned) settles it.
    if (const auto b = base_pos(key))
      return is_dead(key) ? nullptr : &base_data_[*b];
    if (const auto d = delta_pos(key)) return &delta_data_[*d];
    return nullptr;
  }
  const Payload* find(u128 key) const {
    return const_cast<TieredStore*>(this)->find(key);
  }

  /// Find-or-create the slot for `key`: an existing live slot is returned
  /// as-is; a tombstoned base slot is resurrected in place (its payload was
  /// cleared at retract time); otherwise the key enters the delta tier with
  /// a default-constructed payload (an O(|delta|) shift — the cost the
  /// merge threshold bounds). May trigger the amortized merge, so the
  /// returned reference is only valid until the next store call.
  Payload& obtain(u128 key) {
    if (const auto d = delta_pos(key)) return delta_data_[*d];
    if (const auto b = base_pos(key)) {
      const auto dead = std::lower_bound(dead_.begin(), dead_.end(), key);
      if (dead != dead_.end() && *dead == key) dead_.erase(dead);
      return base_data_[*b];
    }
    const auto it =
        std::lower_bound(delta_index_.begin(), delta_index_.end(), key);
    const auto pos = static_cast<std::size_t>(it - delta_index_.begin());
    delta_index_.insert(it, key);
    delta_data_.insert(delta_data_.begin() + static_cast<std::ptrdiff_t>(pos),
                       Payload{});
    maybe_merge();
    if (const auto d = delta_pos(key)) return delta_data_[*d];
    return base_data_[*base_pos(key)]; // the insert triggered a fold
  }

  /// Remove `key`'s live slot: a delta entry is erased outright, a base
  /// entry is tombstoned (payload cleared in place, key recorded in dead_).
  /// Returns false when the key is not live. May trigger the merge.
  bool erase(u128 key) {
    if (const auto d = delta_pos(key)) {
      delta_index_.erase(delta_index_.begin() +
                         static_cast<std::ptrdiff_t>(*d));
      delta_data_.erase(delta_data_.begin() + static_cast<std::ptrdiff_t>(*d));
      return true;
    }
    const auto b = base_pos(key);
    if (!b || is_dead(key)) return false;
    base_data_[*b] = Payload{}; // release the payload now, not at merge time
    dead_.insert(std::lower_bound(dead_.begin(), dead_.end(), key), key);
    maybe_merge();
    return true;
  }

  /// Bulk rewrite: fold the tiers, then hand the (now complete) base arrays
  /// to `fn` for in-place rebuilding (the ring's repair_all runs here
  /// instead of going through obtain() per key). `fn` must leave the arrays
  /// sorted, duplicate-free, and parallel.
  template <class Fn>
  void bulk_update(Fn&& fn) {
    merge();
    fn(base_index_, base_data_);
  }

  /// Sorted batch write: the n ops with keys key_of(0), ..., key_of(n - 1)
  /// (ascending, repeats allowed) call apply(i, payload) in order of i on
  /// their key's slot — the stored payload, or a default-constructed one
  /// for an absent key. A slot that fails keep(payload)
  /// once its ops have run is dropped (or never created). The merge rule
  /// picks the path: when
  /// the batch's distinct keys plus the pending delta and tombstones stay
  /// under store_merge_threshold, each key goes through the single-key path
  /// (find / obtain / erase) and nothing folds; otherwise the tiers and the
  /// batch fold into the base in one O(K + n) pass, counted as one merge.
  template <class KeyOf, class Apply, class Keep>
  void write_sorted(std::size_t n, KeyOf&& key_of, Apply&& apply,
                    Keep&& keep) {
    const std::size_t limit =
        store_merge_threshold(base_index_.size(), delta_cap_);
    std::size_t pending = delta_index_.size() + dead_.size();
    for (std::size_t i = 0; i < n && pending < limit; ++i)
      pending += i == 0 || key_of(i) != key_of(i - 1);
    if (pending >= limit) {
      fold(n, key_of, apply, keep);
      return;
    }
    // Under the threshold, obtain and erase never fold.
    for (std::size_t i = 0; i < n;) {
      const u128 key = key_of(i);
      Payload& slot = obtain(key);
      for (; i < n && key_of(i) == key; ++i) apply(i, slot);
      if (!keep(slot)) erase(key);
    }
  }

  /// Fold delta + tombstones into the base tier now (bulk_update calls
  /// this before its rebuild so it runs over pure base arrays).
  void merge() {
    if (delta_index_.empty() && dead_.empty()) return;
    fold(
        0, [](std::size_t) { return u128{0}; }, [](std::size_t, Payload&) {},
        [](const Payload&) { return true; });
  }

  // --- Merged reads ---------------------------------------------------------

  /// Rank of the first live key strictly greater than `v` (== count of live
  /// keys <= v): base rank, minus tombstones <= v, plus delta keys <= v.
  std::size_t rank_after(u128 v) const {
    const auto rank = [v](const std::vector<u128>& keys) {
      return static_cast<std::size_t>(
          std::upper_bound(keys.begin(), keys.end(), v) - keys.begin());
    };
    return rank(base_index_) - rank(dead_) + rank(delta_index_);
  }

  /// The first live key >= v, or nullopt when none is (no wrap). One binary
  /// search per tier, then a lockstep step past each tombstone in the way.
  std::optional<u128> first_at_or_after(u128 v) const {
    std::size_t b = lower_bound_pos(base_index_, v);
    std::size_t t = lower_bound_pos(dead_, v);
    // dead_ is a subset of the base keys: dead_[t] is either base_index_[b]
    // (a tombstone, step both) or above it (base_index_[b] is live).
    while (b < base_index_.size() && t < dead_.size() &&
           dead_[t] == base_index_[b]) {
      ++b;
      ++t;
    }
    const std::size_t d = lower_bound_pos(delta_index_, v);
    const bool has_b = b < base_index_.size();
    const bool has_d = d < delta_index_.size();
    if (!has_b && !has_d) return std::nullopt;
    if (!has_d) return base_index_[b];
    if (!has_b) return delta_index_[d];
    return std::min(base_index_[b], delta_index_[d]);
  }

  /// The last live key < v, or nullopt when none is (no wrap): the mirror
  /// of first_at_or_after.
  std::optional<u128> last_before(u128 v) const {
    std::size_t b = lower_bound_pos(base_index_, v);
    std::size_t t = lower_bound_pos(dead_, v);
    while (b > 0 && t > 0 && dead_[t - 1] == base_index_[b - 1]) {
      --b;
      --t;
    }
    const std::size_t d = lower_bound_pos(delta_index_, v);
    if (b == 0 && d == 0) return std::nullopt;
    if (d == 0) return base_index_[b - 1];
    if (b == 0) return delta_index_[d - 1];
    return std::max(base_index_[b - 1], delta_index_[d - 1]);
  }

  /// The k-th smallest live key (0-based). Requires k < size(). Selects
  /// across the tiers by binary-searching the delta's contribution:
  /// O(log |delta| * log K).
  u128 kth(std::size_t k) const {
    SQUID_REQUIRE(k < size(), "TieredStore::kth: rank out of range");
    if (delta_index_.empty()) return alive_base_at(k);
    // Take i keys from the delta and k+1-i from the live base; the correct
    // split is the unique i where the usual two-sorted-array selection
    // fences hold.
    const std::size_t alive = base_index_.size() - dead_.size();
    std::size_t lo = k + 1 > alive ? k + 1 - alive : 0;
    std::size_t hi = std::min(delta_index_.size(), k + 1);
    while (lo < hi) {
      const std::size_t i = lo + (hi - lo) / 2; // delta keys taken
      const std::size_t j = k + 1 - i;          // live base keys taken
      if (i < delta_index_.size() && j > 0 &&
          delta_index_[i] < alive_base_at(j - 1)) {
        lo = i + 1; // delta[i] still below the base fence: take more delta
      } else if (i > 0 && j < alive && alive_base_at(j) < delta_index_[i - 1]) {
        hi = i; // took too much delta
      } else {
        lo = hi = i;
      }
    }
    const std::size_t i = lo, j = k + 1 - lo;
    u128 best = 0;
    bool have = false;
    if (i > 0) {
      best = delta_index_[i - 1];
      have = true;
    }
    if (j > 0) {
      const u128 candidate = alive_base_at(j - 1);
      if (!have || candidate > best) best = candidate;
    }
    return best;
  }

  /// Visit every live (key, payload) in ascending key order: a three-way
  /// lockstep walk over base, delta, and the tombstone list.
  template <class Fn>
  void for_each(Fn&& fn) const {
    scan(0, ~u128{0}, fn);
  }

  /// Visit live keys in [lo, hi], ascending.
  template <class Fn>
  void scan(u128 lo, u128 hi, Fn&& fn) const {
    if (hi < lo) return;
    std::size_t b = lower_bound_pos(base_index_, lo);
    std::size_t d = lower_bound_pos(delta_index_, lo);
    std::size_t t = lower_bound_pos(dead_, lo);
    while (true) {
      const bool has_b = b < base_index_.size() && base_index_[b] <= hi;
      const bool has_d = d < delta_index_.size() && delta_index_[d] <= hi;
      if (!has_b && !has_d) return;
      if (has_b && (!has_d || base_index_[b] < delta_index_[d])) {
        if (t < dead_.size() && dead_[t] == base_index_[b]) {
          ++t; // tombstoned: skip without visiting
        } else {
          fn(base_index_[b], base_data_[b]);
        }
        ++b;
      } else {
        fn(delta_index_[d], delta_data_[d]);
        ++d;
      }
    }
  }

  /// Materialize the live key set, ascending (the public key_indices()
  /// snapshot; O(K) — callers treat it as an export, not an accessor).
  std::vector<u128> materialize_keys() const {
    std::vector<u128> out;
    out.reserve(size());
    scan(0, ~u128{0}, [&](u128 key, const Payload&) { out.push_back(key); });
    return out;
  }

  /// Structural invariants, for tests: tiers sorted and disjoint,
  /// tombstones a subset of base keys with cleared payloads.
  void check_invariants() const {
    SQUID_REQUIRE(std::is_sorted(base_index_.begin(), base_index_.end()),
                  "TieredStore: base tier out of order");
    SQUID_REQUIRE(std::is_sorted(delta_index_.begin(), delta_index_.end()),
                  "TieredStore: delta tier out of order");
    SQUID_REQUIRE(std::is_sorted(dead_.begin(), dead_.end()),
                  "TieredStore: tombstones out of order");
    SQUID_REQUIRE(base_index_.size() == base_data_.size() &&
                      delta_index_.size() == delta_data_.size(),
                  "TieredStore: index/payload arrays diverged");
    for (const u128 key : dead_)
      SQUID_REQUIRE(base_pos(key).has_value(),
                    "TieredStore: tombstone for a key not in the base tier");
    for (const u128 key : delta_index_)
      SQUID_REQUIRE(!base_pos(key).has_value(),
                    "TieredStore: delta shadows a base key");
    SQUID_REQUIRE(
        std::adjacent_find(base_index_.begin(), base_index_.end()) ==
                base_index_.end() &&
            std::adjacent_find(delta_index_.begin(), delta_index_.end()) ==
                delta_index_.end() &&
            std::adjacent_find(dead_.begin(), dead_.end()) == dead_.end(),
        "TieredStore: duplicate keys inside a tier");
  }

private:
  struct Pos {
    std::size_t value = 0;
    bool present = false;
    explicit operator bool() const noexcept { return present; }
    std::size_t operator*() const noexcept { return value; }
    bool has_value() const noexcept { return present; }
  };

  static std::size_t lower_bound_pos(const std::vector<u128>& keys, u128 v) {
    return static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), v) - keys.begin());
  }
  Pos base_pos(u128 key) const {
    const std::size_t p = lower_bound_pos(base_index_, key);
    return {p, p < base_index_.size() && base_index_[p] == key};
  }
  Pos delta_pos(u128 key) const {
    const std::size_t p = lower_bound_pos(delta_index_, key);
    return {p, p < delta_index_.size() && delta_index_[p] == key};
  }
  bool is_dead(u128 key) const {
    const auto it = std::lower_bound(dead_.begin(), dead_.end(), key);
    return it != dead_.end() && *it == key;
  }

  /// The j-th live base key (0-based, tombstones excluded): binary search
  /// over base positions — alive-rank(p) = p+1 - tombstones<=base[p] is
  /// nondecreasing in p.
  u128 alive_base_at(std::size_t j) const {
    if (dead_.empty()) return base_index_[j];
    std::size_t lo = j, hi = base_index_.size() - 1;
    while (lo < hi) {
      const std::size_t p = lo + (hi - lo) / 2;
      const std::size_t alive_rank =
          p + 1 - lower_bound_pos(dead_, base_index_[p] + 1);
      if (alive_rank < j + 1) {
        lo = p + 1;
      } else {
        hi = p;
      }
    }
    return base_index_[lo];
  }

  /// The fold behind write_sorted and merge: one pass over base, delta and
  /// the batch builds the new base. Tombstones drop out, untouched slots
  /// move across, and each batch key's ops run on its slot (moved out of
  /// its tier, or default-constructed) before keep() judges it. (Running
  /// the live slots' ops in a pass of their own first, to size the output
  /// exactly, measured slower on geo-motion for both its updates and its
  /// queries.)
  ///
  /// The output is sized to the live keys plus at most an eighth more, or
  /// plus the batch's keys when fewer: a batch that moves keys (retract
  /// here, republish there) leaves the count near size(), and reserving
  /// the full size() + n would keep that much idle capacity resident. A
  /// fold that outgrows the guess grows once, to the most the rest of the
  /// pass can add (a first load into an empty store takes this path).
  template <class KeyOf, class Apply, class Keep>
  void fold(std::size_t n, KeyOf&& key_of, Apply&& apply, Keep&& keep) {
    stats_.merges += 1;
    std::size_t keys = 0; // distinct batch keys
    for (std::size_t i = 0; i < n; ++i)
      keys += i == 0 || key_of(i) != key_of(i - 1);
    std::vector<u128> index;
    std::vector<Payload> data;
    const std::size_t guess = size() + std::min(keys, size() / 8);
    index.reserve(guess);
    data.reserve(guess);
    std::size_t b = 0, d = 0, t = 0, i = 0;
    const auto push = [&](u128 key, Payload&& payload) {
      if (index.size() == index.capacity()) {
        const std::size_t most = index.size() + 1 +
                                 (base_index_.size() - b) +
                                 (delta_index_.size() - d) + (n - i);
        index.reserve(most);
        data.reserve(most);
      }
      index.push_back(key);
      data.push_back(std::move(payload));
    };
    while (true) {
      // dead_ is a subset of the base keys, in the same order.
      while (t < dead_.size() && b < base_index_.size() &&
             dead_[t] == base_index_[b]) {
        ++b;
        ++t;
      }
      const bool has_b = b < base_index_.size();
      const bool has_d = d < delta_index_.size();
      // Tiers are disjoint by construction (obtain() never shadows a live
      // base key), so at most one of them holds `key`.
      u128 key;
      if (has_b && (!has_d || base_index_[b] < delta_index_[d])) {
        key = base_index_[b];
      } else if (has_d) {
        key = delta_index_[d];
      } else if (i < n) {
        key = key_of(i);
      } else {
        break;
      }
      if (i < n && key_of(i) <= key) key = key_of(i);
      Payload* stored = nullptr;
      if (has_b && base_index_[b] == key) {
        stored = &base_data_[b++];
      } else if (has_d && delta_index_[d] == key) {
        stored = &delta_data_[d++];
      }
      if (i == n || key_of(i) != key) { // untouched by the batch
        push(key, std::move(*stored));
        continue;
      }
      Payload slot = stored != nullptr ? std::move(*stored) : Payload{};
      for (; i < n && key_of(i) == key; ++i) apply(i, slot);
      if (keep(slot)) push(key, std::move(slot));
    }
    base_index_ = std::move(index);
    base_data_ = std::move(data);
    delta_index_.clear();
    delta_data_.clear();
    dead_.clear();
  }

  void maybe_merge() {
    if (delta_index_.size() + dead_.size() >=
        store_merge_threshold(base_index_.size(), delta_cap_))
      merge();
  }

  std::size_t delta_cap_ = 0;
  std::vector<u128> base_index_;
  std::vector<Payload> base_data_;
  std::vector<u128> delta_index_;
  std::vector<Payload> delta_data_;
  std::vector<u128> dead_; ///< tombstoned base keys, sorted
  TieredStoreStats stats_;
};

} // namespace squid::util
