// TieredStore property suite (DESIGN.md 4j): random mutation interleavings
// and sorted batch writes against a std::map oracle, threshold invariance
// (every delta_cap yields identical reads), the batch writer's path rule,
// order statistics, the neighbour reads the Chord ring routes through, and
// the structural invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "squid/util/rng.hpp"
#include "squid/util/store.hpp"

namespace squid::util {
namespace {

/// first_at_or_after / last_before against std::set's lower_bound and its
/// predecessor, probed at every key, one either side, and both extremes.
template <class Payload>
void check_neighbour_reads(const TieredStore<Payload>& store,
                           const std::set<u128>& oracle) {
  std::vector<u128> probes = {0, 1, ~u128{0} - 1, ~u128{0}};
  for (const u128 key : oracle) {
    probes.push_back(key - 1); // wraps at 0: probes ~0 again
    probes.push_back(key);
    probes.push_back(key + 1); // wraps at ~0: probes 0 again
  }
  for (const u128 v : probes) {
    const auto it = oracle.lower_bound(v);
    const auto first = store.first_at_or_after(v);
    if (it == oracle.end()) {
      EXPECT_FALSE(first.has_value());
    } else {
      ASSERT_TRUE(first.has_value());
      EXPECT_EQ(*first, *it);
    }
    const auto last = store.last_before(v);
    if (it == oracle.begin()) {
      EXPECT_FALSE(last.has_value());
    } else {
      ASSERT_TRUE(last.has_value());
      EXPECT_EQ(*last, *std::prev(it));
    }
  }
}

/// Every merged-read surface must match the ordered-map oracle exactly.
template <class Payload>
void check_against(const TieredStore<Payload>& store,
                   const std::map<u128, Payload>& oracle) {
  store.check_invariants();
  ASSERT_EQ(store.size(), oracle.size());
  ASSERT_EQ(store.empty(), oracle.empty());

  // for_each: same keys, same payloads, ascending.
  auto it = oracle.begin();
  store.for_each([&](u128 key, const Payload& payload) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(payload, it->second);
    ++it;
  });
  EXPECT_EQ(it, oracle.end());

  // materialize + order statistics.
  const auto keys = store.materialize_keys();
  ASSERT_EQ(keys.size(), oracle.size());
  std::size_t k = 0;
  for (const auto& [key, payload] : oracle) {
    EXPECT_EQ(keys[k], key);
    EXPECT_EQ(store.kth(k), key);
    ++k;
  }

  // find on every live key, and on probes straddling the key set.
  for (const auto& [key, payload] : oracle) {
    const Payload* found = store.find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, payload);
  }

  // rank_after at keys, at key-1/key+1, and at the extremes.
  const auto oracle_rank = [&](u128 v) {
    return static_cast<std::size_t>(std::distance(
        oracle.begin(), oracle.upper_bound(v)));
  };
  for (const auto& [key, payload] : oracle) {
    EXPECT_EQ(store.rank_after(key), oracle_rank(key));
    if (key > 0) {
      EXPECT_EQ(store.rank_after(key - 1), oracle_rank(key - 1));
    }
    EXPECT_EQ(store.rank_after(key + 1), oracle_rank(key + 1));
  }
  EXPECT_EQ(store.rank_after(0), oracle_rank(0));
  EXPECT_EQ(store.rank_after(~u128{0}), oracle.size());

  std::set<u128> key_set;
  for (const auto& [key, payload] : oracle) key_set.insert(key);
  check_neighbour_reads(store, key_set);
}

TEST(TieredStore, RandomInterleavingsMatchMapOracle) {
  Rng rng(0x7e1d);
  TieredStore<int> store; // default sqrt policy
  std::map<u128, int> oracle;
  std::vector<u128> live;

  for (int step = 0; step < 3000; ++step) {
    const u128 key = rng.below(512); // small space: plenty of collisions
    switch (rng.below(4)) {
    case 0: { // erase a live key
      if (live.empty()) break;
      const std::size_t pick = rng.below(live.size());
      const u128 victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_TRUE(store.erase(victim));
      oracle.erase(victim);
      EXPECT_FALSE(store.erase(victim)); // double-erase reports absence
      EXPECT_EQ(store.find(victim), nullptr);
      break;
    }
    case 1: { // erase a possibly-absent key
      const bool lived = oracle.erase(key) > 0;
      EXPECT_EQ(store.erase(key), lived);
      if (lived) live.erase(std::find(live.begin(), live.end(), key));
      break;
    }
    default: { // obtain (insert or update in place)
      const int value = static_cast<int>(step);
      const bool existed = oracle.count(key) > 0;
      store.obtain(key) = value;
      oracle[key] = value;
      if (!existed) live.push_back(key);
    }
    }
    if (step % 250 == 0) check_against(store, oracle);
  }
  check_against(store, oracle);
  EXPECT_GT(store.stats().merges, 0u); // the policy actually folded
}

TEST(TieredStore, EveryDeltaCapReadsIdentically) {
  // The same operation sequence under different merge thresholds — including
  // cap 1, the flat-store degenerate — must expose identical reads at every
  // step; only stats().merges may differ.
  const std::size_t caps[] = {0, 1, 2, 7, 64};
  std::vector<TieredStore<int>> stores;
  for (const std::size_t cap : caps) stores.emplace_back(cap);

  Rng rng(0xca95);
  std::map<u128, int> oracle;
  for (int step = 0; step < 1200; ++step) {
    const u128 key = rng.below(256);
    if (rng.below(3) == 0) {
      const bool lived = oracle.erase(key) > 0;
      for (auto& s : stores) EXPECT_EQ(s.erase(key), lived);
    } else {
      oracle[key] = step;
      for (auto& s : stores) s.obtain(key) = step;
    }
    if (step % 100 == 0) {
      const auto reference = stores[0].materialize_keys();
      for (auto& s : stores) {
        check_against(s, oracle);
        EXPECT_EQ(s.materialize_keys(), reference);
      }
    }
  }
  // cap 1 merges on every mutation that touches delta/tombstones; the sqrt
  // policy merges far less often.
  EXPECT_GT(stores[1].stats().merges, stores[0].stats().merges);
}

TEST(TieredStore, TombstoneResurrectionKeepsSlotInPlace) {
  TieredStore<int> store(64); // wide cap: no merge during this choreography
  // Build a base tier via an explicit merge.
  for (u128 k = 10; k <= 50; k += 10) store.obtain(k) = static_cast<int>(k);
  store.merge();
  EXPECT_EQ(store.delta_size(), 0u);

  // Tombstone a base key: size shrinks, find misses, payload cleared.
  EXPECT_TRUE(store.erase(30));
  EXPECT_EQ(store.tombstones(), 1u);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.find(30), nullptr);

  // Republish resurrects the slot in place — no delta entry appears.
  store.obtain(30) = 777;
  EXPECT_EQ(store.tombstones(), 0u);
  EXPECT_EQ(store.delta_size(), 0u);
  EXPECT_EQ(store.size(), 5u);
  ASSERT_NE(store.find(30), nullptr);
  EXPECT_EQ(*store.find(30), 777);
  store.check_invariants();
}

TEST(TieredStore, NeighbourReadsMatchSetOracleInEveryTierState) {
  const u128 top = ~u128{0};
  std::set<u128> oracle;
  const auto put = [&](TieredStore<int>& store, u128 key) {
    store.obtain(key) = 1;
    oracle.insert(key);
  };
  const auto drop = [&](TieredStore<int>& store, u128 key) {
    EXPECT_TRUE(store.erase(key));
    oracle.erase(key);
  };

  // Delta only: nothing has been merged yet.
  TieredStore<int> fresh(1000); // wide cap: no merge unless asked for
  check_neighbour_reads(fresh, oracle);
  for (const u128 key : {u128{0}, u128{7}, top}) put(fresh, key);
  EXPECT_EQ(fresh.delta_size(), 3u);
  check_neighbour_reads(fresh, oracle);
  drop(fresh, 0); // a delta erase leaves no tombstone
  drop(fresh, top);
  EXPECT_EQ(fresh.tombstones(), 0u);
  check_neighbour_reads(fresh, oracle);

  // Base only, holding both extreme keys.
  oracle.clear();
  TieredStore<int> store(1000);
  for (const u128 key : {u128{0}, u128{10}, u128{11}, u128{12}, u128{20},
                         top - 1, top})
    put(store, key);
  store.merge();
  EXPECT_EQ(store.delta_size(), 0u);
  check_neighbour_reads(store, oracle);

  // Tombstoned: a run of adjacent dead keys and dead keys at both ends.
  for (const u128 key : {u128{0}, u128{11}, u128{12}, top}) drop(store, key);
  EXPECT_EQ(store.tombstones(), 4u);
  check_neighbour_reads(store, oracle);

  // Delta entries between and beside the tombstones.
  for (const u128 key : {u128{5}, u128{13}, top - 2}) put(store, key);
  EXPECT_EQ(store.delta_size(), 3u);
  check_neighbour_reads(store, oracle);

  // Resurrected: republished tombstones come back in place.
  put(store, 11);
  put(store, top);
  EXPECT_EQ(store.tombstones(), 2u);
  EXPECT_EQ(store.delta_size(), 3u);
  check_neighbour_reads(store, oracle);

  // Everything tombstoned but the delta, then nothing live at all.
  for (const u128 key : {u128{10}, u128{11}, u128{20}, top - 1, top})
    drop(store, key);
  check_neighbour_reads(store, oracle);
  for (const u128 key : {u128{5}, u128{13}, top - 2}) drop(store, key);
  EXPECT_TRUE(store.empty());
  check_neighbour_reads(store, oracle);
  store.check_invariants();
}

TEST(TieredStore, ScansMergeTiersInKeyOrder) {
  TieredStore<int> store(1000);
  for (u128 k = 0; k < 40; k += 2) store.obtain(k) = 1; // evens -> base
  store.merge();
  for (u128 k = 1; k < 40; k += 2) store.obtain(k) = 2; // odds -> delta
  EXPECT_TRUE(store.erase(10));                         // a tombstone
  EXPECT_EQ(store.delta_size(), 20u);
  EXPECT_EQ(store.tombstones(), 1u);

  std::vector<u128> seen;
  store.scan(5, 15, [&](u128 key, const int& payload) {
    seen.push_back(key);
    // Payload provenance: evens came from base (payload 1), odds from delta.
    EXPECT_EQ(payload, (key % 2 == 0) ? 1 : 2);
  });
  EXPECT_EQ(seen, (std::vector<u128>{5, 6, 7, 8, 9, 11, 12, 13, 14, 15}));
}

TEST(TieredStore, MergeThresholdRuleIsExact) {
  EXPECT_EQ(store_merge_threshold(0, 5), 5u);   // explicit cap wins
  EXPECT_EQ(store_merge_threshold(1 << 20, 1), 1u);
  EXPECT_EQ(store_merge_threshold(0, 0), 64u);  // floor
  EXPECT_EQ(store_merge_threshold(100, 0), 64u);
  EXPECT_EQ(store_merge_threshold(1 << 10, 0), 128u); // 4*sqrt(1024)
  EXPECT_EQ(store_merge_threshold(1 << 16, 0), 1024u);

  // A store at cap 1 folds every mutation: delta and tombstones never
  // survive a call.
  TieredStore<int> flat(1);
  Rng rng(0xf1a7);
  for (int i = 0; i < 200; ++i) {
    const u128 key = rng.below(64);
    if (rng.below(3) == 0) {
      (void)flat.erase(key);
    } else {
      flat.obtain(key) = i;
    }
    EXPECT_EQ(flat.delta_size(), 0u);
    EXPECT_EQ(flat.tombstones(), 0u);
  }
}

TEST(TieredStore, BulkUpdateRunsOverMergedBase) {
  TieredStore<int> store(1000);
  for (u128 k = 0; k < 10; ++k) store.obtain(k) = 1;
  EXPECT_TRUE(store.erase(3));
  const std::uint64_t merges_before = store.stats().merges;
  store.bulk_update([&](std::vector<u128>& keys, std::vector<int>& payloads) {
    // The fold ran first: tiers are empty, tombstoned key 3 is gone.
    EXPECT_EQ(keys.size(), 9u);
    EXPECT_EQ(std::count(keys.begin(), keys.end(), u128{3}), 0);
    keys.push_back(100);
    payloads.push_back(42);
  });
  EXPECT_EQ(store.stats().merges, merges_before + 1);
  EXPECT_EQ(store.size(), 10u);
  ASSERT_NE(store.find(100), nullptr);
  EXPECT_EQ(*store.find(100), 42);
  store.check_invariants();
}

// --- Sorted batch writes -----------------------------------------------------

/// write_sorted's test payload: a list of values. A positive op appends its
/// value, a negative op removes the first copy of its magnitude, and a slot
/// left without values is dropped.
using Slot = std::vector<int>;

struct BatchOp {
  u128 key;
  int value;
};

void apply_op(Slot& slot, int value) {
  if (value > 0) {
    slot.push_back(value);
    return;
  }
  const auto it = std::find(slot.begin(), slot.end(), -value);
  if (it != slot.end()) slot.erase(it);
}

/// Sort `ops` by key, keeping their order within a key, and write them.
void write_batch(TieredStore<Slot>& store, std::vector<BatchOp> ops) {
  std::stable_sort(
      ops.begin(), ops.end(),
      [](const BatchOp& a, const BatchOp& b) { return a.key < b.key; });
  store.write_sorted(
      ops.size(), [&](std::size_t i) { return ops[i].key; },
      [&](std::size_t i, Slot& slot) { apply_op(slot, ops[i].value); },
      [](const Slot& slot) { return !slot.empty(); });
}

/// The same ops one at a time, in submit order.
void write_oracle(std::map<u128, Slot>& oracle,
                  const std::vector<BatchOp>& ops) {
  for (const BatchOp& op : ops) {
    Slot& slot = oracle[op.key];
    apply_op(slot, op.value);
    if (slot.empty()) oracle.erase(op.key);
  }
}

std::vector<BatchOp> random_batch(Rng& rng, std::size_t size, u128 keys) {
  std::vector<BatchOp> ops;
  for (std::size_t i = 0; i < size; ++i) {
    const int value = static_cast<int>(rng.range(1, 4));
    ops.push_back({rng.below(keys), rng.below(3) == 0 ? -value : value});
  }
  return ops;
}

/// True when write_sorted must take its fold path for `ops`.
bool expects_fold(const TieredStore<Slot>& store, std::vector<BatchOp> ops) {
  std::set<u128> distinct;
  for (const BatchOp& op : ops) distinct.insert(op.key);
  const std::size_t base =
      store.size() + store.tombstones() - store.delta_size();
  return distinct.size() + store.delta_size() + store.tombstones() >=
         store_merge_threshold(base, store.delta_cap());
}

TEST(TieredStore, WriteSortedMatchesMapOracleOnBothPaths) {
  // Small and large batches, between single-key writes that leave delta
  // entries and tombstones behind: each batch takes the path the merge
  // rule predicts, folds exactly once or not at all, and reads like the
  // oracle afterwards.
  Rng rng(0xba7c);
  TieredStore<Slot> store; // default sqrt policy: threshold 64 here
  std::map<u128, Slot> oracle;
  std::size_t in_place = 0, folds = 0;
  for (int round = 0; round < 60; ++round) {
    for (int single = 0; single < 5; ++single) {
      const u128 key = rng.below(600);
      if (rng.below(2) == 0) {
        store.obtain(key).push_back(9);
        oracle[key].push_back(9);
      } else {
        EXPECT_EQ(store.erase(key), oracle.erase(key) > 0);
      }
    }
    const std::size_t size =
        rng.below(2) == 0 ? rng.range(1, 30) : rng.range(80, 400);
    const std::vector<BatchOp> ops = random_batch(rng, size, 600);
    const bool fold = expects_fold(store, ops);
    const std::uint64_t merges = store.stats().merges;
    write_batch(store, ops);
    write_oracle(oracle, ops);
    EXPECT_EQ(store.stats().merges, merges + (fold ? 1 : 0));
    if (fold) {
      EXPECT_EQ(store.delta_size(), 0u);
      EXPECT_EQ(store.tombstones(), 0u);
    }
    (fold ? folds : in_place) += 1;
    check_against(store, oracle); // runs check_invariants first
  }
  EXPECT_GT(in_place, 10u);
  EXPECT_GT(folds, 10u);
}

TEST(TieredStore, WriteSortedDropsSlotsABatchEmptiesOrNeverFills) {
  // One batch empties a base key and a delta key, creates and empties a
  // new key, and removes from an absent key: none of the four survives, on
  // either path.
  for (const std::size_t cap : {std::size_t{1000}, std::size_t{1}}) {
    SCOPED_TRACE(cap == 1 ? "fold" : "in place");
    TieredStore<Slot> store(cap);
    std::map<u128, Slot> oracle;
    write_oracle(oracle, {{10, 1}, {20, 2}, {30, 3}});
    for (const auto& [key, slot] : oracle) store.obtain(key) = slot;
    store.merge(); // 10, 20, 30 in the base
    store.obtain(40) = {4};
    oracle[40] = {4};
    const std::vector<BatchOp> ops = {
        {20, -2}, {40, -4}, {50, 5}, {50, -5}, {60, -6}, {30, 7}};
    const std::uint64_t merges = store.stats().merges;
    write_batch(store, ops);
    write_oracle(oracle, ops);
    check_against(store, oracle);
    EXPECT_EQ(store.size(), 2u);
    for (const u128 gone : {u128{20}, u128{40}, u128{50}, u128{60}})
      EXPECT_EQ(store.find(gone), nullptr);
    if (cap == 1) {
      EXPECT_EQ(store.stats().merges, merges + 1);
      EXPECT_EQ(store.tombstones(), 0u);
    } else {
      EXPECT_EQ(store.stats().merges, merges);
      EXPECT_EQ(store.tombstones(), 1u); // 20, emptied in place
      EXPECT_EQ(store.delta_size(), 0u); // 40 erased, 50 never inserted
    }
  }
}

TEST(TieredStore, WriteSortedResurrectsTombstonesInsideABatch) {
  // A tombstoned base key that a batch refills comes back with only the
  // batch's values; in place, it is resurrected where it stood.
  for (const std::size_t cap : {std::size_t{1000}, std::size_t{1}}) {
    SCOPED_TRACE(cap == 1 ? "fold" : "in place");
    TieredStore<Slot> store(cap);
    for (u128 k = 10; k <= 50; k += 10) store.obtain(k) = {1, 2};
    store.merge();
    EXPECT_TRUE(store.erase(30));
    std::map<u128, Slot> oracle;
    store.for_each([&](u128 key, const Slot& slot) { oracle[key] = slot; });
    const std::vector<BatchOp> ops = {{30, 8}, {30, -1}, {30, 9}, {50, -2}};
    write_batch(store, ops);
    write_oracle(oracle, ops);
    check_against(store, oracle);
    ASSERT_NE(store.find(30), nullptr);
    EXPECT_EQ(*store.find(30), (Slot{8, 9}));
    EXPECT_EQ(store.tombstones(), 0u);
    EXPECT_EQ(store.delta_size(), 0u);
  }
}

TEST(TieredStore, WriteSortedFoldsOnceOrNotAtAll) {
  TieredStore<Slot> store; // threshold max(64, 4*sqrt(K))
  std::vector<BatchOp> load;
  for (u128 k = 0; k < 1000; ++k) load.push_back({k * 3, 1});
  write_batch(store, load); // into an empty store: 1000 keys, one fold
  EXPECT_EQ(store.stats().merges, 1u);
  const std::size_t threshold = store_merge_threshold(1000, 0); // 124

  // threshold - 1 distinct keys with nothing pending: in place, no fold.
  std::vector<BatchOp> under;
  for (u128 k = 0; k + 1 < threshold; ++k) under.push_back({k * 3 + 1, 2});
  write_batch(store, under);
  EXPECT_EQ(store.stats().merges, 1u);
  EXPECT_EQ(store.delta_size(), threshold - 1);

  // One more distinct key than that reaches the threshold: one fold, which
  // also takes in the pending delta.
  std::vector<BatchOp> over;
  for (u128 k = 0; k < 2; ++k) over.push_back({k * 3 + 2, 3});
  write_batch(store, over);
  EXPECT_EQ(store.stats().merges, 2u);
  EXPECT_EQ(store.delta_size(), 0u);
  EXPECT_EQ(store.size(), 1000 + threshold - 1 + 2);
  store.check_invariants();
}

TEST(TieredStore, WriteSortedReadsIdenticallyAtEveryDeltaCap) {
  // The same batches under every merge threshold, cap 1 (fold every call)
  // included, read identically; cap 1 never leaves a delta or tombstones.
  const std::size_t caps[] = {0, 1, 2, 7, 64};
  std::vector<TieredStore<Slot>> stores;
  for (const std::size_t cap : caps) stores.emplace_back(cap);
  Rng rng(0xde17);
  std::map<u128, Slot> oracle;
  for (int round = 0; round < 30; ++round) {
    const std::vector<BatchOp> ops =
        random_batch(rng, rng.range(1, 90), 300);
    write_oracle(oracle, ops);
    for (auto& store : stores) {
      write_batch(store, ops);
      check_against(store, oracle);
    }
    EXPECT_EQ(stores[1].delta_size(), 0u);
    EXPECT_EQ(stores[1].tombstones(), 0u);
  }
  EXPECT_EQ(stores[1].stats().merges, 30u);
}

} // namespace
} // namespace squid::util
