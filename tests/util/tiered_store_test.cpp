// TieredStore property suite (DESIGN.md 4j): random mutation interleavings
// against a std::map oracle, threshold invariance (every delta_cap yields
// identical reads), order statistics, the neighbour reads the Chord ring
// routes through, and the structural invariants.

#include <gtest/gtest.h>

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
void check_neighbour_reads(const TieredStore<int>& store,
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
void check_against(const TieredStore<int>& store,
                   const std::map<u128, int>& oracle) {
  store.check_invariants();
  ASSERT_EQ(store.size(), oracle.size());
  ASSERT_EQ(store.empty(), oracle.empty());

  // for_each: same keys, same payloads, ascending.
  auto it = oracle.begin();
  store.for_each([&](u128 key, const int& payload) {
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
    const int* found = store.find(key);
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

} // namespace
} // namespace squid::util
