// Differential suite for the flat sorted-array key store (DESIGN.md 4b):
// publish / publish_batch / unpublish are replayed against a
// std::map<u128, elements> oracle — the seed's storage — and every derived
// view (visit order, loads, split points) is checked against it. A second
// system publishing the same corpus one element at a time pins the batch
// loader to exact sequential-publish equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/util/rng.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using overlay::NodeId;

keyword::KeywordSpace two_dim_space() {
  return testing_support::letter_space("abcde");
}

DataElement random_element(Rng& rng, int serial) {
  return testing_support::random_letter_element(rng, "abcde",
                                                "e" + std::to_string(serial));
}

u128 index_of(const SquidSystem& sys, const DataElement& e) {
  return sys.curve().index_of(sys.space().encode(e.keys));
}

/// The store must match the ordered-map oracle exactly: same key set in the
/// same order, same element sequences per key, same counts.
void check_store(const SquidSystem& sys,
                 const std::map<u128, std::vector<DataElement>>& oracle) {
  ASSERT_EQ(sys.key_count(), oracle.size());
  std::size_t elements = 0;
  for (const auto& [index, es] : oracle) elements += es.size();
  ASSERT_EQ(sys.element_count(), elements);

  auto it = oracle.begin();
  sys.for_each_key([&](u128 index, const sfc::Point& point,
                       const std::vector<DataElement>& es) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(index, it->first);
    EXPECT_EQ(es, it->second); // element identity AND arrival order
    EXPECT_EQ(sys.curve().index_of(point), index);
    ++it;
  });
  EXPECT_EQ(it, oracle.end());

  const auto& indices = sys.key_indices();
  ASSERT_EQ(indices.size(), oracle.size());
  ASSERT_TRUE(std::is_sorted(indices.begin(), indices.end()));
  std::size_t i = 0;
  for (const auto& [index, es] : oracle) EXPECT_EQ(indices[i++], index);
}

TEST(FlatStoreDifferential, PublishUnpublishAgainstMapOracle) {
  Rng rng(0xf1a7);
  SquidSystem sys(two_dim_space());
  sys.build_network(20, rng);

  std::map<u128, std::vector<DataElement>> oracle;
  std::vector<DataElement> live;
  for (int step = 0; step < 600; ++step) {
    if (!live.empty() && rng.below(4) == 0) {
      const std::size_t pick = rng.below(live.size());
      const DataElement victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      ASSERT_TRUE(sys.unpublish(victim));
      const u128 index = index_of(sys, victim);
      auto& es = oracle[index];
      es.erase(std::find(es.begin(), es.end(), victim));
      if (es.empty()) oracle.erase(index);
      // Removing it again must report absence, not corrupt the arrays.
      EXPECT_FALSE(sys.unpublish(victim));
    } else {
      const DataElement e = random_element(rng, step);
      sys.publish(e);
      oracle[index_of(sys, e)].push_back(e);
      live.push_back(e);
    }
    if (step % 50 == 0) check_store(sys, oracle);
  }
  check_store(sys, oracle);
}

TEST(FlatStoreDifferential, BatchPublishEqualsSequentialPublish) {
  // Twin systems, same corpus (duplicates included): one publishes element
  // by element, the other loads the whole vector through publish_batch.
  // Every observable — key order, element order within keys, counts — must
  // be identical. A second batch on a non-empty store checks the merge path.
  Rng rng(0xba7c4);
  SquidSystem one_by_one(two_dim_space());
  SquidSystem batched(two_dim_space());

  for (int wave = 0; wave < 3; ++wave) {
    std::vector<DataElement> corpus;
    for (int i = 0; i < 300; ++i)
      corpus.push_back(random_element(rng, wave * 1000 + i));
    for (const auto& e : corpus) one_by_one.publish(e);
    batched.publish_batch(corpus);

    ASSERT_EQ(batched.key_count(), one_by_one.key_count());
    ASSERT_EQ(batched.element_count(), one_by_one.element_count());
    std::map<u128, std::vector<DataElement>> reference;
    one_by_one.for_each_key([&](u128 index, const sfc::Point&,
                                const std::vector<DataElement>& es) {
      reference[index] = es;
    });
    check_store(batched, reference);
  }
}

TEST(FlatStoreDifferential, RepublishIsLastWriterWinsByKeyAndName) {
  // Element identity is (key, name): publishing under an existing identity
  // REPLACES the stored element in place — same arrival position, counts
  // unchanged — rather than appending a duplicate (DESIGN.md 4j). A moving
  // object that re-announces an unchanged position must not accrete copies.
  SquidSystem sys(two_dim_space());
  const DataElement a{"a", {"ab", "cd"}};
  const DataElement b{"b", {"ab", "cd"}}; // same key, different name
  const DataElement c{"c", {"ab", "cd"}};
  sys.publish(a);
  sys.publish(b);
  sys.publish(c);
  ASSERT_EQ(sys.key_count(), 1u);
  ASSERT_EQ(sys.element_count(), 3u);

  // Republish the MIDDLE identity: position preserved, nothing appended.
  sys.publish(b);
  EXPECT_EQ(sys.element_count(), 3u);
  sys.for_each_key([&](u128, const sfc::Point&,
                       const std::vector<DataElement>& es) {
    ASSERT_EQ(es.size(), 3u);
    EXPECT_EQ(es[0].name, "a");
    EXPECT_EQ(es[1].name, "b");
    EXPECT_EQ(es[2].name, "c");
  });

  // Same name at a DIFFERENT key is a different identity: both live.
  const DataElement b_moved{"b", {"ba", "dc"}};
  sys.publish(b_moved);
  EXPECT_EQ(sys.element_count(), 4u);
  EXPECT_EQ(sys.key_count(), 2u);
}

TEST(FlatStoreDifferential, BatchPublishAppliesLastWriterWinsPerIdentity) {
  // Duplicate identities inside one batch — and across batch boundaries —
  // collapse to the LAST occurrence, exactly as sequential publish would.
  SquidSystem batched(two_dim_space());
  SquidSystem sequential(two_dim_space());
  const DataElement first{"x", {"aa", "bb"}};
  const DataElement other{"y", {"aa", "bb"}};
  const DataElement again{"x", {"aa", "bb"}};
  const std::vector<DataElement> wave1 = {first, other, again};
  batched.publish_batch(wave1);
  for (const auto& e : wave1) sequential.publish(e);
  EXPECT_EQ(batched.element_count(), 2u);
  EXPECT_EQ(sequential.element_count(), 2u);

  // A second batch republishing "x" at the same key still replaces in
  // place; at a new key it migrates (old key's copy is NOT removed — LWW is
  // per (key, name) identity, not a global name registry).
  const std::vector<DataElement> wave2 = {DataElement{"x", {"aa", "bb"}},
                                          DataElement{"x", {"cc", "dd"}}};
  batched.publish_batch(wave2);
  for (const auto& e : wave2) sequential.publish(e);
  EXPECT_EQ(batched.element_count(), 3u);

  std::map<u128, std::vector<DataElement>> reference;
  sequential.for_each_key([&](u128 index, const sfc::Point&,
                              const std::vector<DataElement>& es) {
    reference[index] = es;
  });
  check_store(batched, reference);
}

TEST(FlatStoreDifferential, LoadViewsMatchBruteForce) {
  Rng rng(0x10ad);
  SquidConfig config;
  config.join_samples = 4;
  SquidSystem sys(two_dim_space(), config);
  sys.build_network(30, rng);
  for (int i = 0; i < 500; ++i) sys.publish(random_element(rng, i));

  for (int round = 0; round < 8; ++round) {
    // node_loads must equal the brute-force owner assignment.
    std::map<NodeId, std::size_t> expected;
    for (const NodeId id : sys.ring().node_ids()) expected[id] = 0;
    for (const u128 index : sys.key_indices())
      ++expected[sys.ring().successor_of(index)];

    const auto loads = sys.node_loads();
    ASSERT_EQ(loads.size(), expected.size());
    std::size_t total = 0;
    for (const auto& [id, load] : loads) {
      EXPECT_EQ(load, expected[id]) << "node load diverged";
      EXPECT_EQ(load, sys.load_of(id));
      total += load;
    }
    EXPECT_EQ(total, sys.key_count());

    // median_split_id(s) must be the middle stored key of (pred, s] — the
    // value the seed found by walking the map across the interval.
    for (const NodeId id : sys.ring().node_ids()) {
      const NodeId pred = sys.ring().predecessor_of(id);
      std::vector<u128> owned; // in clockwise order from pred
      for (const u128 index : sys.key_indices())
        if (overlay::in_open_closed(pred, id, index)) owned.push_back(index);
      // Ascending index order -> clockwise order from pred: the keys above
      // pred come first, the wrapped ones (<= id) after. No-op when the
      // interval does not wrap.
      std::stable_partition(owned.begin(), owned.end(),
                            [&](u128 v) { return v > pred; });
      const auto split = sys.median_split_id(id);
      if (owned.size() < 2) {
        EXPECT_FALSE(split.has_value());
      } else {
        const u128 median = owned[owned.size() / 2 - 1];
        if (median == pred || median == id || sys.ring().contains(median)) {
          EXPECT_FALSE(split.has_value());
        } else {
          ASSERT_TRUE(split.has_value());
          EXPECT_EQ(*split, median);
        }
      }
    }

    // Churn membership between rounds so the rank queries see fresh
    // boundaries (including wrapped intervals).
    (void)sys.join_node(rng);
    if (sys.ring().size() > 6) sys.leave_node(sys.ring().random_node(rng));
    (void)sys.runtime_balance_sweep(1.3);
    sys.repair_routing();
  }
}

TEST(FlatStoreDifferential, ScanOrderDrivesQueriesIdentically) {
  // End-to-end: a full-space query must return every element, in a
  // deterministic multiset, regardless of how the store was loaded.
  Rng rng(0x5ca9);
  SquidSystem a(two_dim_space());
  SquidSystem b(two_dim_space());
  Rng net_a(7), net_b(7);
  a.build_network(25, net_a);
  b.build_network(25, net_b);

  std::vector<DataElement> corpus;
  for (int i = 0; i < 250; ++i) corpus.push_back(random_element(rng, i));
  for (const auto& e : corpus) a.publish(e);
  b.publish_batch(corpus);

  const keyword::Query q = a.space().parse("(*, *)");
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId origin_a = a.ring().random_node(net_a);
    const NodeId origin_b = b.ring().random_node(net_b);
    ASSERT_EQ(origin_a, origin_b); // identical builds -> identical draws
    const QueryResult ra = a.query(q, origin_a);
    const QueryResult rb = b.query(q, origin_b);
    EXPECT_EQ(ra.stats.matches, corpus.size());
    EXPECT_EQ(ra.elements, rb.elements); // same elements, same order
    EXPECT_EQ(ra.stats.messages, rb.stats.messages);
    EXPECT_EQ(a.query_aggregate(q, {AggregateKind::kCount}, origin_a)
                  .aggregate->count,
              corpus.size());
  }
}

} // namespace
} // namespace squid::core
