#include "squid/overlay/chord.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "squid/util/rng.hpp"

namespace squid::overlay {
namespace {

TEST(Chord, BuildProducesConsistentRing) {
  Rng rng(1);
  ChordRing ring(32);
  ring.build(200, rng);
  EXPECT_EQ(ring.size(), 200u);
  EXPECT_TRUE(ring.ring_consistent());
}

TEST(Chord, SuccessorOwnsKeysUpToItself) {
  Rng rng(2);
  ChordRing ring(16);
  ring.build(50, rng);
  const auto ids = ring.node_ids();
  // Key exactly at a node id is owned by that node.
  for (const NodeId id : ids) EXPECT_EQ(ring.successor_of(id), id);
  // A key one past a node is owned by the next node.
  for (std::size_t i = 0; i + 1 < ids.size(); ++i)
    EXPECT_EQ(ring.successor_of(ids[i] + 1), ids[i + 1]);
  // Wrap-around: keys past the last node map to the first.
  EXPECT_EQ(ring.successor_of(ids.back() + 1), ids.front());
}

TEST(Chord, FingersMatchDefinitionAfterRepair) {
  Rng rng(3);
  ChordRing ring(20);
  ring.build(100, rng);
  for (const NodeId id : ring.node_ids()) {
    const ChordNode& n = ring.node(id);
    ASSERT_EQ(n.fingers.size(), 20u);
    for (unsigned k = 0; k < 20; ++k)
      EXPECT_EQ(n.fingers[k], ring.successor_of(finger_target(id, k, 20)));
  }
}

TEST(Chord, RouteFindsOwnerFromEveryNode) {
  Rng rng(4);
  ChordRing ring(24);
  ring.build(150, rng);
  for (int trial = 0; trial < 300; ++trial) {
    const NodeId from = ring.random_node(rng);
    const u128 key = rng.below128(static_cast<u128>(1) << 24);
    const RouteResult r = ring.route(from, key);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.dest, ring.successor_of(key));
  }
}

TEST(Chord, RouteHopsAreLogarithmic) {
  Rng rng(5);
  ChordRing ring(40);
  ring.build(1000, rng);
  double total_hops = 0;
  constexpr int kTrials = 500;
  std::size_t worst = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const RouteResult r =
        ring.route(ring.random_node(rng),
                   rng.below128(static_cast<u128>(1) << 40));
    ASSERT_TRUE(r.ok);
    total_hops += static_cast<double>(r.hops());
    worst = std::max(worst, r.hops());
  }
  const double mean = total_hops / kTrials;
  // Chord's expected path length is ~0.5 * log2(N) = 5 for N=1000.
  EXPECT_LT(mean, 8.0);
  EXPECT_GT(mean, 2.0);
  EXPECT_LE(worst, 25u);
}

TEST(Chord, RoutePathHasNoDuplicates) {
  Rng rng(6);
  ChordRing ring(24);
  ring.build(300, rng);
  for (int trial = 0; trial < 200; ++trial) {
    const RouteResult r =
        ring.route(ring.random_node(rng),
                   rng.below128(static_cast<u128>(1) << 24));
    ASSERT_TRUE(r.ok);
    std::set<NodeId> distinct(r.path.begin(), r.path.end());
    EXPECT_EQ(distinct.size(), r.path.size());
  }
}

TEST(Chord, SingleNodeOwnsEverythingAndRoutesToItself) {
  ChordRing ring(16);
  ring.add_node_exact(1234);
  EXPECT_EQ(ring.successor_of(0), static_cast<NodeId>(1234));
  EXPECT_EQ(ring.successor_of(60000), static_cast<NodeId>(1234));
  const RouteResult r = ring.route(1234, 999);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.dest, static_cast<NodeId>(1234));
  EXPECT_EQ(r.hops(), 0u);
}

TEST(Chord, JoinSplicesRingAndStaysRoutable) {
  Rng rng(7);
  ChordRing ring(24);
  ring.build(50, rng);
  for (int i = 0; i < 50; ++i) {
    const NodeId fresh = ring.random_free_id(rng);
    const RouteResult r = ring.join(fresh, ring.random_node(rng));
    ASSERT_TRUE(r.ok);
  }
  EXPECT_EQ(ring.size(), 100u);
  // Joins splice eagerly, so the successor structure stays exact.
  EXPECT_TRUE(ring.ring_consistent());
  // Every key must still be routable to its true owner.
  for (int trial = 0; trial < 100; ++trial) {
    const u128 key = rng.below128(static_cast<u128>(1) << 24);
    const RouteResult r = ring.route(ring.random_node(rng), key);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.dest, ring.successor_of(key));
  }
}

TEST(Chord, GracefulLeaveKeepsRingConsistent) {
  Rng rng(8);
  ChordRing ring(24);
  ring.build(100, rng);
  for (int i = 0; i < 50; ++i) ring.leave(ring.random_node(rng));
  EXPECT_EQ(ring.size(), 50u);
  EXPECT_TRUE(ring.ring_consistent());
}

TEST(Chord, GracefulLeaveKeepsSuccessorListsDistinct) {
  Rng rng(23);
  ChordRing ring(24, /*successors=*/4);
  ring.build(50, rng);
  const auto ids = ring.node_ids();
  // Every list must be duplicate-free, and its live entries must be the
  // start of the ground-truth successor chain (dead entries are what
  // stabilization prunes later; leave only patches the predecessor).
  const auto check_lists = [&](const char* when) {
    for (const NodeId id : ring.node_ids()) {
      const auto& list = ring.node(id).successors;
      EXPECT_EQ(std::set<NodeId>(list.begin(), list.end()).size(),
                list.size())
          << when;
      NodeId expected = id;
      for (const NodeId s : list) {
        if (!ring.contains(s)) continue;
        expected = ring.successor_of((expected + 1) & ring.id_mask());
        EXPECT_EQ(s, expected) << when;
      }
    }
  };

  // The leaver's successor already follows it in the predecessor's list:
  // the list shrinks to the live prefix instead of naming it twice.
  ring.leave(ids[10]);
  EXPECT_EQ(ring.node(ids[9]).successors,
            (std::vector<NodeId>{ids[11], ids[12], ids[13]}));
  check_lists("after the first leave");
  for (int i = 0; i < 20; ++i) {
    ring.leave(ring.random_node(rng));
    check_lists("after a leave");
  }
  // Stabilization refreshes each list from the successor's: with no
  // duplicate to copy, none spreads.
  ring.stabilize_all(rng, 2);
  check_lists("after stabilization");
  EXPECT_TRUE(ring.ring_consistent());
}

TEST(Chord, FailuresAreRepairedByStabilization) {
  Rng rng(9);
  ChordRing ring(24, /*successors=*/8);
  ring.build(200, rng);
  // Kill 30 random nodes without notice.
  for (int i = 0; i < 30; ++i) ring.fail(ring.random_node(rng));
  // Successor lists bridge the gaps; a few stabilization sweeps restore
  // exact successor pointers everywhere.
  ring.stabilize_all(rng, 3);
  EXPECT_TRUE(ring.ring_consistent());
  for (int trial = 0; trial < 100; ++trial) {
    const u128 key = rng.below128(static_cast<u128>(1) << 24);
    const RouteResult r = ring.route(ring.random_node(rng), key);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.dest, ring.successor_of(key));
  }
}

TEST(Chord, SurvivesSustainedChurn) {
  Rng rng(10);
  ChordRing ring(32, 8);
  ring.build(150, rng);
  for (int epoch = 0; epoch < 20; ++epoch) {
    for (int i = 0; i < 5; ++i) {
      const double action = rng.uniform();
      if (action < 0.4) {
        (void)ring.join(ring.random_free_id(rng), ring.random_node(rng));
      } else if (action < 0.7) {
        ring.leave(ring.random_node(rng));
      } else {
        ring.fail(ring.random_node(rng));
      }
    }
    ring.stabilize_all(rng, 1);
  }
  ring.stabilize_all(rng, 4);
  EXPECT_TRUE(ring.ring_consistent());
  for (int trial = 0; trial < 50; ++trial) {
    const RouteResult r = ring.route(ring.random_node(rng), rng.next128() &
                                                               ring.id_mask());
    ASSERT_TRUE(r.ok) << "routing failed after churn";
    EXPECT_EQ(r.dest, ring.successor_of(r.dest)); // dest is a live owner
  }
}

// Regression (docs/FAULT_MODEL.md): repair_all used to assume a compacted
// membership array and walked dead slots as if they were live. Fail a large
// scattered cohort — staying under the membership store's merge threshold,
// so every tombstone is still pending — then verify oracle repair wires
// every surviving table through live entries only.
TEST(Chord, RepairAllToleratesTombstonedMembership) {
  Rng rng(21);
  ChordRing ring(24, /*successors=*/4);
  ring.build(64, rng);
  const auto ids = ring.node_ids();
  // Fail 30 of 64 (every other node, from the second): 30 tombstones stay
  // below the store's merge threshold (64 pending entries at this size).
  std::set<NodeId> dead;
  for (std::size_t i = 1; i < ids.size() && dead.size() < 30; i += 2) {
    ring.fail(ids[i]);
    dead.insert(ids[i]);
  }
  ASSERT_EQ(ring.size(), 34u);

  ring.repair_all();
  EXPECT_TRUE(ring.ring_consistent());
  for (const NodeId id : ring.node_ids()) {
    const ChordNode& n = ring.node(id);
    EXPECT_FALSE(dead.count(n.successors.front()));
    for (const NodeId s : n.successors) EXPECT_FALSE(dead.count(s));
    for (const NodeId f : n.fingers) EXPECT_FALSE(dead.count(f));
    if (n.has_predecessor) EXPECT_FALSE(dead.count(n.predecessor));
  }
  for (int trial = 0; trial < 100; ++trial) {
    const u128 key = rng.below128(static_cast<u128>(1) << 24);
    const RouteResult r = ring.route(ring.random_node(rng), key);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.dest, ring.successor_of(key));
  }
}

// Failure detection (docs/FAULT_MODEL.md): after a timeout the observer
// purges the dead peer from its own tables and falls back along its
// successor list — and a false positive against a live peer must stay safe.
TEST(Chord, NoteTimeoutPurgesObserverStateAndFallsBack) {
  Rng rng(22);
  ChordRing ring(20, /*successors=*/4);
  ring.build(40, rng);
  const auto ids = ring.node_ids();
  const NodeId observer = ids[5];
  const NodeId victim = ring.node(observer).successors.front();
  ring.fail(victim);

  ring.note_timeout(observer, victim);
  const ChordNode& n = ring.node(observer);
  for (const NodeId s : n.successors) EXPECT_NE(s, victim);
  for (const NodeId f : n.fingers) EXPECT_NE(f, victim);
  EXPECT_EQ(n.successors.front(), ring.successor_of(victim));

  // False positive: suspecting a live peer only prunes local links, which
  // stabilization re-learns; the ring converges back to consistency.
  const NodeId live = ring.node(observer).successors.front();
  ring.note_timeout(observer, live);
  for (const NodeId s : ring.node(observer).successors) EXPECT_NE(s, live);
  ring.stabilize_all(rng, 3);
  EXPECT_TRUE(ring.ring_consistent());
  EXPECT_EQ(ring.node(observer).successors.front(), live);
}

TEST(Chord, RejectsBadConfiguration) {
  EXPECT_THROW(ChordRing(0), std::invalid_argument);
  EXPECT_THROW(ChordRing(129), std::invalid_argument);
  EXPECT_THROW(ChordRing(16, 0), std::invalid_argument);
  ChordRing ring(8);
  ring.add_node_exact(3);
  EXPECT_THROW(ring.add_node_exact(3), std::invalid_argument);
  EXPECT_THROW(ring.add_node_exact(256), std::invalid_argument);
  EXPECT_THROW((void)ring.route(99, 5), std::invalid_argument);
  EXPECT_THROW((void)ring.route(3, 256), std::invalid_argument);
}

TEST(Chord, FullWidthIdentifierSpace) {
  Rng rng(11);
  ChordRing ring(128);
  ring.build(50, rng);
  EXPECT_TRUE(ring.ring_consistent());
  const RouteResult r = ring.route(ring.random_node(rng), rng.next128());
  EXPECT_TRUE(r.ok);
}

} // namespace
} // namespace squid::overlay
