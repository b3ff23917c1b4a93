// Differential suite for the ring's membership index (DESIGN.md 4b, 4j):
// every query the public API answers is replayed against an ordered-set
// oracle — the exact model the seed's std::map<NodeId, ChordNode> storage
// implemented by construction. Any divergence between the tiered store's
// reads (sorted base, delta tier and tombstones, with deferred merges in
// play) and the ordered-set semantics fails here before it can perturb a
// figure.

#include "squid/overlay/chord.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "squid/util/rng.hpp"

namespace squid::overlay {
namespace {

/// Ground-truth successor per the ordered-set model: first member >= key,
/// wrapping to the smallest.
NodeId oracle_successor(const std::set<NodeId>& members, u128 key) {
  auto it = members.lower_bound(key);
  if (it == members.end()) it = members.begin();
  return *it;
}

/// Ground-truth predecessor: last member < key, wrapping to the largest.
NodeId oracle_predecessor(const std::set<NodeId>& members, u128 key) {
  auto it = members.lower_bound(key);
  if (it == members.begin()) it = members.end();
  return *std::prev(it);
}

/// Compare every positional query against the oracle at the members
/// themselves, one past them, and a spread of random probes.
void check_against_oracle(const ChordRing& ring,
                          const std::set<NodeId>& members, Rng& probe_rng) {
  ASSERT_EQ(ring.size(), members.size());
  const std::vector<NodeId> ids = ring.node_ids();
  ASSERT_TRUE(std::equal(ids.begin(), ids.end(), members.begin(),
                         members.end()));
  for (const NodeId id : ids) {
    EXPECT_TRUE(ring.contains(id));
    EXPECT_EQ(ring.successor_of(id), id);
    EXPECT_EQ(ring.node(id).id, id);
  }
  for (int probe = 0; probe < 64; ++probe) {
    const u128 key = probe_rng.below128(ring.id_mask() + 1);
    EXPECT_EQ(ring.successor_of(key), oracle_successor(members, key));
    EXPECT_EQ(ring.predecessor_of(key), oracle_predecessor(members, key));
    EXPECT_EQ(ring.contains(key), members.count(key) != 0);
  }
}

TEST(FlatRingDifferential, ChurnAgainstOrderedSetOracle) {
  Rng rng(77);
  Rng probe_rng(78);
  ChordRing ring(40);
  ring.build(120, rng);
  std::set<NodeId> members;
  for (const NodeId id : ring.node_ids()) members.insert(id);
  check_against_oracle(ring, members, probe_rng);

  // Interleave every mutation the public API offers, verifying after each
  // batch so tombstones and merges are both exercised mid-stream.
  for (int round = 0; round < 30; ++round) {
    const unsigned op = static_cast<unsigned>(rng.below(5));
    switch (op) {
    case 0: { // exact insert (setup / load-balancer path)
      const NodeId id = ring.random_free_id(rng);
      ring.add_node_exact(id);
      members.insert(id);
      break;
    }
    case 1: { // protocol join through routing
      const NodeId id = ring.random_free_id(rng);
      const NodeId bootstrap = ring.random_node(rng);
      const RouteResult r = ring.join(id, bootstrap);
      ASSERT_TRUE(r.ok);
      members.insert(id);
      break;
    }
    case 2: { // graceful leave
      if (members.size() <= 4) break;
      const NodeId id = ring.random_node(rng);
      ring.leave(id);
      members.erase(id);
      break;
    }
    case 3: { // abrupt failure (leaves stale remote state behind)
      if (members.size() <= 4) break;
      const NodeId id = ring.random_node(rng);
      ring.fail(id);
      members.erase(id);
      break;
    }
    case 4: { // repair then stabilization sweeps
      ring.repair_all();
      ring.stabilize_all(rng, 1);
      break;
    }
    }
    check_against_oracle(ring, members, probe_rng);
  }
}

/// The finger scan before progress gating: a membership search for every
/// finger, then the open-interval test; the most clockwise live finger
/// strictly before `key` wins.
NodeId full_scan_closest_preceding(const ChordRing& ring, const ChordNode& n,
                                   u128 key) {
  NodeId best = n.id;
  u128 best_progress = 0;
  for (std::size_t k = n.fingers.size(); k-- > 0;) {
    const NodeId f = n.fingers[k];
    if (!ring.contains(f) || !in_open_open(n.id, key, f)) continue;
    const u128 progress = ring_distance(n.id, f, ring.id_bits());
    if (progress > best_progress) {
      best = f;
      best_progress = progress;
    }
  }
  return best;
}

/// Greedy routing as specified, over the public node tables: each hop
/// looks its node up again and scans every finger in full.
RouteResult full_scan_route(const ChordRing& ring, NodeId from, u128 key) {
  RouteResult r;
  NodeId cur = from;
  r.path.push_back(cur);
  for (std::size_t hop = 0; hop < ring.max_route_hops(); ++hop) {
    const ChordNode& n = ring.node(cur);
    std::optional<NodeId> succ;
    for (const NodeId s : n.successors) {
      if (ring.contains(s)) {
        succ = s;
        break;
      }
    }
    if (!succ) return r;
    if (in_open_closed(cur, *succ, key)) {
      r.ok = true;
      r.dest = *succ;
      if (*succ != cur) r.path.push_back(*succ);
      return r;
    }
    NodeId next = full_scan_closest_preceding(ring, n, key);
    if (next == cur) next = *succ;
    if (next == cur) return r;
    r.path.push_back(next);
    cur = next;
  }
  return r;
}

TEST(FlatRingDifferential, RouteMatchesFullFingerScanOnStaleRings) {
  // Routing on rings that churn without stabilization: failed and departed
  // nodes linger in fingers and successor lists, joined nodes carry their
  // successor's table, and timeouts repoint fingers at a nearby successor
  // (so finger progress is no longer monotone in k). The route must equal
  // the full-scan reference hop for hop.
  for (const unsigned bits : {24u, 64u, 128u}) {
    for (const unsigned base : {2u, 3u, 4u, 16u}) {
      const std::string config =
          "bits=" + std::to_string(bits) + " base=" + std::to_string(base);
      Rng rng(bits * 100 + base);
      ChordRing ring(bits, /*successors=*/4, base);
      ring.build(160, rng);
      std::vector<NodeId> gone;
      const auto probe = [&](NodeId from, u128 key) {
        const RouteResult got = ring.route(from, key);
        const RouteResult want = full_scan_route(ring, from, key);
        ASSERT_EQ(got.ok, want.ok) << config;
        EXPECT_EQ(got.dest, want.dest) << config;
        ASSERT_EQ(got.path, want.path) << config;
      };
      for (int round = 0; round < 60; ++round) {
        switch (rng.below(5)) {
        case 0: // routed join from a stale bootstrap (may fail to splice)
          (void)ring.join(ring.random_free_id(rng), ring.random_node(rng));
          break;
        case 1:
          if (ring.size() > 40) {
            gone.push_back(ring.random_node(rng));
            ring.leave(gone.back());
          }
          break;
        case 2:
        case 3:
          if (ring.size() > 40) {
            gone.push_back(ring.random_node(rng));
            ring.fail(gone.back());
          }
          break;
        case 4:
          if (!gone.empty()) {
            ring.note_timeout(ring.random_node(rng),
                              gone[rng.below(gone.size())]);
          }
          break;
        }
        for (int i = 0; i < 8; ++i) {
          const NodeId from = ring.random_node(rng);
          probe(from, bits == 128 ? rng.next128()
                                  : rng.below128(ring.id_mask() + 1));
          probe(from, from); // the whole ring minus the source
        }
        const NodeId from = ring.random_node(rng);
        probe(from, 0);
        probe(from, ring.id_mask());
        if (!gone.empty()) probe(from, gone[rng.below(gone.size())]);
      }
    }
  }
}

TEST(FlatRingDifferential, RandomNodeIsKthSmallestLiveId) {
  // The seed drew k = rng.below(size) and advanced a map iterator k steps:
  // random_node must return the k-th smallest live id for the same draw,
  // including while tombstones are pending a merge.
  Rng rng(91);
  ChordRing ring(36);
  ring.build(90, rng);
  for (int round = 0; round < 40; ++round) {
    // Failures tombstone without merging (until the store's threshold), so
    // consecutive draws run against pending tombstones.
    if (ring.size() > 8) ring.fail(ring.random_node(rng));
    const std::vector<NodeId> ids = ring.node_ids();
    for (int draw = 0; draw < 16; ++draw) {
      Rng expected_rng = rng; // mirror the stream to predict the pick
      const std::size_t k =
          static_cast<std::size_t>(expected_rng.below(ids.size()));
      EXPECT_EQ(ring.random_node(rng), ids[k]);
    }
  }
}

TEST(FlatRingDifferential, RouteDestinationMatchesGroundTruthOwner) {
  Rng rng(123);
  ChordRing ring(32);
  ring.build(150, rng);
  for (int round = 0; round < 6; ++round) {
    // Churn, then repair: routing correctness is defined on a converged
    // ring; the differential claim is dest == successor_of for any key.
    for (int i = 0; i < 5; ++i) {
      ring.fail(ring.random_node(rng));
      ring.add_node_exact(ring.random_free_id(rng));
    }
    ring.repair_all();
    std::set<NodeId> members;
    for (const NodeId id : ring.node_ids()) members.insert(id);
    for (int probe = 0; probe < 50; ++probe) {
      const u128 key = rng.below128(ring.id_mask() + 1);
      const RouteResult r = ring.route(ring.random_node(rng), key);
      ASSERT_TRUE(r.ok);
      EXPECT_EQ(r.dest, oracle_successor(members, key));
      EXPECT_EQ(r.dest, ring.successor_of(key));
    }
  }
}

TEST(FlatRingDifferential, StabilizationConvergesAfterChurn) {
  Rng rng(55);
  ChordRing ring(32, /*successors=*/8);
  ring.build(80, rng);
  ASSERT_TRUE(ring.ring_consistent());
  // Fail a handful of nodes abruptly; successor lists are deep enough for
  // stabilization alone to reconverge the ring (no oracle repair).
  for (int i = 0; i < 5; ++i) ring.fail(ring.random_node(rng));
  ring.stabilize_all(rng, 6);
  EXPECT_TRUE(ring.ring_consistent());
  // And the repaired ring still matches the ordered-set oracle.
  std::set<NodeId> members;
  for (const NodeId id : ring.node_ids()) members.insert(id);
  Rng probe_rng(56);
  check_against_oracle(ring, members, probe_rng);
}

TEST(FlatRingDifferential, TombstoneHeavyChurnStaysExact) {
  // Push the tombstone machinery hard: alternate bursts of failures (dead
  // entries accumulate, possibly tripping the threshold merge) with single
  // inserts (which enter the delta tier), checking positional queries
  // throughout.
  Rng rng(2024);
  Rng probe_rng(2025);
  ChordRing ring(48);
  ring.build(200, rng);
  std::set<NodeId> members;
  for (const NodeId id : ring.node_ids()) members.insert(id);
  for (int round = 0; round < 12; ++round) {
    const std::size_t burst = 1 + rng.below(20);
    for (std::size_t i = 0; i < burst && members.size() > 8; ++i) {
      const NodeId id = ring.random_node(rng);
      ring.fail(id);
      members.erase(id);
      // Check *between* removals: the array is at its dirtiest here.
      EXPECT_EQ(ring.size(), members.size());
      const u128 key = probe_rng.below128(ring.id_mask() + 1);
      EXPECT_EQ(ring.successor_of(key), oracle_successor(members, key));
      EXPECT_EQ(ring.predecessor_of(key), oracle_predecessor(members, key));
    }
    const NodeId fresh = ring.random_free_id(rng);
    ring.add_node_exact(fresh);
    members.insert(fresh);
    check_against_oracle(ring, members, probe_rng);
  }
}

TEST(FlatRingDifferential, PendingDeltaAndTombstonesWithoutRepair) {
  // Inserts (exact and routed joins) land in the store's delta tier and
  // failures tombstone base entries; with no repair_all in between nothing
  // folds them away except the store's own threshold merge, so every read
  // below runs against both tiers pending at once.
  Rng rng(4242);
  Rng probe_rng(4243);
  ChordRing ring(44, /*successors=*/8);
  ring.build(300, rng);
  std::set<NodeId> members;
  for (const NodeId id : ring.node_ids()) members.insert(id);
  for (int round = 0; round < 16; ++round) {
    const std::size_t inserts = 1 + rng.below(6);
    for (std::size_t i = 0; i < inserts; ++i) {
      const NodeId id = ring.random_free_id(rng);
      if (rng.below(2) == 0) {
        ring.add_node_exact(id);
      } else {
        ASSERT_TRUE(ring.join(id, ring.random_node(rng)).ok);
      }
      members.insert(id);
    }
    const std::size_t burst = 1 + rng.below(6);
    for (std::size_t i = 0; i < burst; ++i) {
      const NodeId id = ring.random_node(rng);
      ring.fail(id);
      members.erase(id);
    }
    check_against_oracle(ring, members, probe_rng);
    // random_node is the k-th smallest live id for the same draw.
    const std::vector<NodeId> ids(members.begin(), members.end());
    for (int draw = 0; draw < 8; ++draw) {
      Rng expected_rng = rng;
      const auto k = static_cast<std::size_t>(expected_rng.below(ids.size()));
      EXPECT_EQ(ring.random_node(rng), ids[k]);
    }
    // Stabilization repairs successor pointers through the protocol alone;
    // it inserts and erases nothing, so the tiers stay pending while the
    // routes below read them.
    ring.stabilize_all(rng, 2);
    ASSERT_TRUE(ring.ring_consistent());
    for (int probe = 0; probe < 24; ++probe) {
      const u128 key = probe_rng.below128(ring.id_mask() + 1);
      const RouteResult r = ring.route(ring.random_node(rng), key);
      ASSERT_TRUE(r.ok);
      EXPECT_EQ(r.dest, oracle_successor(members, key));
    }
  }
}

TEST(FlatRingDifferential, FailedIdRejoinsWithFreshExactState) {
  // Failing a node tombstones its base entry; re-adding the same id
  // resurrects that slot. The node must come back wired exactly like one
  // that never left, with nothing of its old state surviving.
  Rng rng(31337);
  ChordRing ring(40, /*successors=*/4);
  ring.build(200, rng);
  const ChordRing untouched = ring;
  std::set<NodeId> members;
  for (const NodeId id : ring.node_ids()) members.insert(id);
  Rng probe_rng(31338);
  for (int round = 0; round < 10; ++round) {
    const NodeId id = ring.random_node(rng);
    ring.fail(id);
    EXPECT_FALSE(ring.contains(id));
    ring.add_node_exact(id);
    const ChordNode& back = ring.node(id);
    const ChordNode& never_left = untouched.node(id);
    EXPECT_EQ(back.id, id);
    EXPECT_EQ(back.predecessor, never_left.predecessor);
    EXPECT_EQ(back.successors, never_left.successors);
    EXPECT_EQ(back.fingers, never_left.fingers);
    EXPECT_EQ(ring.successor_of(id), id);
    check_against_oracle(ring, members, probe_rng);
  }

  // The routed join resurrects the slot too, with the bootstrap
  // approximation keyed by the right id. The successor still names the
  // failed incarnation as its predecessor; join once adopted that stale
  // pointer, so the node became its own predecessor and successor.
  const NodeId id = ring.random_node(rng);
  ring.fail(id);
  members.erase(id);
  const RouteResult r = ring.join(id, ring.random_node(rng));
  ASSERT_TRUE(r.ok);
  members.insert(id);
  EXPECT_EQ(ring.node(id).id, id);
  EXPECT_EQ(ring.node(id).successors.front(),
            oracle_successor(members, (id + 1) & ring.id_mask()));
  check_against_oracle(ring, members, probe_rng);
  ring.stabilize_all(rng, 2);
  EXPECT_TRUE(ring.ring_consistent());
  EXPECT_EQ(ring.node(id).predecessor, oracle_predecessor(members, id));
}

} // namespace
} // namespace squid::overlay
