// Chord overlay network (paper 3.2), simulated in-process.
//
// Node identifiers are random values in [0, 2^id_bits); every key is owned
// by its successor — the first node clockwise at or after it. Each node
// keeps a finger table (for base 2, finger[k] = successor(id + 2^k)), a
// predecessor, and a short successor list for fault tolerance. Routing is
// iterative greedy closest-preceding-finger, O(log N) hops on a converged
// ring. Joins splice through routed lookups, departures are graceful
// notifications, failures leave stale state behind that periodic
// stabilization repairs — exactly the maintenance story of 3.2.
//
// The ring object owns all nodes (this is a simulator, not a network stack);
// honesty discipline: route() and stabilization act only on the local state
// of the nodes involved. Ground-truth helpers (successor_of, repair_all) are
// clearly named and used only for experiment setup and assertions.
//
// Membership is one util::TieredStore<ChordNode> keyed by node id
// (DESIGN.md 4b, 4j): a sorted base array, a small sorted delta tier and a
// tombstone list, folded back into the base by the store's deterministic
// merge. contains / node are its find, successor_of / predecessor_of its
// two neighbour reads (with the ring's wrap added here), random_node its
// order statistic; build loads its fresh ids through one sorted
// write_sorted batch and repair_all runs inside bulk_update over the
// merged dense arrays, wiring whole tables by rank arithmetic. Join inserts
// and leave / fail erase through the store, so a load-balancing move
// (leave plus rejoin) costs a delta shift, not an O(N) array shift.

#pragma once

#include <cstdint>
#include <vector>

#include "squid/overlay/id_space.hpp"
#include "squid/util/rng.hpp"
#include "squid/util/store.hpp"

namespace squid::overlay {

struct ChordNode {
  NodeId id = 0;
  NodeId predecessor = 0;
  bool has_predecessor = false;
  /// fingers[k] = successor(finger_target_of(id, k)); for base 2 that is
  /// successor(id + 2^k).
  std::vector<NodeId> fingers;
  std::vector<NodeId> successors; ///< successor list, [0] = immediate
};

/// Outcome of one iterative routing operation. `path` lists every node that
/// handled the message, starting at the source and ending at the owner of
/// the key (on success).
struct RouteResult {
  bool ok = false;
  NodeId dest = 0;
  std::vector<NodeId> path;

  /// Overlay hops = messages sent during routing.
  std::size_t hops() const noexcept {
    return path.empty() ? 0 : path.size() - 1;
  }
};

class ChordRing {
public:
  /// `id_bits`: ring width (paper uses the SFC index width). `successors`:
  /// length of each node's successor list. `finger_base`: 2 gives classic
  /// Chord fingers at id + 2^k; base b keeps (b-1) fingers per base-b digit
  /// at id + j*b^k — shorter routes (log_b N hops) for larger tables (the
  /// k-ary lookup generalization of El-Ansary et al.; ablation bench).
  explicit ChordRing(unsigned id_bits,
                     unsigned successors = kDefaultSuccessors,
                     unsigned finger_base = 2);
  static constexpr unsigned kDefaultSuccessors = 8;

  unsigned id_bits() const noexcept { return id_bits_; }
  unsigned finger_base() const noexcept { return finger_base_; }
  /// Number of finger-table entries per node for this ring's geometry.
  std::size_t finger_count() const noexcept { return finger_targets_.size(); }
  /// The k-th finger target of `id`: (id + finger_targets_[k]) mod 2^bits.
  NodeId finger_target_of(NodeId id, std::size_t k) const {
    return (id + finger_targets_[k]) & id_mask();
  }
  u128 id_mask() const noexcept { return low_mask(id_bits_); }
  std::size_t size() const noexcept { return members_.size(); }
  bool contains(NodeId id) const { return members_.find(id) != nullptr; }

  /// Experiment setup: create `count` nodes with distinct random ids and
  /// wire every table exactly.
  void build(std::size_t count, Rng& rng);

  /// Create a node with the given id and wire it exactly (no routing cost).
  /// Used by setup code and by the load-balancing join which has already
  /// chosen the id.
  void add_node_exact(NodeId id);

  /// Protocol-faithful join: route from `bootstrap` to the successor of
  /// `new_id`, splice in, and seed the finger table from the successor.
  /// Entries converge via stabilization. Returns the routing cost.
  RouteResult join(NodeId new_id, NodeId bootstrap);

  /// Graceful departure: neighbors are patched, fingers elsewhere go stale
  /// until stabilization repairs them.
  void leave(NodeId id);

  /// Abrupt failure: the node vanishes; all remote state pointing at it is
  /// left dangling.
  void fail(NodeId id);

  /// Iterative lookup from `from` for `key`, using only finger tables and
  /// successor lists of the nodes on the path (dead fingers are skipped the
  /// way a real node would after an RPC timeout).
  RouteResult route(NodeId from, u128 key) const;

  /// One stabilization round at `id` (paper 3.2, node failures): verify the
  /// immediate successor (falling back along the successor list), refresh
  /// the successor list, notify the successor, and fix one random finger.
  void stabilize(NodeId id, Rng& rng);

  /// Failure detection (docs/FAULT_MODEL.md): `observer` exhausted its
  /// message retries against `dead` and now suspects it. Purge `dead` from
  /// the observer's successor list, repoint fingers at the observer's next
  /// live successor, and clear a predecessor link to it — exactly what a
  /// real node does after an RPC timeout. Safe against false positives
  /// (message loss to a live peer): stabilization re-learns pruned state.
  void note_timeout(NodeId observer, NodeId dead);

  /// Run `rounds` full sweeps of stabilize() over every node, in random
  /// order.
  void stabilize_all(Rng& rng, unsigned rounds = 1);

  /// Ground truth: owner of `key` given current membership.
  NodeId successor_of(u128 key) const;
  /// Ground truth: first node strictly before `key` (wrapping).
  NodeId predecessor_of(u128 key) const;

  /// Recompute every node's predecessor/successor-list/fingers exactly,
  /// over the membership store's merged dense arrays.
  void repair_all();

  const ChordNode& node(NodeId id) const;
  ChordNode& node(NodeId id);

  /// All node ids in ring order (ascending).
  std::vector<NodeId> node_ids() const;

  /// Random existing node id (uniform); requires a nonempty ring.
  NodeId random_node(Rng& rng) const;

  /// Draw an id not currently present in the ring.
  NodeId random_free_id(Rng& rng) const;

  /// True when every node's immediate successor matches ground truth.
  bool ring_consistent() const;

  /// Maximum hops allowed before route() declares failure.
  std::size_t max_route_hops() const noexcept { return 4 * (id_bits_ + 2); }

private:
  // Both return the live node their membership search found (its id is
  // ->id), or null when there is none.
  const ChordNode* closest_preceding_alive(const ChordNode& n,
                                           u128 key) const;
  const ChordNode* first_alive_successor(const ChordNode& n) const;

  /// Wire `n`'s predecessor (`pred`), successor list and the short-range
  /// finger prefix. `next(x)` yields the live id clockwise after `x`; it is
  /// called with each successor in turn, starting from n.id. Returns the
  /// first finger index still needing a membership search.
  template <class Next>
  std::size_t wire_links(ChordNode& n, NodeId pred, Next&& next) const;
  /// Publish the membership merges run since `before` (a stats().merges
  /// reading) as squid.ring.merges.
  void note_merges(std::uint64_t before) const;

  unsigned id_bits_;
  unsigned successor_list_len_;
  unsigned finger_base_;
  std::vector<u128> finger_offsets() const; // built once in the ctor
  std::vector<u128> finger_targets_;        // offsets j*base^k, ascending

  util::TieredStore<ChordNode> members_; ///< live nodes keyed by id
};

} // namespace squid::overlay
