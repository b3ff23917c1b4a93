#include "squid/overlay/chord.hpp"

#include <algorithm>
#include <unordered_set>

#include "squid/obs/metrics.hpp"
#include "squid/util/require.hpp"

namespace squid::overlay {

namespace {

/// Registry handles for the ring's maintenance metrics, resolved once.
/// Counters are relaxed atomics, so the const routing path stays safe under
/// the concurrent readers of parallel_query_test.
struct RingMetrics {
  obs::Counter& routes;
  obs::Counter& route_hops;
  obs::Counter& route_failures;
  obs::Counter& stabilize_ops;
  obs::Counter& successor_fallbacks;
  obs::Counter& finger_fixes;
  obs::Counter& timeout_repairs;
  obs::Counter& merges;
  obs::Counter& joins;
  obs::Counter& leaves;
  obs::Counter& fails;

  static RingMetrics& get() {
    auto& r = obs::Registry::global();
    static RingMetrics m{r.counter("squid.ring.routes"),
                         r.counter("squid.ring.route_hops"),
                         r.counter("squid.ring.route_failures"),
                         r.counter("squid.ring.stabilize_ops"),
                         r.counter("squid.ring.successor_fallbacks"),
                         r.counter("squid.ring.finger_fixes"),
                         r.counter("squid.ring.timeout_repairs"),
                         r.counter("squid.ring.merges"),
                         r.counter("squid.ring.joins"),
                         r.counter("squid.ring.leaves"),
                         r.counter("squid.ring.fails")};
    return m;
  }
};

} // namespace

ChordRing::ChordRing(unsigned id_bits, unsigned successors,
                     unsigned finger_base)
    : id_bits_(id_bits), successor_list_len_(successors),
      finger_base_(finger_base) {
  SQUID_REQUIRE(id_bits >= 1 && id_bits <= 128, "id_bits must be in [1,128]");
  SQUID_REQUIRE(successors >= 1, "successor list needs at least one entry");
  SQUID_REQUIRE(finger_base >= 2, "finger base must be at least 2");
  finger_targets_ = finger_offsets();
}

std::vector<u128> ChordRing::finger_offsets() const {
  // Offsets j * base^k for j in [1, base) while the offset fits the ring.
  // For base 2 this is exactly the classic 2^k finger set.
  std::vector<u128> offsets;
  const u128 limit = id_mask();
  u128 scale = 1;
  for (;;) {
    bool any = false;
    for (unsigned j = 1; j < finger_base_; ++j) {
      const u128 offset = scale * j;
      if (offset > limit || offset / j != scale) break; // overflow guard
      offsets.push_back(offset);
      any = true;
    }
    if (!any) break;
    if (scale > limit / finger_base_) break;
    scale *= finger_base_;
  }
  return offsets;
}

void ChordRing::note_merges(std::uint64_t before) const {
  if constexpr (obs::kEnabled) {
    const std::uint64_t merges = members_.stats().merges;
    if (merges != before) RingMetrics::get().merges.add(merges - before);
  }
}

// --- Ground-truth queries ----------------------------------------------------

NodeId ChordRing::successor_of(u128 key) const {
  SQUID_REQUIRE(!members_.empty(), "successor_of on an empty ring");
  if (const auto id = members_.first_at_or_after(key)) return *id;
  return members_.kth(0); // wrap to the smallest id
}

NodeId ChordRing::predecessor_of(u128 key) const {
  SQUID_REQUIRE(!members_.empty(), "predecessor_of on an empty ring");
  if (const auto id = members_.last_before(key)) return *id;
  return members_.kth(members_.size() - 1); // wrap to the largest id
}

const ChordNode& ChordRing::node(NodeId id) const {
  const ChordNode* n = members_.find(id);
  SQUID_REQUIRE(n != nullptr, "unknown node id");
  return *n;
}

ChordNode& ChordRing::node(NodeId id) {
  ChordNode* n = members_.find(id);
  SQUID_REQUIRE(n != nullptr, "unknown node id");
  return *n;
}

std::vector<NodeId> ChordRing::node_ids() const {
  return members_.materialize_keys();
}

NodeId ChordRing::random_node(Rng& rng) const {
  SQUID_REQUIRE(!members_.empty(), "random_node on an empty ring");
  // The k-th smallest live id, exactly like std::advance over the seed's
  // map (query-replay determinism depends on it).
  return members_.kth(static_cast<std::size_t>(rng.below(size())));
}

NodeId ChordRing::random_free_id(Rng& rng) const {
  for (;;) {
    const NodeId id = id_bits_ >= 128 ? rng.next128()
                                      : rng.below128(static_cast<u128>(1)
                                                     << id_bits_);
    if (!contains(id)) return id;
  }
}

// --- Exact wiring (experiment setup) -----------------------------------------

template <class Next>
std::size_t ChordRing::wire_links(ChordNode& n, NodeId pred,
                                  Next&& next) const {
  n.predecessor = pred;
  n.has_predecessor = true;
  n.successors.clear();
  n.successors.reserve(successor_list_len_);
  // The next successor_list_len_ live ids clockwise (the node itself closes
  // the list on tiny rings).
  NodeId s = n.id;
  for (unsigned i = 0; i < successor_list_len_; ++i) {
    s = next(s);
    n.successors.push_back(s);
    if (s == n.id) break; // wrapped all the way around
  }
  // resize, not assign: every entry is written by the caller or the fill
  // below, and on the warm repair path this skips re-zeroing the table.
  n.fingers.resize(finger_count());
  const NodeId succ = n.successors.front();
  if (succ == n.id) { // the only live node
    std::fill(n.fingers.begin(), n.fingers.end(), n.id);
    return finger_count();
  }
  // With N nodes in a 2^bits space, every finger whose target offset fits
  // inside the gap to the immediate successor resolves to that successor —
  // at paper scales that is the vast majority of the table (offsets are
  // geometric, the gap is ~2^bits/N). finger_targets_ is ascending, so one
  // search over it replaces ~log2(2^bits/N) membership searches per node.
  const u128 gap = (succ - n.id) & id_mask();
  const std::size_t k0 = static_cast<std::size_t>(
      std::upper_bound(finger_targets_.begin(), finger_targets_.end(), gap) -
      finger_targets_.begin());
  std::fill(n.fingers.begin(),
            n.fingers.begin() + static_cast<std::ptrdiff_t>(k0), succ);
  return k0;
}

void ChordRing::repair_all() {
  if (members_.empty()) return;
  const std::uint64_t merges = members_.stats().merges;
  members_.bulk_update([&](std::vector<NodeId>& ids,
                           std::vector<ChordNode>& nodes) {
    const std::size_t count = ids.size();
    // Sweeping all ranks in order makes finger k's target monotone (mod one
    // wrap), so a rolling cursor per finger index answers each long-range
    // finger in amortized O(1) where a membership binary search paid
    // O(log N). Short-range fingers never touch their cursor (wire_links
    // fills them from the successor gap).
    std::vector<std::size_t> cursor(finger_count(), 0);
    std::vector<u128> prev_target(finger_count(), 0);
    for (std::size_t r = 0; r < count; ++r) {
      ChordNode& n = nodes[r];
      std::size_t p = r;
      const std::size_t k0 =
          wire_links(n, ids[(r == 0 ? count : r) - 1], [&](NodeId) {
            p = p + 1 == count ? 0 : p + 1;
            return ids[p];
          });
      for (std::size_t k = k0; k < finger_count(); ++k) {
        const u128 target = finger_target_of(n.id, k);
        std::size_t& c = cursor[k];
        // The target sequence wrapped past zero: restart the cursor. (If
        // the wrap happened during ranks that skipped this k and the target
        // is already back above the last one seen, the stale cursor is
        // still a valid lower bound — no reset needed.)
        if (target < prev_target[k]) c = 0;
        prev_target[k] = target;
        while (c < count && ids[c] < target) ++c;
        n.fingers[k] = ids[c == count ? 0 : c];
      }
    }
  });
  note_merges(merges);
}

void ChordRing::add_node_exact(NodeId id) {
  SQUID_REQUIRE(id <= id_mask(), "node id exceeds the identifier space");
  SQUID_REQUIRE(!contains(id), "duplicate node id");
  const std::uint64_t merges = members_.stats().merges;
  // obtain hands back a default payload, also when it resurrects the
  // tombstone of a departed node with this id.
  ChordNode& self = members_.obtain(id);
  note_merges(merges);
  self.id = id;
  const std::size_t k0 =
      wire_links(self, predecessor_of(id),
                 [&](NodeId s) { return successor_of((s + 1) & id_mask()); });
  for (std::size_t k = k0; k < finger_count(); ++k)
    self.fingers[k] = successor_of(finger_target_of(id, k));
  // Splice the neighbors so the ring stays exactly consistent: the new
  // node's predecessor gains it as immediate successor, the successor gains
  // it as predecessor. Remote fingers elsewhere stay stale by design.
  if (size() > 1) {
    ChordNode& pred = node(self.predecessor);
    pred.successors.insert(pred.successors.begin(), id);
    if (pred.successors.size() > successor_list_len_)
      pred.successors.pop_back();
    ChordNode& succ = node(self.successors.front());
    succ.predecessor = id;
    succ.has_predecessor = true;
  }
}

void ChordRing::build(std::size_t count, Rng& rng) {
  SQUID_REQUIRE(count >= 1, "cannot build an empty ring");
  // Mirror the incremental-insert draw loop exactly: collisions retry and
  // consume rng against everything drawn so far. Only the per-draw
  // membership answer matters for the stream, so a hash set stands in for
  // the seed's ordered map; the fresh ids are sorted once afterwards.
  struct IdHash {
    std::size_t operator()(NodeId id) const noexcept {
      const auto lo = static_cast<std::uint64_t>(id);
      const auto hi = static_cast<std::uint64_t>(id >> 64);
      return static_cast<std::size_t>((lo ^ hi * 0x9e3779b97f4a7c15ull) *
                                      0xbf58476d1ce4e5b9ull);
    }
  };
  std::unordered_set<NodeId, IdHash> members;
  members.reserve(count);
  members_.for_each([&](NodeId id, const ChordNode&) { members.insert(id); });
  std::vector<NodeId> fresh;
  fresh.reserve(count - std::min(count, size()));
  while (members.size() < count) {
    for (;;) {
      const NodeId id = id_bits_ >= 128
                            ? rng.next128()
                            : rng.below128(static_cast<u128>(1) << id_bits_);
      if (members.insert(id).second) {
        fresh.push_back(id);
        break;
      }
    }
  }
  std::sort(fresh.begin(), fresh.end());
  members_.write_sorted(
      fresh.size(), [&](std::size_t i) { return fresh[i]; },
      [&](std::size_t i, ChordNode& node) { node.id = fresh[i]; },
      [](const ChordNode&) { return true; });
  if constexpr (obs::kEnabled) RingMetrics::get().joins.add(fresh.size());
  repair_all();
}

// --- Protocol operations -----------------------------------------------------

const ChordNode* ChordRing::first_alive_successor(const ChordNode& n) const {
  for (const NodeId s : n.successors)
    if (const ChordNode* live = members_.find(s)) return live;
  return nullptr;
}

const ChordNode* ChordRing::closest_preceding_alive(const ChordNode& n,
                                                    u128 key) const {
  // The live finger that makes the most clockwise progress toward key while
  // staying strictly before it (null: none does). Progress is one
  // subtraction, so a finger pays for a membership search only when it
  // would become the new best; scanning the largest offsets first makes
  // that the first in-range finger on an exact table. Every finger is still
  // visited: on a stale table (failed, departed or timed-out entries)
  // progress is not monotone in k, and stopping at the first live in-range
  // finger — the classic descending scan — can pick another node.
  const u128 limit = ring_distance(n.id, key, id_bits_); // 0: whole ring
  const ChordNode* best = nullptr;
  u128 best_progress = 0;
  for (std::size_t k = n.fingers.size(); k-- > 0;) {
    const NodeId f = n.fingers[k];
    const u128 progress = ring_distance(n.id, f, id_bits_);
    if (progress <= best_progress || (limit != 0 && progress >= limit))
      continue;
    if (const ChordNode* live = members_.find(f)) {
      best = live;
      best_progress = progress;
    }
  }
  return best;
}

RouteResult ChordRing::route(NodeId from, u128 key) const {
  const RouteResult result = [&] {
    RouteResult r;
    // Each hop carries the node its liveness search found, so no hop
    // searches the membership for the node it is already standing on.
    const ChordNode* n = members_.find(from);
    SQUID_REQUIRE(n != nullptr, "route source is not in the ring");
    SQUID_REQUIRE(key <= id_mask(), "key exceeds the identifier space");
    NodeId cur = from;
    r.path.reserve(max_route_hops() + 1); // one entry per hop at most
    r.path.push_back(cur);
    for (std::size_t hop = 0; hop < max_route_hops(); ++hop) {
      const ChordNode* succ = first_alive_successor(*n);
      if (succ == nullptr) return r; // partitioned: no live successor known
      // (cur, cur] is the whole ring, so a node that lists itself as its
      // successor always ends the route here.
      if (in_open_closed(cur, succ->id, key)) {
        r.ok = true;
        r.dest = succ->id;
        if (succ->id != cur) r.path.push_back(succ->id);
        return r;
      }
      n = closest_preceding_alive(*n, key);
      if (n == nullptr) n = succ; // fingers useless: crawl the ring
      cur = n->id;
      r.path.push_back(cur);
    }
    return r; // hop budget exhausted (routing loop under heavy churn)
  }();
  if constexpr (obs::kEnabled) {
    RingMetrics& m = RingMetrics::get();
    m.routes.add(1);
    if (result.ok) m.route_hops.add(result.hops());
    else m.route_failures.add(1);
  }
  return result;
}

RouteResult ChordRing::join(NodeId new_id, NodeId bootstrap) {
  SQUID_REQUIRE(new_id <= id_mask(), "node id exceeds the identifier space");
  SQUID_REQUIRE(!contains(new_id), "duplicate node id");
  RouteResult r = route(bootstrap, new_id);
  if (!r.ok) return r;
  if constexpr (obs::kEnabled) RingMetrics::get().joins.add(1);

  ChordNode n;
  n.id = new_id;
  {
    const ChordNode& succ = node(r.dest);
    n.successors.push_back(r.dest);
    for (const NodeId s : succ.successors) {
      if (n.successors.size() >= successor_list_len_) break;
      if (s != new_id) n.successors.push_back(s);
    }
    // Seed fingers from the successor's table (standard bootstrap
    // approximation); stabilization tightens them over time.
    n.fingers = succ.fingers;
    if (n.fingers.empty()) n.fingers.assign(finger_count(), r.dest);
    n.fingers[0] = r.dest;
    // A failed node rejoining under its old id finds the successor's stale
    // pointer still naming it; adopting that would make the node its own
    // predecessor, and the eager notify below its own successor.
    if (succ.has_predecessor && succ.predecessor != new_id) {
      n.predecessor = succ.predecessor;
      n.has_predecessor = true;
    }
  } // the insert below may shift or merge the store: drop the reference
  const std::uint64_t merges = members_.stats().merges;
  ChordNode& self = members_.obtain(new_id);
  note_merges(merges);
  self = std::move(n);

  ChordNode& succ_mut = node(r.dest);
  succ_mut.predecessor = new_id;
  succ_mut.has_predecessor = true;
  // Eager notify of the predecessor keeps the ring routable immediately, as
  // the first post-join stabilize round would.
  if (self.has_predecessor && contains(self.predecessor)) {
    ChordNode& pred = node(self.predecessor);
    pred.successors.insert(pred.successors.begin(), new_id);
    if (pred.successors.size() > successor_list_len_)
      pred.successors.pop_back();
  }
  return r;
}

void ChordRing::leave(NodeId id) {
  const ChordNode& n = node(id);
  if constexpr (obs::kEnabled) RingMetrics::get().leaves.add(1);
  const ChordNode* live = first_alive_successor(n);
  // Patch the neighbors (paper 3.2 Node Departures); distant finger tables
  // stay stale until their owners stabilize.
  if (live != nullptr && live->id != id) {
    const NodeId succ = live->id;
    ChordNode& s = node(succ);
    if (n.has_predecessor && contains(n.predecessor)) {
      s.predecessor = n.predecessor;
      s.has_predecessor = true;
      ChordNode& p = node(n.predecessor);
      std::erase(p.successors, id);
      // The leaver's successor usually follows it in the list already.
      if (std::find(p.successors.begin(), p.successors.end(), succ) ==
          p.successors.end())
        p.successors.insert(p.successors.begin(), succ);
    }
  }
  const std::uint64_t merges = members_.stats().merges;
  members_.erase(id);
  note_merges(merges);
}

void ChordRing::fail(NodeId id) {
  SQUID_REQUIRE(contains(id), "unknown node id");
  if constexpr (obs::kEnabled) RingMetrics::get().fails.add(1);
  const std::uint64_t merges = members_.stats().merges;
  members_.erase(id);
  note_merges(merges);
}

void ChordRing::stabilize(NodeId id, Rng& rng) {
  if (!contains(id)) return;
  if constexpr (obs::kEnabled) RingMetrics::get().stabilize_ops.add(1);
  ChordNode& n = node(id);

  // 1. Successor repair: drop dead list entries from the front.
  NodeId succ;
  if (const ChordNode* live = first_alive_successor(n)) {
    succ = live->id;
  } else {
    // All known successors died (catastrophic). A real node would re-join
    // through an out-of-band bootstrap; model that directly.
    succ = successor_of((id + 1) & id_mask());
    if constexpr (obs::kEnabled)
      RingMetrics::get().successor_fallbacks.add(1);
  }

  // 2. Classic stabilize: adopt the successor's predecessor if closer.
  {
    const ChordNode& s = node(succ);
    if (s.has_predecessor && contains(s.predecessor) &&
        in_open_open(id, succ, s.predecessor)) {
      succ = s.predecessor;
    }
  }

  // 3. Refresh the successor list from the (possibly new) successor.
  std::vector<NodeId> fresh{succ};
  for (const NodeId s : node(succ).successors) {
    if (fresh.size() >= successor_list_len_) break;
    if (s != id && contains(s)) fresh.push_back(s);
  }
  n.successors = std::move(fresh);

  // 4. Notify the successor about us.
  {
    ChordNode& s = node(succ);
    if (!s.has_predecessor || !contains(s.predecessor) ||
        in_open_open(s.predecessor, s.id, id)) {
      s.predecessor = id;
      s.has_predecessor = true;
    }
  }

  // 5. Fix one random finger via a routed lookup (paper: each node
  // periodically "chooses a random entry in its finger table, checks for its
  // state, and updates it if required").
  if (n.fingers.empty()) n.fingers.assign(finger_count(), succ);
  const auto k = static_cast<std::size_t>(rng.below(finger_count()));
  const RouteResult r = route(id, finger_target_of(id, k));
  if (r.ok) {
    node(id).fingers[k] = r.dest;
    if constexpr (obs::kEnabled) RingMetrics::get().finger_fixes.add(1);
  }
  node(id).fingers[0] = succ;
}

void ChordRing::note_timeout(NodeId observer, NodeId dead) {
  if (observer == dead) return;
  ChordNode* observed = members_.find(observer);
  if (observed == nullptr) return; // the observer vanished since reporting
  if constexpr (obs::kEnabled) RingMetrics::get().timeout_repairs.add(1);
  ChordNode& n = *observed;
  // Successor-list fallback: the suspect is dropped, so routing falls
  // through to the next live entry immediately instead of on every lookup.
  std::erase(n.successors, dead);
  // Finger invalidation: entries pointing at the suspect are repointed at
  // the first alive successor — the node a timed-out RPC would retry via.
  // If the whole list died too (catastrophic), fingers fall back to self
  // and the next stabilize round re-bootstraps.
  const ChordNode* succ = first_alive_successor(n);
  const NodeId fallback = succ != nullptr ? succ->id : observer;
  for (NodeId& f : n.fingers)
    if (f == dead) f = fallback;
  if (n.has_predecessor && n.predecessor == dead) n.has_predecessor = false;
}

void ChordRing::stabilize_all(Rng& rng, unsigned rounds) {
  for (unsigned round = 0; round < rounds; ++round) {
    std::vector<NodeId> order = node_ids();
    rng.shuffle(order);
    for (const NodeId id : order) stabilize(id, rng);
  }
}

bool ChordRing::ring_consistent() const {
  bool consistent = true;
  members_.for_each([&](NodeId id, const ChordNode& n) {
    const ChordNode* succ = first_alive_successor(n);
    consistent = consistent && succ != nullptr &&
                 succ->id == successor_of((id + 1) & id_mask());
  });
  return consistent;
}

} // namespace squid::overlay
