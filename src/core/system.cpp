#include "squid/core/system.hpp"

#include <algorithm>
#include <cstdint>

#include "squid/obs/metrics.hpp"
#include "squid/obs/telemetry.hpp"
#include "squid/sim/fault.hpp"
#include "squid/util/require.hpp"

namespace squid::core {

SquidSystem::SquidSystem(keyword::KeywordSpace space, SquidConfig config)
    : space_(std::move(space)), config_(std::move(config)),
      curve_(sfc::make_curve(config_.curve, space_.dims(),
                             space_.bits_per_dim())),
      refiner_(*curve_),
      ring_(curve_->index_bits(), overlay::ChordRing::kDefaultSuccessors,
            config_.finger_base),
      store_(config_.store_delta_cap) {}

u128 SquidSystem::index_of_element(const DataElement& element) const {
  return curve_->index_of(space_.encode(element.keys));
}

void SquidSystem::build_network(std::size_t count, Rng& rng) {
  ring_.build(count, rng);
}

SquidSystem::NodeId SquidSystem::join_node(Rng& rng) {
  SQUID_REQUIRE(ring_.size() > 0, "join_node needs a bootstrapped network");
  const unsigned samples = std::max(1u, config_.join_samples);
  // Paper 3.5, load balancing at node join: generate several identifiers,
  // send join probes, let the logical successors report their loads, and
  // keep the identifier whose successor is the most loaded — that places
  // the newcomer in the most loaded part of the network, where it absorbs
  // the keys of the sub-arc it takes over.
  NodeId best = ring_.random_free_id(rng);
  std::size_t best_load = load_of(ring_.successor_of(best));
  for (unsigned probe = 1; probe < samples; ++probe) {
    const NodeId candidate = ring_.random_free_id(rng);
    const std::size_t successor_load = load_of(ring_.successor_of(candidate));
    if (successor_load > best_load) {
      best = candidate;
      best_load = successor_load;
    }
  }
  // Join so the most loaded sampled successor sheds half its keys: it knows
  // its own key set, so it can report the median key position along with its
  // load (a mild strengthening of the paper's "use the identifier that will
  // place it in the most loaded part" — same probes, same message cost, but
  // the split lands inside the dense region instead of at a random point of
  // the arc; see DESIGN.md).
  if (samples > 1) {
    if (const auto median = median_split_id(ring_.successor_of(best))) {
      best = *median;
    }
  }
  ring_.add_node_exact(best);
  obs::bump("squid.balance.sampled_joins");
  return best;
}

void SquidSystem::leave_node(NodeId id) { ring_.leave(id); }

void SquidSystem::fail_node(NodeId id) { ring_.fail(id); }

std::size_t SquidSystem::process_timeouts() {
  if (fault_ == nullptr) return 0;
  const auto reports = fault_->take_timeout_reports();
  for (const auto& [observer, dead] : reports)
    ring_.note_timeout(observer, dead);
  return reports.size();
}

namespace {

/// The publish contract's slot write (DESIGN.md 4j): element identity is
/// (key, name) — an existing element with this name is replaced in place
/// (last write wins, arrival position preserved); otherwise the element
/// appends. Returns true when the element is NEW (element_count grows).
bool place_element(std::vector<DataElement>& slot, const DataElement& element) {
  for (DataElement& stored : slot) {
    if (stored.name == element.name) {
      stored = element;
      return false;
    }
  }
  slot.push_back(element);
  return true;
}

} // namespace

void SquidSystem::publish(const DataElement& element) {
  StoreWrite write{index_of_element(element), &element};
  commit({&write, 1});
}

void SquidSystem::publish_batch(const std::vector<DataElement>& elements) {
  SQUID_REQUIRE(elements.size() <= UINT32_MAX,
                "publish_batch: batch too large for one commit");
  std::vector<StoreWrite> writes;
  writes.reserve(elements.size());
  for (std::size_t i = 0; i < elements.size(); ++i)
    writes.push_back({index_of_element(elements[i]), &elements[i],
                      static_cast<std::uint32_t>(i)});
  commit(writes);
}

bool SquidSystem::unpublish(const DataElement& element) {
  StoreWrite write{index_of_element(element), &element, 0, true};
  commit({&write, 1});
  return write.applied;
}

void SquidSystem::commit(std::span<StoreWrite> writes) {
  if (writes.empty()) return;
  std::sort(writes.begin(), writes.end(),
            [](const StoreWrite& a, const StoreWrite& b) {
              return a.index != b.index ? a.index < b.index : a.seq < b.seq;
            });
  const std::uint64_t merges_before = store_.stats().merges;
  store_.write_sorted(
      writes.size(), [&](std::size_t i) { return writes[i].index; },
      [&](std::size_t i, StoredKey& key) {
        StoreWrite& w = writes[i];
        auto& elements = key.elements;
        if (!w.retract) {
          if (elements.empty()) key.point = space_.encode(w.element->keys);
          if (place_element(elements, *w.element)) ++element_count_;
          w.applied = true;
          return;
        }
        const auto found = std::find(elements.begin(), elements.end(),
                                     *w.element);
        if (found == elements.end()) return;
        elements.erase(found);
        --element_count_;
        w.applied = true;
      },
      // The key vanishes with its last element: dropped from the store, or
      // tombstoned on the single-key path.
      [](const StoredKey& key) { return !key.elements.empty(); });

  if (!replica_cache_.empty()) {
    std::vector<u128> touched; // index-sorted, like `writes`
    for (const StoreWrite& w : writes)
      if (w.applied) touched.push_back(w.index);
    invalidate_replicas(touched);
  }
  if constexpr (obs::kEnabled) {
    std::uint64_t publishes = 0, unpublishes = 0, retracts = 0;
    for (const StoreWrite& w : writes) {
      publishes += !w.retract;
      retracts += w.retract;
      unpublishes += w.retract && w.applied;
    }
    const std::uint64_t merges = store_.stats().merges - merges_before;
    if (merges > 0) {
      static obs::Counter& counter =
          obs::Registry::global().counter("squid.store.merges");
      counter.add(merges);
    }
    if (publishes > 0) {
      static obs::Counter& counter =
          obs::Registry::global().counter("squid.system.publishes");
      counter.add(publishes);
    }
    if (unpublishes > 0) {
      static obs::Counter& counter =
          obs::Registry::global().counter("squid.system.unpublishes");
      counter.add(unpublishes);
    }
    if (retracts > 0) {
      static obs::Counter& counter =
          obs::Registry::global().counter("squid.system.retracts");
      counter.add(retracts);
    }
    if (telemetry_ != nullptr) record_writes(writes);
  }
}

void SquidSystem::record_writes(std::span<const StoreWrite> writes) {
  // `writes` is index-sorted, so the writes landing on one owner are
  // consecutive: one event per (owner run, kind), not per write.
  obs::QueryTelemetry events;
  NodeId owner = 0;
  std::uint64_t publishes = 0, retracts = 0;
  const auto close_run = [&] {
    events.record(owner, obs::LoadKind::kPublish, publishes, 0);
    events.record(owner, obs::LoadKind::kRetract, retracts, 0);
    publishes = retracts = 0;
  };
  for (const StoreWrite& w : writes) {
    if (!w.applied) continue;
    const NodeId o = owner_of(w.index);
    if (o != owner) close_run();
    owner = o;
    (w.retract ? retracts : publishes) += 1;
  }
  close_run();
  telemetry_->flush(events, 0);
}

// --- Hot-cluster replica cache (docs/LOAD_BALANCING.md) ---------------------

std::uint64_t SquidSystem::install_replica(unsigned level, u128 prefix,
                                           std::vector<NodeId> replicas) {
  SQUID_REQUIRE(!replicas.empty(), "install_replica: empty replica set");
  for (const NodeId r : replicas)
    SQUID_REQUIRE(ring_.contains(r), "install_replica: replica not a live peer");
  ReplicaEntry entry;
  entry.level = level;
  entry.prefix = prefix;
  entry.segment = refiner_.segment_of(sfc::ClusterNode{prefix, level});
  entry.replicas = std::move(replicas);
  const std::uint64_t id = next_replica_id_++;
  entry.id = id;
  replica_cache_.emplace(id, std::move(entry));
  obs::bump("squid.balance.replica.installs");
  return id;
}

bool SquidSystem::refresh_replica(std::uint64_t id) {
  const auto it = replica_cache_.find(id);
  if (it == replica_cache_.end()) return false;
  ReplicaEntry& entry = it->second;
  entry.valid = true;
  replica_counters_->refreshes.fetch_add(1, std::memory_order_relaxed);
  obs::bump("squid.balance.replica.refreshes");
  return true;
}

bool SquidSystem::drop_replica(std::uint64_t id) {
  return replica_cache_.erase(id) > 0;
}

bool SquidSystem::replica_valid(std::uint64_t id) const {
  const auto it = replica_cache_.find(id);
  return it != replica_cache_.end() && it->second.valid;
}

std::uint64_t SquidSystem::replica_serves(std::uint64_t id) const {
  const auto it = replica_cache_.find(id);
  return it != replica_cache_.end()
             ? it->second.serves->load(std::memory_order_relaxed)
             : 0;
}

SquidSystem::ReplicaCacheStats SquidSystem::replica_stats() const {
  ReplicaCacheStats stats;
  stats.serves = replica_counters_->serves.load(std::memory_order_relaxed);
  stats.stale_skips =
      replica_counters_->stale_skips.load(std::memory_order_relaxed);
  stats.invalidations =
      replica_counters_->invalidations.load(std::memory_order_relaxed);
  stats.refreshes =
      replica_counters_->refreshes.load(std::memory_order_relaxed);
  return stats;
}

const SquidSystem::ReplicaEntry* SquidSystem::replica_serving(
    const sfc::ClusterNode& cluster) const {
  const ReplicaEntry* best = nullptr;
  bool stale_only = false;
  const unsigned dims = curve_->dims();
  for (const auto& [id, entry] : replica_cache_) {
    if (cluster.level < entry.level) continue;
    // `cluster` descends from the entry's cluster iff dropping the extra
    // levels of its prefix reproduces the entry's prefix. A shift of >= 128
    // bits means the entry is so shallow it covers everything it matches.
    const unsigned shift = (cluster.level - entry.level) * dims;
    const u128 ancestor = shift >= 128 ? 0 : cluster.prefix >> shift;
    if (ancestor != entry.prefix) continue;
    if (!entry.valid) {
      stale_only = true;
      continue;
    }
    if (best == nullptr || entry.level > best->level) best = &entry;
  }
  if (best == nullptr && stale_only)
    replica_counters_->stale_skips.fetch_add(1, std::memory_order_relaxed);
  return best;
}

void SquidSystem::invalidate_replicas(std::span<const u128> touched) {
  for (auto& [id, entry] : replica_cache_) {
    if (!entry.valid) continue;
    const auto hit = std::lower_bound(touched.begin(), touched.end(),
                                      entry.segment.lo);
    if (hit == touched.end() || *hit > entry.segment.hi) continue;
    entry.valid = false;
    replica_counters_->invalidations.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) {
      static obs::Counter& invalidations = obs::Registry::global().counter(
          "squid.balance.replica.invalidations");
      invalidations.add(1);
    }
  }
}

std::size_t SquidSystem::keys_in_range(NodeId from, NodeId to) const {
  // Stored keys with index in the clockwise interval (from, to].
  if (store_.empty()) return 0;
  if (from < to) return store_.rank_after(to) - store_.rank_after(from);
  // Wrapped (or from == to: the whole ring).
  return (store_.size() - store_.rank_after(from)) + store_.rank_after(to);
}

std::optional<SquidSystem::NodeId> SquidSystem::median_split_id(
    NodeId s) const {
  if (ring_.size() < 1) return std::nullopt;
  const NodeId pred = ring_.size() == 1 ? s : ring_.predecessor_of(s);
  const std::size_t count =
      ring_.size() == 1 ? store_.size() : keys_in_range(pred, s);
  if (count < 2) return std::nullopt;
  // The median of the count keys in (pred, s]: a rank query plus one order
  // statistic, where the map walked the interval key by key.
  const std::size_t start = store_.rank_after(pred); // first key > pred
  const NodeId boundary = store_.kth((start + count / 2 - 1) % store_.size());
  if (boundary == pred || boundary == s || ring_.contains(boundary))
    return std::nullopt;
  return boundary;
}

std::size_t SquidSystem::load_of(NodeId id) const {
  if (ring_.size() == 1) return store_.size();
  return keys_in_range(ring_.predecessor_of(id), id);
}

std::vector<std::pair<SquidSystem::NodeId, std::size_t>>
SquidSystem::node_loads() const {
  std::vector<std::pair<NodeId, std::size_t>> loads;
  const auto ids = ring_.node_ids();
  loads.reserve(ids.size());
  for (const NodeId id : ids) loads.emplace_back(id, 0);
  if (loads.empty()) return loads;
  // Single sweep over the store: each key belongs to its successor node.
  auto it = loads.begin();
  std::size_t wrapped = 0; // keys past the last node wrap to the first
  store_.for_each([&](u128 index, const StoredKey&) {
    while (it != loads.end() && it->first < index) ++it;
    if (it == loads.end()) {
      ++wrapped;
    } else {
      ++it->second;
    }
  });
  loads.front().second += wrapped;
  return loads;
}

std::size_t SquidSystem::runtime_balance_sweep(double threshold) {
  SQUID_REQUIRE(threshold >= 1.0, "imbalance threshold must be >= 1");
  if (ring_.size() < 3 || store_.empty()) return 0;
  std::size_t moves = 0;
  // The k-th key clockwise after `after` (k >= 1), wrapping.
  const auto kth_key_after = [this](NodeId after, std::size_t k) {
    return store_.kth((store_.rank_after(after) + k - 1) % store_.size());
  };
  // Walk a snapshot of the ring; each step may move the *predecessor* of
  // the node under consideration, which never invalidates later snapshot
  // entries (only ids between predecessor-of-predecessor and node change).
  for (const NodeId id : ring_.node_ids()) {
    if (!ring_.contains(id)) continue; // moved away earlier in this sweep
    const NodeId pred = ring_.predecessor_of(id);
    const NodeId pred2 = ring_.predecessor_of(pred);
    if (pred == id || pred2 == pred) continue; // degenerate tiny ring
    const std::size_t load_self = keys_in_range(pred, id);
    const std::size_t load_pred = keys_in_range(pred2, pred);

    if (static_cast<double>(load_self) >
        threshold * static_cast<double>(std::max<std::size_t>(load_pred, 1))) {
      // This node is overloaded: the predecessor slides clockwise to absorb
      // the first half of the surplus (paper 3.5: "the most loaded nodes
      // give a part of their load to their neighbors").
      const std::size_t shed = (load_self - load_pred) / 2;
      if (shed == 0) continue;
      // The shed-th key in (pred, id].
      const NodeId boundary = kth_key_after(pred, shed);
      if (boundary == pred || ring_.contains(boundary)) continue;
      ring_.fail(pred); // the move is leave+rejoin in a real deployment
      ring_.add_node_exact(boundary);
      ++moves;
      ++balance_moves_;
      obs::bump("squid.balance.moves");
    } else if (static_cast<double>(load_pred) >
               threshold *
                   static_cast<double>(std::max<std::size_t>(load_self, 1))) {
      // The predecessor is overloaded: it slides counter-clockwise, shedding
      // its top keys to this node.
      const std::size_t shed = (load_pred - load_self) / 2;
      if (shed == 0) continue;
      // New boundary: the key `shed` positions before pred in (pred2, pred].
      const std::size_t keep = load_pred - shed;
      if (keep == 0) continue; // would empty the predecessor entirely
      const NodeId boundary = kth_key_after(pred2, keep);
      if (boundary == pred || ring_.contains(boundary)) continue;
      ring_.fail(pred);
      ring_.add_node_exact(boundary);
      ++moves;
      ++balance_moves_;
      obs::bump("squid.balance.moves");
    }
  }
  obs::bump("squid.balance.sweeps");
  return moves;
}

} // namespace squid::core
