#include "squid/core/replication.hpp"

#include "squid/obs/metrics.hpp"
#include "squid/util/require.hpp"

namespace squid::core {

ReplicationManager::ReplicationManager(SquidSystem& sys, unsigned factor)
    : sys_(sys), factor_(factor) {
  SQUID_REQUIRE(factor >= 1, "replication factor must be at least 1");
  SQUID_REQUIRE(sys.ring().size() >= 1, "network must exist before replication");
  place_all();
}

std::vector<SquidSystem::NodeId> ReplicationManager::owner_chain(
    u128 key) const {
  std::vector<SquidSystem::NodeId> chain;
  const auto& ring = sys_.ring();
  SquidSystem::NodeId at = ring.successor_of(key);
  for (unsigned i = 0; i < factor_ && chain.size() < ring.size(); ++i) {
    chain.push_back(at);
    at = ring.successor_of((at + 1) & ring.id_mask());
  }
  return chain;
}

void ReplicationManager::place_all() {
  holders_.clear();
  sys_.for_each_key([&](u128 index, const sfc::Point&,
                        const std::vector<DataElement>&) {
    const auto chain = owner_chain(index);
    holders_[index] = std::set<SquidSystem::NodeId>(chain.begin(),
                                                    chain.end());
  });
}

void ReplicationManager::fail_node(SquidSystem::NodeId id) {
  // The peer's copies vanish with it. With auto-repair on, remember which
  // keys just lost a copy so the crash handler can re-replicate exactly
  // those instead of sweeping the whole store.
  std::vector<u128> dirty;
  for (auto& [key, owners] : holders_) {
    if (owners.erase(id) > 0 && auto_repair_ && !owners.empty())
      dirty.push_back(key);
  }
  sys_.fail_node(id);
  if (!auto_repair_ || dirty.empty()) return;
  // Reactive maintenance (DHash-style): a surviving holder detects the
  // crash and pushes fresh copies along the key's current owner chain.
  std::size_t transfers = 0;
  for (const u128 key : dirty) {
    auto& owners = holders_[key];
    for (const auto node : owner_chain(key)) {
      if (owners.size() >= factor_) break;
      if (owners.insert(node).second) ++transfers;
    }
  }
  if constexpr (obs::kEnabled) {
    auto& registry = obs::Registry::global();
    registry.counter("squid.replication.crash_repairs").add(1);
    registry.counter("squid.replication.crash_transfers").add(transfers);
  } else {
    (void)transfers;
  }
}

void ReplicationManager::leave_node(SquidSystem::NodeId id) {
  // Graceful departure: the peer hands each copy to the key's next live
  // owner before leaving (one transfer per held key, not counted as repair
  // traffic — the departing peer pays it).
  sys_.leave_node(id);
  for (auto& [key, owners] : holders_) {
    if (owners.erase(id) == 0) continue;
    if (owners.empty()) owners.insert(sys_.ring().successor_of(key));
  }
}

SquidSystem::NodeId ReplicationManager::join_node(Rng& rng) {
  const auto id = sys_.join_node(rng);
  // The newcomer immediately syncs the ranges it now owns (or backs up)
  // from its successors — standard DHT join transfer. Holder sets gain the
  // newcomer wherever it belongs to a key's chain.
  for (auto& [key, owners] : holders_) {
    if (owners.empty()) continue; // lost; nothing to sync from
    const auto chain = owner_chain(key);
    for (const auto node : chain) {
      if (node == id) {
        owners.insert(id);
        break;
      }
    }
  }
  return id;
}

std::size_t ReplicationManager::repair() {
  if constexpr (obs::kEnabled)
    obs::Registry::global().counter("squid.replication.repairs").add(1);
  std::size_t transfers = 0;
  for (auto& [key, owners] : holders_) {
    if (owners.empty()) continue; // unrecoverable
    const auto chain = owner_chain(key);
    for (const auto node : chain) {
      if (owners.size() >= factor_) break;
      if (owners.insert(node).second) ++transfers;
    }
    // Drop copies on peers no longer in the chain once fully replicated
    // (garbage collection of stale replicas).
    if (owners.size() > factor_) {
      std::set<SquidSystem::NodeId> in_chain(chain.begin(), chain.end());
      for (auto it = owners.begin(); it != owners.end();) {
        if (!in_chain.count(*it) && owners.size() > factor_) {
          it = owners.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  if constexpr (obs::kEnabled) {
    obs::Registry::global()
        .counter("squid.replication.transfers")
        .add(transfers);
    obs::Registry::global()
        .gauge("squid.replication.lost_keys")
        .set(static_cast<double>(lost_keys()));
  }
  return transfers;
}

std::size_t ReplicationManager::lost_keys() const {
  std::size_t lost = 0;
  for (const auto& [key, owners] : holders_) lost += owners.empty();
  return lost;
}

std::size_t ReplicationManager::under_replicated() const {
  std::size_t low = 0;
  for (const auto& [key, owners] : holders_)
    low += (!owners.empty() && owners.size() < factor_);
  return low;
}

std::size_t ReplicationManager::total_copies() const {
  std::size_t copies = 0;
  for (const auto& [key, owners] : holders_) copies += owners.size();
  return copies;
}

bool ReplicationManager::alive(u128 key) const {
  const auto it = holders_.find(key);
  return it != holders_.end() && !it->second.empty();
}

} // namespace squid::core
