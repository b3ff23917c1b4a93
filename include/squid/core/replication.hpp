// Data replication and durability (paper 5: fault tolerance is called out
// as future work; this module supplies the standard DHT answer).
//
// Every key is replicated on its owner plus the next `factor - 1` distinct
// successors (the Chord/DHash scheme). Node failures drop copies; a key
// whose copies all die before repair runs is lost. Periodic repair
// re-replicates under-replicated keys and counts the transfer traffic, so
// the durability bench can sweep churn rate against replication factor.
//
// The manager mirrors SquidSystem's key population and tracks copy holders
// explicitly; the query engine itself keeps reading the logical store (a
// real deployment reads any live replica — completeness against *surviving*
// keys is what the durability experiments measure).

#pragma once

#include <map>
#include <set>

#include "squid/core/system.hpp"

namespace squid::core {

class ReplicationManager {
public:
  /// `factor` >= 1 copies per key. Call after the network and data exist.
  ReplicationManager(SquidSystem& sys, unsigned factor);

  unsigned factor() const noexcept { return factor_; }

  /// (Re)place every key on its current owner chain; full reset.
  void place_all();

  /// Membership hooks — call instead of mutating the system directly, or
  /// after doing so. on_fail drops the failed peer's copies *before* the
  /// ring forgets it; on_join/on_leave keep holder bookkeeping aligned.
  void fail_node(SquidSystem::NodeId id);

  /// Crash-triggered re-replication (docs/FAULT_MODEL.md): while enabled,
  /// fail_node immediately re-replicates exactly the keys that lost a copy
  /// on the crashed peer (targeted, unlike the full repair() sweep), as
  /// DHash's reactive maintenance does. Off by default so durability
  /// benches can still measure the pure periodic-repair regime.
  void set_auto_repair(bool on) noexcept { auto_repair_ = on; }
  bool auto_repair() const noexcept { return auto_repair_; }
  void leave_node(SquidSystem::NodeId id); ///< graceful: copies handed off
  SquidSystem::NodeId join_node(Rng& rng); ///< newcomer syncs its ranges

  /// One repair round: every surviving key gets re-replicated onto its
  /// current owner chain up to `factor` copies. Returns copies transferred
  /// (the repair traffic).
  std::size_t repair();

  /// Keys that currently have zero live copies (unrecoverable).
  std::size_t lost_keys() const;
  /// Keys below target replication (repair backlog).
  std::size_t under_replicated() const;
  /// Total live copies across all keys.
  std::size_t total_copies() const;
  std::size_t tracked_keys() const noexcept { return holders_.size(); }

  /// True when `key` still has at least one live copy.
  bool alive(u128 key) const;

private:
  /// The key's current owner plus its next factor() - 1 distinct ring
  /// successors (fewer on a smaller ring).
  std::vector<SquidSystem::NodeId> owner_chain(u128 key) const;

  SquidSystem& sys_;
  unsigned factor_;
  bool auto_repair_ = false;
  std::map<u128, std::set<SquidSystem::NodeId>> holders_;
};

} // namespace squid::core
