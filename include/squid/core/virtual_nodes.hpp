// Virtual-node load balancing (paper 3.5, second runtime algorithm).
//
// Each physical peer hosts several virtual nodes (ring identifiers); the
// peer's load is the sum over its virtual nodes. When a virtual node's load
// crosses a threshold it splits in two; when a physical peer is overloaded
// it migrates virtual nodes to less-loaded peers (its neighbors or fingers
// in the paper — here a small random sample, which models the same limited
// view). Migration moves only the hosting assignment, so it is much cheaper
// than the identifier moves of the boundary-exchange algorithm.
//
// The split/migrate actions are exposed as primitives (split_virtual,
// migrate_heaviest) that the periodic balance_round sweep composes and
// callers can invoke directly.

#pragma once

#include <map>
#include <optional>
#include <vector>

#include "squid/core/system.hpp"

namespace squid::core {

class VirtualNodeManager {
public:
  /// Takes over topology management of `sys` (which must have an empty
  /// network): creates `physical_peers * virtuals_per_peer` virtual nodes
  /// with random identifiers and deals them out round-robin.
  VirtualNodeManager(SquidSystem& sys, std::size_t physical_peers,
                     unsigned virtuals_per_peer, Rng& rng);

  std::size_t physical_count() const noexcept { return physical_count_; }
  std::size_t virtual_count() const noexcept { return host_of_.size(); }

  /// Sum of virtual-node loads per physical peer.
  std::vector<std::size_t> physical_loads() const;

  // --- Primitives ---------------------------------------------------------

  /// Split virtual node `hot` at its median key: the new identifier takes
  /// the first half of `hot`'s keys as a fresh virtual node, hosted by the
  /// least-loaded of `probes` sampled peers (a cold peer under a crowd).
  /// This is balance_round's phase-1 step. Returns the new virtual node's
  /// id; nullopt when `hot` has too few keys or its median id is unusable.
  std::optional<SquidSystem::NodeId> split_virtual(SquidSystem::NodeId hot,
                                                   unsigned probes, Rng& rng);

  /// Move the heaviest virtual node hosted by `peer` to the least-loaded
  /// sampled peer, when that strictly lowers the gap. Only the hosting
  /// assignment changes — no keys or identifiers move. balance_round's
  /// phase-2 step. Returns true when a migration happened.
  bool migrate_heaviest(std::size_t peer, unsigned probes, Rng& rng);

  /// Peer hosting virtual node `id` (it must be one of ours).
  std::size_t host_of(SquidSystem::NodeId id) const;

  /// The full virtual → peer hosting map (split-determinism tests compare
  /// it across runs and shard counts).
  const std::map<SquidSystem::NodeId, std::size_t>& hosts() const noexcept {
    return host_of_;
  }

  /// One balancing round over the primitives above: split virtual nodes
  /// whose load exceeds `split_threshold` times the average virtual load,
  /// then migrate virtual nodes away from physical peers whose load exceeds
  /// `migrate_threshold` times the average physical load. Returns splits +
  /// migrations done.
  std::size_t balance_round(double split_threshold, double migrate_threshold,
                            Rng& rng);

  std::size_t splits() const noexcept { return splits_; }
  std::size_t migrations() const noexcept { return migrations_; }

private:
  std::size_t load_of_virtual(SquidSystem::NodeId id) const;
  /// The least-loaded of `probes` uniform draws (the paper's constant-size
  /// "neighbors or fingers" view; never a global argmin).
  std::size_t sample_cold_peer(const std::vector<std::size_t>& loads,
                               unsigned probes, Rng& rng) const;

  SquidSystem& sys_;
  std::size_t physical_count_;
  std::map<SquidSystem::NodeId, std::size_t> host_of_; ///< virtual -> peer
  std::size_t splits_ = 0;
  std::size_t migrations_ = 0;
};

} // namespace squid::core
