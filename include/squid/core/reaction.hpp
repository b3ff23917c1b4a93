// Detector-driven hotspot reaction (docs/LOAD_BALANCING.md): the loop that
// closes ROADMAP's "metrics-driven adaptive hotspot management".
//
// The observation half: the EpochSampler sees per-node load on the virtual
// clock and the HotspotDetector raises `hotspot.onset` / `hotspot.clear`
// transitions. This controller feeds the detector each closed epoch and
// reacts online to the transitions observe() returns:
//
//   onset  -> SPLIT the hot node at its median key (a new ring node at
//             SquidSystem::median_split_id). Only owner-side hotspots
//             split — a node whose epoch load is dominated by transit
//             routing gets no action, because its heat is a symptom of some
//             owner's crowd and disappears once that owner's cluster is
//             served;
//   still hot one epoch after the onset
//          -> REPLICATE the hot node's cluster: install it in the system's
//             replica cache (SquidSystem::install_replica) on sampled cold
//             peers; reads of the cluster are then served one hop away by
//             the replicas while the entry is valid, and a republish inside
//             the cluster invalidates it (a stale read is impossible);
//   clear  -> DRAIN: keep the entry serving (serving is precisely what
//             cooled the owner — dropping on clear would re-ignite it next
//             epoch and flap), and DROP it only once its per-epoch absorbed
//             demand falls to a fraction of its busiest epoch for two
//             consecutive windows (the crowd is actually gone). An onset
//             during the drain re-arms serving directly. A replica host
//             that leaves or fails the ring is replaced by another cold
//             peer at the next epoch close.
//
// The controller runs at epoch close — a safe point for query(),
// query_async and query_parallel alike — and is deterministic: the
// epoch series is mode-independent (commutative sums), detector transitions
// fire in node-id order, and the only randomness is the controller's own
// seeded RNG, so the same seed and workload yield the same splits and
// replica sets in every mode. Disabled (or never constructed) it performs
// no action and installs no entries, leaving every query bit-identical to
// detection-only operation (tests/core/reaction_test.cpp).

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/obs/hotspot.hpp"

namespace squid::core {

/// The controller's tuning (epochs before escalation, replica-set sizes,
/// split budget and surge gate, drain thresholds) is fixed: the named
/// constants at the top of src/core/reaction.cpp, tabled in
/// docs/LOAD_BALANCING.md.
struct ReactionConfig {
  /// Master switch: off = detection only, bit-identical to running without
  /// a controller.
  bool enabled = true;
};

/// What one on_epoch() call (or the whole run, via totals()) did.
struct ReactionReport {
  std::size_t onsets = 0;
  std::size_t clears = 0;
  std::size_t splits = 0;       ///< median-key splits triggered
  std::size_t replications = 0; ///< replica-cache entries installed
  std::size_t widens = 0;       ///< replica sets widened (hosts ran hot)
  std::size_t refreshes = 0;    ///< invalidated entries re-validated
  std::size_t drops = 0;        ///< drained entries dropped (demand gone)
};

class ReactionController {
public:
  using NodeId = SquidSystem::NodeId;

  /// Per-node reaction state machine (docs/LOAD_BALANCING.md §2):
  /// kCold -> (onset) kSplit -> (still hot) kReplicated -> (clear)
  /// kDraining -> (absorbed demand subsides for two windows) kCold; an
  /// onset while kDraining re-arms kReplicated. An entry left with no live
  /// host drops back to kSplit (or kCold once the node has cooled).
  enum class Phase : std::uint8_t { kCold, kSplit, kReplicated, kDraining };

  /// `detector_config.min_load` should already be calibrated
  /// (obs::calibrated_min_load with config().hotspot_min_load_factor).
  /// `seed` drives cold-peer sampling only.
  ReactionController(SquidSystem& sys, obs::HotspotConfig detector_config,
                     ReactionConfig config, std::uint64_t seed);

  /// Feed one closed epoch (in order): runs the detector, then reacts to
  /// the transitions it fired. Safe to call in any delivery mode — epoch
  /// close is a safe point (no query in flight touches the structures this
  /// mutates). With config().enabled false this is detection only.
  ReactionReport on_epoch(const obs::EpochSample& sample);

  const ReactionConfig& config() const noexcept { return config_; }
  const obs::HotspotDetector& detector() const noexcept { return detector_; }
  const ReactionReport& totals() const noexcept { return totals_; }
  Phase phase_of(NodeId node) const;
  /// The replica-cache entry serving `node`'s cluster (0 unless
  /// kReplicated).
  std::uint64_t entry_of(NodeId node) const;

private:
  struct NodeState {
    Phase phase = Phase::kCold;
    std::uint64_t onset_epoch = 0;
    std::uint64_t entry = 0; ///< replica cache id while kReplicated/kDraining
    std::uint64_t last_serves = 0; ///< entry serve count at last epoch close
    std::uint64_t peak_absorbed = 0; ///< busiest epoch the entry ever served
    unsigned quiet_epochs = 0; ///< consecutive drain epochs that passed
    std::vector<NodeId> hosts;  ///< peers hosting the entry (hosted_ refs)
    sfc::ClusterNode cluster;   ///< the served cluster (for re-install)
  };

  /// The deepest refinement-tree cluster covering the keys `node` owns —
  /// the cluster id replica-cache entries are keyed by.
  sfc::ClusterNode covering_cluster(NodeId node) const;
  /// Up to `count` distinct COLD peers to serve `node`'s cluster,
  /// chosen by power-of-d-choices sampling (a few candidates per slot,
  /// fewest hosted entries then lowest detector baseline wins, hot nodes
  /// excluded). Not the ring successors: a crowd heats a contiguous ring
  /// segment, so successors of a hot owner are usually hot themselves.
  /// Draws from the controller RNG.
  std::vector<NodeId> cold_replicas(NodeId node, unsigned count);
  void react_onset(const obs::HotspotEvent& event, const obs::LoadVector& load,
                   ReactionReport& report);
  void react_clear(const obs::HotspotEvent& event, ReactionReport& report);
  void escalate(const obs::EpochSample& sample, ReactionReport& report);
  /// Widen the entry's replica set while its hosts run hot (borrowed load
  /// — the remedy is more hosts, not reacting to the host's own cluster).
  void maybe_widen(NodeId node, NodeState& state, ReactionReport& report);
  /// Replace hosts that left or failed the ring with cold peers and
  /// re-install the entry. With no live host left, drop the entry and
  /// return false: the node goes back to kSplit while still hot, so its
  /// next hot epoch re-escalates, or to kCold once it has cooled.
  bool replace_departed(NodeId node, NodeState& state);
  /// Re-key the entry onto state.hosts (drop + install; the serve counter
  /// starts over, peak_absorbed survives).
  void reinstall(NodeState& state);

  SquidSystem& sys_;
  ReactionConfig config_;
  obs::HotspotDetector detector_;
  Rng rng_;
  std::map<NodeId, NodeState> states_;
  /// EWMA of the ring-wide epoch load total, frozen while any node is hot;
  /// react_onset's split gate compares the current epoch against it.
  double ring_baseline_ = 0;
  bool ring_surge_ = false; ///< this epoch's total cleared the split gate
  /// Live replica-cache entries each peer currently hosts. The placement
  /// key in cold_replicas (fewest first) — without it the globally coldest
  /// peers win every sample and the crowd re-concentrates on them — and
  /// the react_onset guard against reacting to borrowed load.
  std::map<NodeId, unsigned> hosted_;
  std::size_t splits_done_ = 0;
  ReactionReport totals_;
};

} // namespace squid::core
