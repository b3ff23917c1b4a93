// Detector-driven hotspot reaction (docs/LOAD_BALANCING.md): the loop that
// closes ROADMAP's "metrics-driven adaptive hotspot management".
//
// PR 8 shipped the observation half — the EpochSampler sees per-node load on
// the virtual clock and the HotspotDetector raises `hotspot.onset` /
// `hotspot.clear` transitions. This controller subscribes to those events
// (HotspotDetector::set_sink, the event bus out of the detector) and reacts
// online, per closed epoch:
//
//   onset  -> SPLIT the hot node at its median key (a new ring node at
//             SquidSystem::median_split_id). Only owner-side hotspots
//             split — a node whose epoch load is dominated by transit
//             routing gets no action, because its heat is a symptom of some
//             owner's crowd and disappears once that owner's cluster is
//             served;
//   still hot after `replicate_after` epochs
//          -> REPLICATE the hot node's cluster: install it in the system's
//             replica cache (SquidSystem::install_replica) on sampled cold
//             peers; reads of the cluster are then served one hop away by
//             the replicas while the entry is valid, and a republish inside
//             the cluster invalidates it (a stale read is impossible);
//   clear  -> DRAIN: keep the entry serving (serving is precisely what
//             cooled the owner — dropping on clear would re-ignite it next
//             epoch and flap), and DROP it only once its per-epoch absorbed
//             demand falls to drain_fraction of its busiest epoch for
//             drain_epochs consecutive windows (the crowd is actually
//             gone). An onset during the drain re-arms serving directly.
//
// The controller runs at epoch close — a safe point in all three delivery
// modes (kLockstep / kVirtualTime / kParallel) — and is deterministic: the
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

struct ReactionConfig {
  /// Master switch: off = detection only (the PR 8 behavior), bit-identical
  /// to running without a controller.
  bool enabled = true;
  /// Epochs a node must stay continuously hot after its onset before the
  /// controller escalates from splitting to replication.
  unsigned replicate_after = 1;
  /// Initial replica peers serving a hot cluster (sampled cold peers — see
  /// cold_replicas for why NOT the ring successors). Clients spread across
  /// the whole set (the dispatch pick hashes the query origin), so a wider
  /// set flattens the served load further at the cost of more peers
  /// carrying borrowed load.
  unsigned replica_factor = 8;
  /// Adaptive widening cap: while any host of a served entry runs hot
  /// itself (borrowed load — the detector watches hosts like any node),
  /// the maintenance pass adds replica_factor more cold hosts per epoch,
  /// up to this many, splitting the served demand further.
  unsigned replica_max = 32;
  /// Candidate peers sampled per replica slot (cold_replicas).
  unsigned cold_probes = 4;
  /// Total split budget: caps the split cascade a broad crowd can trigger.
  /// Deliberately small — a split only pays off when ONE owner holds the
  /// whole hot region (each new node lengthens every route a little, and a
  /// split half that inherits the crowd fires its own onset next epoch);
  /// a crowd heating many owners at once is replication's job.
  unsigned split_budget = 4;
  /// A split adds CAPACITY (one more node), so onsets only split while the
  /// ring-wide epoch load runs at least this factor over its pre-surge
  /// baseline (EWMA, frozen while any node is hot — mirroring the
  /// detector's own freeze). A flash crowd multiplies aggregate volume and
  /// passes; a constant-volume shift (a diurnal focus relocation) merely
  /// moves demand between owners, where a split would lengthen every route
  /// for nothing — replication redistributes it instead.
  double split_surge_factor = 2.0;
  /// Re-validate an invalidated entry at epoch close while its node is
  /// still hot (off: the entry stays cold until the crowd clears).
  bool refresh_invalidated = true;
  /// Draining: consecutive epochs the entry's absorbed demand must stay
  /// under the drop threshold before the entry is actually dropped.
  /// Hysteresis against one quiet window mid-crowd.
  unsigned drain_epochs = 2;
  /// Draining: the entry is droppable once its per-epoch absorbed demand
  /// falls to this fraction of the peak epoch it ever served. Entry-local
  /// on purpose: the detector's thresholds are in TOTAL-load units
  /// (routing included) while absorbed demand is scan-only, and a broad
  /// crowd spread over many owners passes a total-load clear test while
  /// the crowd is still in full swing.
  double drain_fraction = 0.25;
  /// Draining: absolute "demand gone" floor, in owner scan-hit units
  /// (covers entries whose peak was itself tiny).
  double drain_floor = 16.0;
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
  /// kDraining -> (absorbed demand subsides for drain_epochs windows)
  /// kCold; an onset while kDraining re-arms kReplicated.
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

  /// Replay a whole series through on_epoch, in order.
  ReactionReport on_series(const obs::LoadSeries& series);

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
  /// chosen by power-of-d-choices sampling (cold_probes candidates per
  /// slot, lowest detector baseline wins, hot nodes excluded). Not the ring
  /// successors: a crowd heats a contiguous ring segment, so successors of
  /// a hot owner are usually hot themselves. Draws from the controller RNG.
  std::vector<NodeId> cold_replicas(NodeId node, unsigned count);
  void react_onset(const obs::HotspotEvent& event, const obs::LoadVector& load,
                   ReactionReport& report);
  void react_clear(const obs::HotspotEvent& event, ReactionReport& report);
  void escalate(const obs::EpochSample& sample, ReactionReport& report);
  /// Widen the entry's replica set while its hosts run hot (borrowed load
  /// — the remedy is more hosts, not reacting to the host's own cluster).
  void maybe_widen(NodeId node, NodeState& state, ReactionReport& report);

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
  std::vector<obs::HotspotEvent> pending_; ///< sink buffer, drained per epoch
  std::size_t splits_done_ = 0;
  ReactionReport totals_;
};

} // namespace squid::core
