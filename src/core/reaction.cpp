#include "squid/core/reaction.hpp"

#include <algorithm>
#include <tuple>

#include "squid/obs/metrics.hpp"

namespace squid::core {

namespace {

/// Epochs a node must stay continuously hot after its onset before the
/// controller escalates from splitting to replication.
constexpr unsigned kReplicateAfter = 1;
/// Initial replica peers serving a hot cluster (sampled cold peers — see
/// cold_replicas for why NOT the ring successors). Clients spread across
/// the whole set (the dispatch pick hashes the query origin), so a wider
/// set flattens the served load further at the cost of more peers
/// carrying borrowed load.
constexpr unsigned kReplicaFactor = 8;
/// Adaptive widening cap: while any host of a served entry runs hot itself
/// (borrowed load — the detector watches hosts like any node), the
/// maintenance pass adds cold hosts per epoch, up to this many, splitting
/// the served demand further.
constexpr unsigned kReplicaMax = 32;
/// Candidate peers sampled per replica slot (cold_replicas).
constexpr unsigned kColdProbes = 4;
/// Total split budget: caps the split cascade a broad crowd can trigger.
/// Deliberately small — a split only pays off when ONE owner holds the
/// whole hot region (each new node lengthens every route a little, and a
/// split half that inherits the crowd fires its own onset next epoch); a
/// crowd heating many owners at once is replication's job.
constexpr unsigned kSplitBudget = 4;
/// A split adds CAPACITY (one more node), so onsets only split while the
/// ring-wide epoch load runs at least this factor over its pre-surge
/// baseline (EWMA, frozen while any node is hot — mirroring the detector's
/// own freeze). A flash crowd multiplies aggregate volume and passes; a
/// constant-volume shift (a diurnal focus relocation) merely moves demand
/// between owners, where a split would lengthen every route for nothing —
/// replication redistributes it instead.
constexpr double kSplitSurgeFactor = 2.0;
/// Draining: consecutive epochs the entry's absorbed demand must stay
/// under the drop threshold before the entry is actually dropped.
/// Hysteresis against one quiet window mid-crowd.
constexpr unsigned kDrainEpochs = 2;
/// Draining: the entry is droppable once its per-epoch absorbed demand
/// falls to this fraction of the peak epoch it ever served. Entry-local on
/// purpose: the detector's thresholds are in TOTAL-load units (routing
/// included) while absorbed demand is scan-only, and a broad crowd spread
/// over many owners passes a total-load clear test while the crowd is
/// still in full swing.
constexpr double kDrainFraction = 0.25;
/// Draining: absolute "demand gone" floor, in owner scan-hit units (covers
/// entries whose peak was itself tiny).
constexpr double kDrainFloor = 16.0;

/// The node's LoadVector in this window (zero if it sat idle).
obs::LoadVector node_load(const obs::EpochSample& sample,
                          overlay::NodeId node) {
  const auto it = std::lower_bound(
      sample.nodes.begin(), sample.nodes.end(), node,
      [](const auto& entry, overlay::NodeId n) { return entry.first < n; });
  return it != sample.nodes.end() && it->first == node ? it->second
                                                       : obs::LoadVector{};
}

} // namespace

ReactionController::ReactionController(SquidSystem& sys,
                                       obs::HotspotConfig detector_config,
                                       ReactionConfig config,
                                       std::uint64_t seed)
    : sys_(sys), config_(config), detector_(detector_config), rng_(seed) {}

sfc::ClusterNode ReactionController::covering_cluster(NodeId node) const {
  // The keys `node` owns live in the wrapped ring interval (pred, node].
  // The replica entry is keyed by the deepest refinement-tree cluster whose
  // segment contains that interval: the longest common dims-bit-aligned
  // prefix of its endpoints. A wrapped interval crosses the ring origin and
  // has no covering cluster except the root; serve [0, node] instead — the
  // wrapped tail stays on routing, which is merely less offload, never
  // wrong.
  const auto& ring = sys_.ring();
  const NodeId pred = ring.size() <= 1 ? node : ring.predecessor_of(node);
  u128 lo = pred < node ? static_cast<u128>(pred) + 1 : 0;
  const u128 hi = node;
  const unsigned dims = sys_.curve().dims();
  const unsigned index_bits = sys_.curve().index_bits();
  const unsigned max_level = index_bits / dims;
  unsigned level = 0;
  for (unsigned l = max_level; l >= 1; --l) {
    const unsigned shift = index_bits - l * dims;
    if (shift >= 128) continue;
    if ((lo >> shift) == (hi >> shift)) {
      level = l;
      break;
    }
  }
  const unsigned shift = index_bits - level * dims;
  const u128 prefix = (level == 0 || shift >= 128) ? 0 : hi >> shift;
  return sfc::ClusterNode{prefix, level};
}

std::vector<ReactionController::NodeId>
ReactionController::cold_replicas(NodeId node, unsigned count) {
  // Power-of-d-choices placement: per replica slot, sample kColdProbes
  // candidates and serve from the coldest (lowest detector baseline; never
  // a currently-hot node). The obvious alternative — the
  // owner's ring successors, as in Chord durability chains — backfires
  // here: a flash crowd heats a CONTIGUOUS ring segment (the SFC maps the
  // hot keyword prefix to one interval), so a hot owner's successors are
  // usually fellow crowd victims, and shedding onto them concentrates load
  // instead of spreading it.
  const auto& ring = sys_.ring();
  std::vector<NodeId> replicas;
  // Fewest-hosted-entries first, detector baseline as the tiebreak: rank
  // purely by baseline and the globally coldest peers win every sample,
  // stacking many entries — and the whole crowd's served demand — onto the
  // same few hosts, which then heat up themselves.
  const auto hosted = [this](NodeId n) {
    const auto it = hosted_.find(n);
    return it != hosted_.end() ? it->second : 0u;
  };
  for (unsigned slot = 0; slot < count; ++slot) {
    NodeId best = 0;
    bool found = false;
    for (unsigned probe = 0; probe < kColdProbes; ++probe) {
      const NodeId cand = ring.random_node(rng_);
      if (cand == node || detector_.is_hot(cand)) continue;
      if (std::find(replicas.begin(), replicas.end(), cand) != replicas.end())
        continue;
      const auto key = [&](NodeId n) {
        return std::make_tuple(hosted(n), detector_.baseline_of(n), n);
      };
      if (!found || key(cand) < key(best)) {
        best = cand;
        found = true;
      }
    }
    if (found) replicas.push_back(best);
  }
  return replicas;
}

void ReactionController::react_onset(const obs::HotspotEvent& event,
                                     const obs::LoadVector& load,
                                     ReactionReport& report) {
  ++report.onsets;
  NodeState& state = states_[event.node];
  state.onset_epoch = event.epoch;
  if (state.phase == Phase::kReplicated) return; // already at max escalation
  if (state.phase == Phase::kDraining) {
    // The crowd came back mid-drain: the entry is still installed and
    // serving, so just re-arm it.
    state.phase = Phase::kReplicated;
    return;
  }
  // Borrowed load gets no action: a replica host's heat IS the served
  // demand this controller placed on it — splitting or replicating its own
  // (cold) data reacts to the wrong cluster and cascades. It cools when
  // the entries it hosts drain.
  if (hosted_.count(event.node) != 0 && hosted_[event.node] > 0) return;
  // Transit-dominated heat gets no direct action: a node hot on
  // routes-through carries some *other* owner's crowd, and splitting or
  // replicating its own (cold) data would only add nodes. It cools by
  // itself once the responsible owner's cluster is served.
  if (load.scan_hits + load.publishes < load.routes_through) return;
  state.phase = Phase::kSplit;
  if (splits_done_ >= kSplitBudget) return;
  // Capacity responses need a capacity problem: without a ring-wide volume
  // surge this onset is demand RELOCATED (e.g. a diurnal focus shift), and
  // escalation to replication redistributes it without growing the ring.
  if (!ring_surge_) return;
  // Split the hot node at its median key: the new identifier takes over
  // the lower half of its keys.
  if (const auto median = sys_.median_split_id(event.node)) {
    sys_.add_node_at(*median);
    ++splits_done_;
    ++report.splits;
    obs::bump("squid.balance.reaction.splits");
  }
}

void ReactionController::react_clear(const obs::HotspotEvent& event,
                                     ReactionReport& report) {
  ++report.clears;
  const auto it = states_.find(event.node);
  if (it == states_.end()) return;
  NodeState& state = it->second;
  if (state.phase == Phase::kReplicated && state.entry != 0) {
    // The owner cooled BECAUSE the replicas are serving its cluster —
    // dropping the entry now would re-ignite it next epoch (flapping).
    // Drain instead: keep serving and let escalate() drop the entry once
    // the absorbed demand itself subsides. last_serves deliberately stays
    // at the previous epoch close so the clearing epoch's serves still
    // count as demand.
    state.phase = Phase::kDraining;
    return;
  }
  state = NodeState{};
}

void ReactionController::maybe_widen(NodeId node, NodeState& state,
                                     ReactionReport& report) {
  // Adaptive widening: a host running hot is carrying borrowed load
  // (react_onset deliberately takes no action on it) — the remedy lives
  // here, with the entry that loaded it: add more cold hosts so the
  // dispatch pick splits the served demand further.
  bool host_hot = false;
  for (const NodeId host : state.hosts)
    host_hot = host_hot || detector_.is_hot(host);
  if (!host_hot || state.hosts.size() >= kReplicaMax) return;
  // Doubling, not linear growth: a crowd big enough to heat fresh hosts
  // through an epoch of serving shrinks per-host load by at most 2x per
  // widen, so +kReplicaFactor converges a multi-epoch lag behind it.
  const unsigned grow = static_cast<unsigned>(
      std::max<std::size_t>(kReplicaFactor, state.hosts.size()));
  std::size_t added = 0;
  for (const NodeId extra : cold_replicas(node, grow)) {
    if (state.hosts.size() >= kReplicaMax) break;
    if (std::find(state.hosts.begin(), state.hosts.end(), extra) !=
        state.hosts.end())
      continue;
    state.hosts.push_back(extra);
    ++hosted_[extra];
    ++added;
  }
  if (added == 0) return;
  reinstall(state);
  ++report.widens;
  obs::bump("squid.balance.reaction.widens");
}

void ReactionController::reinstall(NodeState& state) {
  // The serve counter starts over with the new entry; peak_absorbed
  // survives so the drain yardstick still remembers the crowd's height.
  sys_.drop_replica(state.entry);
  state.entry = sys_.install_replica(state.cluster.level, state.cluster.prefix,
                                     state.hosts);
  state.last_serves = 0;
}

bool ReactionController::replace_departed(NodeId node, NodeState& state) {
  // A host that left or failed the ring cannot answer (dispatch_clusters
  // skips it), and it never runs hot, so maybe_widen would never replace
  // it: an entry whose hosts all departed would serve nothing while its
  // owner stays hot. Swap departed hosts for cold peers here.
  const auto& ring = sys_.ring();
  const auto live = [&ring](NodeId host) { return ring.contains(host); };
  // Partition, not remove_if: the tail must hold the departed hosts
  // themselves, whose hosted_ counts are the ones to lower.
  const auto first_gone =
      std::stable_partition(state.hosts.begin(), state.hosts.end(), live);
  const auto gone = static_cast<unsigned>(state.hosts.end() - first_gone);
  if (gone == 0) return true;
  for (auto it = first_gone; it != state.hosts.end(); ++it) {
    const auto hit = hosted_.find(*it);
    if (hit != hosted_.end() && hit->second > 0) --hit->second;
  }
  state.hosts.erase(first_gone, state.hosts.end());
  for (const NodeId fresh : cold_replicas(node, gone)) {
    if (std::find(state.hosts.begin(), state.hosts.end(), fresh) !=
        state.hosts.end())
      continue;
    state.hosts.push_back(fresh);
    ++hosted_[fresh];
  }
  if (!state.hosts.empty()) {
    reinstall(state);
    return true;
  }
  sys_.drop_replica(state.entry);
  const bool hot = detector_.is_hot(node);
  const std::uint64_t onset = state.onset_epoch;
  state = NodeState{};
  if (hot) {
    state.phase = Phase::kSplit;
    state.onset_epoch = onset;
  }
  return false;
}

void ReactionController::escalate(const obs::EpochSample& sample,
                                  ReactionReport& report) {
  const std::uint64_t epoch = sample.epoch;
  for (auto& [node, state] : states_) {
    if (state.phase == Phase::kSplit) {
      // A split that did not cool the node within kReplicateAfter epochs
      // escalates to replication: serve its cluster's reads from sampled
      // cold peers.
      if (!detector_.is_hot(node)) continue;
      if (epoch < state.onset_epoch + kReplicateAfter) continue;
      const std::vector<NodeId> replicas = cold_replicas(node, kReplicaFactor);
      if (replicas.empty()) continue;
      const sfc::ClusterNode cluster = covering_cluster(node);
      state.entry =
          sys_.install_replica(cluster.level, cluster.prefix, replicas);
      state.phase = Phase::kReplicated;
      state.last_serves = 0; // fresh entry: serve counter starts at zero
      state.hosts = replicas;
      state.cluster = cluster;
      for (const NodeId host : replicas) ++hosted_[host];
      ++report.replications;
      obs::bump("squid.balance.reaction.replications");
      continue;
    }
    if (state.entry == 0 || !replace_departed(node, state)) continue;
    if (state.phase == Phase::kReplicated) {
      // Republished data invalidated the entry: re-validate it while the
      // node is still hot, so serving resumes next epoch.
      if (detector_.is_hot(node) && !sys_.replica_valid(state.entry)) {
        sys_.refresh_replica(state.entry);
        ++report.refreshes;
        obs::bump("squid.balance.reaction.refreshes");
      }
      // Keep the serve-counter window one epoch wide, so a clear arriving
      // next epoch drains against the demand absorbed SINCE this close —
      // and remember the busiest epoch as the drain test's yardstick.
      const std::uint64_t serves = sys_.replica_serves(state.entry);
      state.peak_absorbed =
          std::max(state.peak_absorbed, serves - state.last_serves);
      state.last_serves = serves;
      maybe_widen(node, state, report);
    } else if (state.phase == Phase::kDraining) {
      // Drop only once the crowd is actually gone, judged by the entry's
      // OWN demand history (replica_serves counts matched keys — the
      // scan_hits the owner would have recorded): the per-epoch absorbed
      // demand must fall to kDrainFraction of the entry's busiest epoch
      // (or under the absolute kDrainFloor) for kDrainEpochs consecutive
      // windows. Deliberately NOT the detector's clear test: its
      // thresholds are in total-load units (routing included), which a
      // broad crowd spread over many owners passes while still in full
      // swing — the entry-local ratio is the signal that actually tracks
      // the crowd. Anything weaker flaps: serving is precisely what keeps
      // the owner cold.
      const std::uint64_t serves = sys_.replica_serves(state.entry);
      const std::uint64_t absorbed = serves - state.last_serves;
      state.last_serves = serves;
      state.peak_absorbed = std::max(state.peak_absorbed, absorbed);
      const double threshold = std::max(
          kDrainFloor,
          kDrainFraction * static_cast<double>(state.peak_absorbed));
      if (static_cast<double>(absorbed) <= threshold) {
        if (++state.quiet_epochs >= kDrainEpochs) {
          sys_.drop_replica(state.entry);
          for (const NodeId host : state.hosts) {
            const auto hit = hosted_.find(host);
            if (hit != hosted_.end() && hit->second > 0) --hit->second;
          }
          state = NodeState{};
          ++report.drops;
          obs::bump("squid.balance.reaction.drops");
        }
      } else {
        // Still absorbing a live crowd — the drain is nominal (the OWNER
        // cooled, which is the point), so the entry keeps getting the same
        // maintenance a kReplicated one does, including widening.
        state.quiet_epochs = 0;
        maybe_widen(node, state, report);
      }
    }
  }
}

ReactionReport ReactionController::on_epoch(const obs::EpochSample& sample) {
  ReactionReport report;
  const std::vector<obs::HotspotEvent> fired = detector_.observe(sample);
  if (!config_.enabled) {
    // Detection only: count what fired, touch nothing (the
    // bit-transparency differential runs in this mode).
    for (const obs::HotspotEvent& event : fired)
      (event.kind == obs::HotspotEvent::Kind::kOnset ? report.onsets
                                                     : report.clears) += 1;
    totals_.onsets += report.onsets;
    totals_.clears += report.clears;
    return report;
  }
  // The split gate's view of ring-wide volume: is this epoch's aggregate
  // load a genuine surge over the pre-surge baseline, or the same demand
  // relocated? Frozen while any node is hot, like the detector's per-node
  // baselines, so a long crowd cannot adapt the gate away.
  double ring_total = 0;
  for (const auto& [node, load] : sample.nodes)
    ring_total += static_cast<double>(load.total());
  ring_surge_ = ring_baseline_ > 0 &&
                ring_total > kSplitSurgeFactor * ring_baseline_;
  if (detector_.active() == 0) {
    const double alpha = detector_.config().alpha;
    ring_baseline_ = alpha * ring_total + (1.0 - alpha) * ring_baseline_;
  }
  for (const obs::HotspotEvent& event : fired) {
    if (event.kind == obs::HotspotEvent::Kind::kOnset)
      react_onset(event, node_load(sample, event.node), report);
    else
      react_clear(event, report);
  }
  escalate(sample, report);
  totals_.onsets += report.onsets;
  totals_.clears += report.clears;
  totals_.splits += report.splits;
  totals_.replications += report.replications;
  totals_.widens += report.widens;
  totals_.refreshes += report.refreshes;
  totals_.drops += report.drops;
  return report;
}

ReactionController::Phase ReactionController::phase_of(NodeId node) const {
  const auto it = states_.find(node);
  return it != states_.end() ? it->second.phase : Phase::kCold;
}

std::uint64_t ReactionController::entry_of(NodeId node) const {
  const auto it = states_.find(node);
  return it != states_.end() && it->second.phase == Phase::kReplicated
             ? it->second.entry
             : 0;
}

} // namespace squid::core
