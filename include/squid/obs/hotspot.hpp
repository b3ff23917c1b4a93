// Online hotspot detection over the telemetry series (DESIGN.md 4h).
//
// The EpochSampler (obs/telemetry.hpp) turns load into per-node, per-epoch
// windows; this detector watches those windows arrive and decides, online,
// which nodes are running hot. Per node it keeps an EWMA baseline of the
// epoch load total; a window exceeding `onset_factor` × baseline (and an
// absolute `min_load` floor, so idle-ring noise never triggers) raises a
// `hotspot.onset` event, and the node stays hot — with its baseline FROZEN,
// so the alarm does not adapt itself away mid-crowd — until a window falls
// back under `clear_factor` × baseline, which raises `hotspot.clear`.
//
// Events feed three consumers: the `squid.balance.hotspot.*` registry
// counters (onsets/clears/active), the Perfetto instant events on the
// load-series export (obs/export.hpp, write_load_perfetto), and the top-k
// hottest-node report the CLI and bench print (node → keyword prefix via
// Curve::point_of + KeywordSpace::decode is the caller's join). This is the
// observation half of ROADMAP's "metrics-driven adaptive hotspot
// management"; the reaction half (virtual-node split, replication) can now
// be built against detection latency that is actually measured
// (bench/ext_hotspot).
//
// Purely a consumer of closed epochs: feeding it never touches query
// execution, so the bit-transparency lock covers sampler + detector
// together.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "squid/obs/metrics.hpp"
#include "squid/obs/telemetry.hpp"
#include "squid/overlay/id_space.hpp"

namespace squid::obs {

struct HotspotConfig {
  double alpha = 0.3;        ///< EWMA smoothing for the per-node baseline
  double onset_factor = 3.0; ///< hot when load > onset_factor * baseline
  double clear_factor = 1.5; ///< clears when load <= clear_factor * baseline
  double min_load = 16.0;    ///< absolute floor: quiet nodes never trigger
};

struct HotspotEvent {
  enum class Kind : std::uint8_t { kOnset, kClear };
  Kind kind = Kind::kOnset;
  std::uint64_t epoch = 0;
  overlay::NodeId node = 0;
  double load = 0;     ///< the epoch total that triggered the transition
  double baseline = 0; ///< EWMA baseline at trigger time
};

const char* hotspot_event_name(HotspotEvent::Kind kind) noexcept;

/// The documented min_load calibration (docs/LOAD_BALANCING.md §4): raise
/// the absolute floor to `factor` × the p95 of per-node epoch totals over
/// the calibration window `series.epochs[0, through_epoch)`, so the steady
/// hum of a healthy ring can never trip the detector. `factor` comes from
/// `SquidConfig::hotspot_min_load_factor` (default 2.0) so the CLI and the
/// benches agree on the same floor. Returns `base` unchanged when the
/// window is empty.
double calibrated_min_load(double base, const LoadSeries& series,
                           std::uint64_t through_epoch, double factor);

class HotspotDetector {
public:
  /// `registry`: where the squid.balance.hotspot.* counters publish
  /// (default: the global registry).
  explicit HotspotDetector(HotspotConfig config = {},
                           Registry* registry = nullptr);

  const HotspotConfig& config() const noexcept { return config_; }

  /// Feed one closed epoch (must be fed in epoch order). Every node ever
  /// seen is re-evaluated — a hot node absent from this window counts as
  /// load 0 and clears. Returns the transitions this window triggered, in
  /// node-id order (also appended to events()). The reaction controller
  /// (core/reaction.hpp) reacts to this return value at epoch close.
  std::vector<HotspotEvent> observe(const EpochSample& sample);

  /// Whether `node` is currently flagged hot (false for unknown nodes).
  bool is_hot(overlay::NodeId node) const;

  /// The node's current EWMA baseline (frozen while hot; 0 for unknown
  /// nodes). The reaction controller's drain test compares absorbed replica
  /// demand against it.
  double baseline_of(overlay::NodeId node) const;

  /// Replay a whole series through observe(), in order.
  void observe_all(const LoadSeries& series);

  /// Every transition so far, in epoch order.
  const std::vector<HotspotEvent>& events() const noexcept { return events_; }

  /// Nodes currently flagged hot.
  std::size_t active() const noexcept { return active_; }

  struct HotNode {
    overlay::NodeId node = 0;
    double load = 0;     ///< last observed epoch total
    double baseline = 0;
    bool hot = false;
  };
  /// The k nodes with the highest last-window load, descending (ties by
  /// node id, so the report is deterministic).
  std::vector<HotNode> top_hot(std::size_t k) const;

  /// Epochs from `onset_epoch` (when the workload actually shifted) to the
  /// first hotspot.onset raised at or after it; nullopt if none fired yet.
  /// The detection-latency number BENCH_hotspot.json records.
  std::optional<std::uint64_t> detection_latency(
      std::uint64_t onset_epoch) const;

private:
  struct NodeState {
    double baseline = 0;
    double last_load = 0;
    bool hot = false;
  };

  HotspotConfig config_;
  Registry* registry_ = nullptr;
  std::vector<HotspotEvent> events_;
  std::map<overlay::NodeId, NodeState> nodes_;
  std::size_t active_ = 0;
};

} // namespace squid::obs
