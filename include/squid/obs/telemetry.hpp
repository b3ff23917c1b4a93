// Virtual-time telemetry pipeline (DESIGN.md 4h).
//
// PR 3's registry answers "how much, process-wide, since start"; this layer
// answers "where and WHEN on the virtual clock": an EpochSampler buckets
// per-node load events into fixed-width virtual-time epochs and emits
// *windowed deltas* — a time series of compact per-node LoadVectors plus
// registry counter deltas — instead of cumulative totals. The series feeds
// the ring-space heatmap/imbalance exporters (obs/export.hpp) and the
// online hotspot detector (obs/hotspot.hpp).
//
// Bit-transparency contract: recording is purely passive. A query's load
// events accumulate in a private per-query scratch (QueryTelemetry, engaged
// by SquidSystem::set_telemetry) and flush into the sampler exactly once,
// at finalize — the same safe point in every delivery mode, including each
// query_parallel worker's own queries. No recording site draws RNG,
// changes control flow, or touches QueryStats, so sampling
// on/off cannot perturb results (tests/obs/telemetry_differential_test.cpp
// locks this over the 9-config matrix × all delivery modes × faults).
// Epoch totals are sums of commutative counter additions, so they are
// identical no matter which worker flushed first.
//
// Zero-cost when disabled: every engine-side site is gated on QueryExec's
// telemetry pointer, which is a constexpr nullptr with SQUID_OBS_ENABLED=0
// (same pattern as the trace pointer); system-side sites sit under
// `if constexpr (obs::kEnabled)`. The sampler itself compiles but records
// nothing.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "squid/obs/metrics.hpp"
#include "squid/overlay/id_space.hpp"
#include "squid/sim/engine.hpp"

namespace squid::obs {

/// Compact per-node load fingerprint for one epoch window. Fields are the
/// load classes the paper's balancing story cares about: where data is
/// matched, who carries transit traffic, where writes land, who answers
/// from cache, and who pays reply bandwidth.
struct LoadVector {
  std::uint64_t scan_hits = 0;         ///< keys matched by local scans here
  std::uint64_t routes_through = 0;    ///< routing legs traversing this node
  std::uint64_t publishes = 0;         ///< elements stored at this owner
  std::uint64_t retracts = 0;          ///< elements removed at this owner
  std::uint64_t cache_hits = 0;        ///< owner-cache hits consulted here
  std::uint64_t replies_forwarded = 0; ///< reply frames sent from this node

  std::uint64_t total() const noexcept {
    return scan_hits + routes_through + publishes + retracts + cache_hits +
           replies_forwarded;
  }
  LoadVector& operator+=(const LoadVector& o) noexcept {
    scan_hits += o.scan_hits;
    routes_through += o.routes_through;
    publishes += o.publishes;
    retracts += o.retracts;
    cache_hits += o.cache_hits;
    replies_forwarded += o.replies_forwarded;
    return *this;
  }
  friend bool operator==(const LoadVector& a, const LoadVector& b) noexcept {
    return a.scan_hits == b.scan_hits && a.routes_through == b.routes_through &&
           a.publishes == b.publishes && a.retracts == b.retracts &&
           a.cache_hits == b.cache_hits &&
           a.replies_forwarded == b.replies_forwarded;
  }
};

/// Which LoadVector field one event contributes to.
enum class LoadKind : std::uint8_t {
  kScanHit,
  kRouteThrough,
  kPublish,
  kRetract,
  kCacheHit,
  kReplyForwarded,
};

/// One recorded load event: node × kind × weight at a virtual-clock tick
/// *relative to the query's start* (the sampler rebases at flush).
struct LoadEvent {
  overlay::NodeId node = 0;
  LoadKind kind = LoadKind::kScanHit;
  std::uint64_t n = 0;
  sim::Time tick = 0;
};

/// Per-query scratch the engine's recording sites append into. Engaged on a
/// QueryExec only while a sampler is attached to the system; flushed into
/// the sampler once, at finalize (the per-mode safe point). Appending never
/// reads or writes any query state — that is the bit-transparency lever.
struct QueryTelemetry {
  std::vector<LoadEvent> events;

  void record(overlay::NodeId node, LoadKind kind, std::uint64_t n,
              sim::Time tick) {
    if (n == 0) return;
    events.push_back(LoadEvent{node, kind, n, tick});
  }
};

/// One closed epoch window: [start, end) ticks of per-node load, plus the
/// registry counter deltas sampled when the window closed (empty for
/// windows materialized at finish() without an advance_to crossing).
struct EpochSample {
  std::uint64_t epoch = 0;
  sim::Time start = 0;
  sim::Time end = 0;
  /// Sorted by node id (ring order) — the heatmap's row order.
  std::vector<std::pair<overlay::NodeId, LoadVector>> nodes;
  /// Windowed registry counter deltas (Registry::snapshot_delta), sorted by
  /// name. Only counters that moved during the window appear.
  std::vector<Registry::CounterRow> counter_deltas;

  LoadVector total() const noexcept {
    LoadVector sum;
    for (const auto& [node, v] : nodes) sum += v;
    return sum;
  }
};

/// The materialized time series: every epoch from 0 through the last one
/// that saw load (contiguous; quiet epochs appear with empty node lists).
struct LoadSeries {
  sim::Time epoch_ticks = 1;
  unsigned id_bits = 0; ///< ring id width; exporters normalize positions
  std::vector<EpochSample> epochs;
};

/// The telemetry hub: buckets flushed query events into virtual-time
/// epochs and snapshots registry counter deltas at epoch boundaries.
///
/// Clocking: the sampler keeps its own virtual clock (`now`), advanced by
/// the harness at safe points (between query batches / engine drains) via
/// advance_to. A query's events land at `max(now-at-flush, started_at) +
/// event tick` — lockstep queries (private engines pinned near 0) ride the
/// harness clock, while query_async/virtual-time queries carry their honest
/// shared-clock start. Both are deterministic: flush order cannot move
/// totals (commutative sums) and `now` only changes under harness control.
///
/// Thread safety: flush/record_now/advance_to take one mutex —
/// query_parallel workers flush concurrently. Determinism does not depend
/// on flush order.
class EpochSampler {
public:
  /// `registry`: source of counter deltas (default: the global registry).
  /// A retained baseline is taken at construction so the first window's
  /// deltas exclude earlier history.
  explicit EpochSampler(sim::Time epoch_ticks, Registry* registry = nullptr);

  sim::Time epoch_ticks() const noexcept { return epoch_ticks_; }
  /// Ring id width for the heatmap's normalized positions (set once by
  /// SquidSystem::set_telemetry; harmless to leave 0 for private use).
  void set_id_bits(unsigned bits) noexcept { id_bits_ = bits; }
  unsigned id_bits() const noexcept { return id_bits_; }

  /// Fold one query's recorded events in (called by the engine at
  /// finalize). `started_at`: the query engine clock at launch.
  void flush(const QueryTelemetry& telemetry, sim::Time started_at);

  /// Record a non-query event (publish sites) at the sampler's current
  /// virtual time.
  void record_now(overlay::NodeId node, LoadKind kind, std::uint64_t n);

  /// Advance the sampler clock, closing every fully crossed epoch boundary
  /// in order (each closure snapshots the registry's windowed counter
  /// deltas). Call at safe points only — never while queries are in
  /// flight on a parallel executor. Monotonic; earlier times are ignored.
  void advance_to(sim::Time now);

  sim::Time now() const;

  /// Close the open window and materialize the full series (epoch 0 through
  /// the last epoch that saw load or a boundary). The sampler keeps
  /// accumulating afterwards; finish() may be called repeatedly and always
  /// reports everything since construction.
  LoadSeries finish();

private:
  /// Caller holds mu_. Snapshot counter deltas for every boundary crossed
  /// by moving the clock to `t`.
  void close_through(sim::Time t);

  mutable std::mutex mu_;
  sim::Time epoch_ticks_ = 1;
  unsigned id_bits_ = 0;
  Registry* registry_ = nullptr;
  sim::Time now_ = 0;
  std::uint64_t closed_epochs_ = 0; ///< epochs with counter deltas taken
  /// epoch -> node -> accumulated load. Sparse; materialized at finish().
  std::map<std::uint64_t, std::map<overlay::NodeId, LoadVector>> load_;
  /// Counter deltas per closed epoch (only entries that moved).
  std::map<std::uint64_t, std::vector<Registry::CounterRow>> deltas_;
};

} // namespace squid::obs
