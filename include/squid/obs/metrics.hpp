// Process-wide metrics registry (DESIGN.md 4c).
//
// Named counters, gauges, and fixed-bucket histograms (built on the
// stats::Summary module's Histogram) that long-lived subsystems publish
// into: the query engine, ChordRing maintenance (stabilization, finger
// repairs, membership merges), the ReplicationManager, and the load
// balancers. Naming scheme: `squid.<subsystem>.<metric>`, dot-separated,
// lowercase (the full inventory is tabulated in DESIGN.md 4c).
//
// Hot-path cost: a counter increment is one relaxed atomic add on a
// pre-resolved pointer (resolve once via a function-local static); safe
// under the concurrent const readers of parallel_query_test. With
// SQUID_OBS_ENABLED defined to 0 every increment compiles to nothing.

#pragma once

#ifndef SQUID_OBS_ENABLED
#define SQUID_OBS_ENABLED 1
#endif

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "squid/stats/summary.hpp"

namespace squid::obs {

/// True when the observability layer is compiled in (-DSQUID_OBS=OFF at
/// configure time defines SQUID_OBS_ENABLED=0 and turns every recording
/// site into dead code).
inline constexpr bool kEnabled = SQUID_OBS_ENABLED != 0;

/// Monotonic event counter.
class Counter {
public:
  void add(std::uint64_t n = 1) noexcept {
    if constexpr (kEnabled) value_.fetch_add(n, std::memory_order_relaxed);
    else (void)n;
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
public:
  void set(double v) noexcept {
    if constexpr (kEnabled) value_.store(v, std::memory_order_relaxed);
    else (void)v;
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram plus running moments. Buckets are the
/// stats::Summary module's Histogram ([lo, hi) split evenly, out-of-range
/// clamps to the edge buckets). observe() takes a lock — histogram sites
/// are per-query / per-repair, not per-hop.
class HistogramMetric {
public:
  HistogramMetric(double lo, double hi, std::size_t buckets)
      : histogram_(lo, hi, buckets) {}

  void observe(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    std::vector<std::uint64_t> buckets;
    std::vector<double> bucket_lo; ///< parallel lower bounds
  };
  Snapshot snapshot() const;
  void reset();

private:
  mutable std::mutex mutex_;
  Histogram histogram_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Name -> metric map. `global()` is the process-wide instance every
/// subsystem publishes into; tests and benches may also build private
/// registries. Registration is mutex-guarded and idempotent (same name
/// returns the same object); handles stay valid for the registry's life,
/// so hot paths resolve once and increment through the reference.
class Registry {
public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Idempotent for a given name; the bucket geometry of the first
  /// registration wins.
  HistogramMetric& histogram(std::string_view name, double lo, double hi,
                             std::size_t buckets);

  /// Zero every metric (benches isolate phases with this; registration
  /// survives so cached handles stay valid). Also clears the
  /// snapshot_delta baseline: the window restarts at zero.
  void reset();

  struct CounterRow {
    std::string name;
    std::uint64_t value;
  };
  struct GaugeRow {
    std::string name;
    double value;
  };
  struct HistogramRow {
    std::string name;
    HistogramMetric::Snapshot snapshot;
  };
  struct Snapshot {
    std::vector<CounterRow> counters;     ///< sorted by name
    std::vector<GaugeRow> gauges;         ///< sorted by name
    std::vector<HistogramRow> histograms; ///< sorted by name
  };
  Snapshot snapshot() const;

  /// Windowed counter read: each counter's value minus the retained
  /// baseline from the previous snapshot_delta (or construction/reset),
  /// then rebaseline — so consecutive calls partition the counter stream
  /// into non-overlapping windows. The shared windowing primitive of the
  /// EpochSampler (obs/telemetry.hpp) and `squid_cli heatmap`. Counters
  /// registered since the last call report their full value. Concurrent
  /// increments are safe: each relaxed add lands in exactly one window
  /// (value reads are atomic; the baseline map is mutex-guarded). Only
  /// counters whose window moved are returned, sorted by name.
  std::vector<CounterRow> snapshot_delta();

private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  /// snapshot_delta baselines (same keys as counters_); missing = 0.
  std::map<std::string, std::uint64_t, std::less<>> baseline_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>>
      histograms_;
};

/// Add `n` to the global counter `name`: a registry lookup per call, so for
/// cold paths only (hot paths keep a function-local static handle). Dead
/// code with the obs layer compiled out.
inline void bump(std::string_view name, std::uint64_t n = 1) {
  if constexpr (kEnabled) {
    Registry::global().counter(name).add(n);
  } else {
    (void)name;
    (void)n;
  }
}

} // namespace squid::obs
