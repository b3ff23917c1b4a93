// The three workloads of squid_e2e. Each builds its fixture, drives it
// through the public API for about opts.seconds, checks every answer, and
// fills the report: end-to-end metrics when opts.trace is false, per-layer
// metrics (spans into `spans`) when it is true.

#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "layers.hpp"

namespace e2e {

/// The update probe kw-crowd and q3-range run between query rounds, on a
/// second, identical fixture of their own so the measured store stays
/// static. Every batch is one lockstep apply_updates call that retracts and
/// republishes the same kElements pool elements from random origins, which
/// restores the content and repeats the same exact costs. Batches are timed
/// into wall->update (one position: the batch's best replay) and counted
/// into `exact`; every op must be delivered and applied.
class UpdateProbe {
public:
  static constexpr std::size_t kElements = 1000; ///< 2000 routed ops a batch
  static constexpr int kBatchesPerRound = 2;

  /// Draws the batch from `seed` and runs it once, untimed.
  UpdateProbe(std::unique_ptr<core::SquidSystem> sys,
              const std::vector<core::DataElement>& pool, std::uint64_t seed,
              const char* workload, Report& rep);

  void round(WallSamples* wall, ExactTotals& exact, LayerProbe* probe,
             Report& rep);
  /// The probe fixture, for the oracle pass after the last round.
  const core::SquidSystem& system() const noexcept { return *sys_; }

private:
  void batch(WallSamples* wall, ExactTotals* exact, LayerProbe* probe,
             Report& rep);

  std::unique_ptr<core::SquidSystem> sys_;
  std::vector<core::UpdateOp> ops_;
  const char* workload_;
};

/// 2-d keyword fixture (1000 nodes, 2·10^4 keys) replaying the flash-crowd
/// cycle with telemetry and the reaction controller attached.
Report run_kw_crowd(const Options& opts, SpanLog& spans);

/// 3-d grid-resource fixture (5400 nodes, 10^5 keys) replaying a fixed Q3
/// range-query list on a static store.
Report run_q3_range(const Options& opts, SpanLog& spans);

/// Geo moving objects (20 000 objects, 1000 nodes): per round, a rebuilt
/// world and four motion ticks of 40 000 routed updates, each followed by
/// bbox queries.
Report run_geo_motion(const Options& opts, SpanLog& spans);

} // namespace e2e
