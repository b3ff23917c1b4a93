// Traced-run per-layer accounting (squid_e2e --trace 1).
//
// Counts come from each QueryResult::trace (the library's virtual-clock
// span tree: refine descents, prunes, cluster dispatches, route hops, local
// scans, aggregation merges). Wall-clock figures come from the benchmark
// replaying each layer's public function on the same inputs, outside the
// timed query() / apply_updates() call:
//
//   keyword   KeywordSpace::to_rect(query)
//   sfc       ClusterRefiner::decompose_capped(rect, 4096), sampled
//   overlay   ChordRing::route(path front -> dest) per traced route span,
//             and route(origin -> key) per update op
//   store     SquidSystem::for_each_key sweep per round
//   codec     element_wire_size over the answer; save_message/load_message
//             of one Reply per query and each op's Publish/RetractRequest
//   runtime   sim::Engine schedule+run of one no-op action per message
//
// Timers inside the library are a later change; until then
// `unattributed_frac` is the share of query() time the replays do not
// account for. Every timed call is also kept as a span in memory and
// written at exit (SpanLog).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "squid/core/reaction.hpp"
#include "squid/obs/telemetry.hpp"

namespace e2e {

/// The benchmark's own spans: one per timed call into a layer's public
/// function (traced run only). Kept in memory and written at exit as
/// Chrome/Perfetto trace-event JSON. Capped so a long run cannot exhaust
/// memory; the overflow is counted and reported.
class SpanLog {
public:
  static constexpr std::size_t kCap = 200000;

  /// Record a closed span; returns its id (or -1 once the cap is hit).
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent, std::uint64_t op);
  std::size_t size() const noexcept { return spans_.size(); }
  std::size_t dropped() const noexcept { return dropped_; }
  /// Write the log; returns false when the file cannot be written.
  bool write(const std::string& path, const std::string& process) const;

private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t op;
  };
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

class LayerProbe {
public:
  explicit LayerProbe(SpanLog& spans) : spans_(spans) {}

  /// One traced query, timed inside query() over [t0, t1).
  void on_query(const core::SquidSystem& sys, const keyword::Query& query,
                const core::QueryResult& result, std::int64_t t0,
                std::int64_t t1);
  /// One lockstep apply_updates batch, timed over [t0, t1).
  void on_updates(const core::SquidSystem& sys,
                  const std::vector<core::UpdateOp>& ops,
                  const core::UpdateRun& run, std::int64_t t0,
                  std::int64_t t1);
  /// Round boundaries: store sweep, merge and delta-tier figures.
  void begin_round(const core::SquidSystem& sys);
  void end_round(const core::SquidSystem& sys);

  /// Telemetry and reaction timings measured by the workload itself (the
  /// kw-crowd epoch close and ReactionController::on_epoch calls).
  void add_epoch_close(std::int64_t start_ns, std::int64_t end_ns);
  void add_on_epoch(std::int64_t start_ns, std::int64_t end_ns);

  /// For workloads that run no sampler (q3-range, geo-motion): feed a
  /// private EpochSampler from every traced scan and route span, and let
  /// replay_epoch() close one epoch of it per round and pass the sample to
  /// a detection-only ReactionController bound to `sys`. Both calls are
  /// timed, so every workload reports the telemetry layer's cost on its own
  /// traffic without attaching telemetry to the measured system. Calling
  /// it again restarts the replay (a new system, or a new cycle).
  void enable_epoch_replay();
  void replay_epoch(core::SquidSystem& sys);

  struct Reaction {
    std::uint64_t splits = 0;
    std::uint64_t replications = 0;
    std::uint64_t replica_serves = 0;
    std::uint64_t stale_skips = 0;
  };
  void add_reaction(const Reaction& r);

  /// Emit every per-layer metric. `overhead_frac` is the traced/untraced
  /// query-time ratio minus one, measured by the workload on identical
  /// inputs; `epoch_note` says where the obs/reaction timings came from.
  void report(Report& out, double overhead_frac,
              const std::string& epoch_note) const;

private:
  SpanLog& spans_;
  std::uint64_t queries_ = 0;
  std::int64_t query_ns_ = 0;
  std::int64_t to_rect_ns_ = 0;
  std::uint64_t decomposed_ = 0; ///< queries sampled for decompose_capped
  std::int64_t decompose_ns_ = 0;
  std::uint64_t segments_ = 0;
  std::uint64_t descends_ = 0;
  std::uint64_t prunes_ = 0;
  std::uint64_t route_hops_ = 0;
  std::uint64_t routes_ = 0;        ///< replayed ChordRing::route calls
  std::int64_t route_ns_ = 0;       ///< ... their total time
  std::int64_t query_route_ns_ = 0; ///< the part replayed from query spans
  std::uint64_t keys_scanned_ = 0;
  std::uint64_t keys_matched_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t dispatched_clusters_ = 0;
  std::uint64_t merges_ = 0;
  std::int64_t wire_size_ns_ = 0;
  std::int64_t encode_ns_ = 0;
  std::int64_t decode_ns_ = 0;
  std::uint64_t codec_bytes_ = 0;
  std::int64_t engine_ns_ = 0;
  std::uint64_t engine_events_ = 0;
  std::int64_t sweep_ns_ = 0;
  std::uint64_t swept_keys_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t merges_at_begin_ = 0;
  std::uint64_t store_merges_ = 0;
  std::uint64_t delta_size_sum_ = 0;
  std::uint64_t update_ops_ = 0;
  std::uint64_t update_frames_ = 0;
  std::uint64_t update_retries_ = 0;
  std::int64_t epoch_close_ns_ = 0;
  std::uint64_t epoch_closes_ = 0;
  std::int64_t on_epoch_ns_ = 0;
  std::uint64_t on_epochs_ = 0;
  Reaction reaction_;

  // Epoch replay state (enable_epoch_replay).
  std::unique_ptr<obs::EpochSampler> sampler_;
  std::unique_ptr<core::ReactionController> controller_;
  const core::SquidSystem* controller_sys_ = nullptr;
  std::uint64_t replay_epoch_ = 0;
};

} // namespace e2e
