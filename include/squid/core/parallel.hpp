// Sharded multi-core message runtime (DESIGN.md 4f).
//
// kLockstep replays a query's planning on one private engine; kVirtualTime
// interleaves queries on one shared clock — both single-threaded. This
// layer partitions the node space across S shards, gives each shard a
// worker thread with a private sim::Engine, and runs queries with REAL
// parallelism while keeping every per-query answer bit-equal to the
// sequential modes:
//
//   * Planning is sequential per query, on its HOME shard (the shard of
//     its origin node). All order-sensitive work — routing, fault
//     verdicts, dispatch budget, cache consults, timing-DAG events, every
//     non-scan span — happens there at delay 0, so the home engine's FIFO
//     replays exactly the lockstep planning order. Scans never feed back
//     into planning state, so diverting them cannot perturb it.
//   * ScanRequests hand off to the shard owning the scanned node (the
//     coordinator/executor split of YTsaurus' CoordinateAndExecute) and
//     sweep the immutable key store into PRIVATE ScanBuffers, one per
//     posted scan. The home shard absorbs buffers in scan-post order at
//     finalize — the same absorb the sequential modes run at delivery —
//     reconstructing the exact lockstep element order, stats, and span
//     multiset no matter how shard threads interleaved.
//   * Fault verdicts stay deterministic because each query gets its own
//     injector forked from the base plan by submit index (sim::fork_plan);
//     Engine::admit on the home engine remains the single choke point.
//   * Cross-shard messages move through ShardMailbox queues via a
//     HandoffStager: jobs accumulate in per-destination staging buffers
//     and flush in batches at safe points (after each engine step /
//     drained batch), so the mailbox lock is amortized and intra-shard
//     work never touches it.
//
// With cache_cluster_owners on, planning is additionally serialized in
// submit order across shards (query k+1's planning launches only when k's
// planning finishes — scans still overlap), because consecutive queries
// couple through the owner cache; the mailbox mutex carries the
// happens-before. The differential suite (tests/core/
// parallel_differential_test.cpp) locks all of this against kLockstep over
// the full config matrix at S ∈ {1, 2, 4}, faults off and on.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "squid/core/messages.hpp"
#include "squid/core/runtime.hpp"
#include "squid/core/types.hpp"
#include "squid/keyword/space.hpp"
#include "squid/sim/fault.hpp"
#include "squid/util/rng.hpp"

namespace squid::core {

class SquidSystem; // core/system.hpp

/// The node -> shard map: a pure function of (node id, shard count) — no
/// membership state — so the assignment is trivially stable across joins,
/// crashes, and rejoins, and any two parties compute it identically
/// (tests/core/shard_map_test.cpp). splitmix64 over the folded id spreads
/// ring-adjacent nodes across shards.
inline unsigned shard_of_node(overlay::NodeId id, unsigned shards) noexcept {
  std::uint64_t mix = static_cast<std::uint64_t>(id) ^
                      static_cast<std::uint64_t>(id >> 64);
  return static_cast<unsigned>(splitmix64(mix) % shards);
}

class ParallelExecutor;

/// Executor-owned per-query state; QueryExec::par points here while the
/// query runs under kParallel.
struct ParallelQueryState {
  std::size_t index = 0; ///< submit index; the fault-stream fork key
  unsigned home = 0;     ///< home shard: planning + finalize run here
  std::shared_ptr<QueryExec> exec;
  /// Forked per-query injector (set only when the run has a fault plan);
  /// attached to the home engine for this query's planning drain.
  std::optional<sim::FaultInjector> injector;
  /// One slot per posted scan, in post order (== the lockstep execution
  /// order among scans). Deque: growing it never moves filled slots out
  /// from under executor threads holding ScanBuffer pointers.
  std::deque<ScanBuffer> scans;
  std::atomic<std::size_t> scans_outstanding{0};
  std::atomic<bool> planning_done{false};
  std::atomic<bool> finalize_staged{false};
  bool planning_hook_ran = false; ///< home-thread-only idempotence guard
  ParallelExecutor* executor = nullptr;
};

/// One unit of cross-shard work. kLaunch starts a query's planning on its
/// home shard; kScan executes one handed-off store sweep; kFinalize absorbs
/// scan buffers and completes the query (home shard again).
struct ShardJob {
  enum class Kind : std::uint8_t { kLaunch, kScan, kFinalize };
  Kind kind = Kind::kScan;
  ParallelQueryState* query = nullptr;
  ScanBuffer* buffer = nullptr; ///< kScan only
  msg::ScanRequest scan;        ///< kScan only
};

/// A shard's inbox: a mutex-guarded vector drained whole, so one lock
/// round-trip moves a batch of jobs. Senders batch on their side too
/// (HandoffStager); the queue preserves push order end to end.
class ShardMailbox {
public:
  void push(ShardJob job);
  /// Append `batch` in order (one lock), leaving it empty.
  void push_batch(std::vector<ShardJob>& batch);
  /// Block until jobs arrive or the mailbox closes; returns the whole
  /// pending queue (empty only when closed). `idle_waits`, when non-null,
  /// is bumped every time the worker actually goes to sleep.
  std::vector<ShardJob> drain_wait(std::uint64_t* idle_waits);
  /// Non-blocking drain into `out` (appending). Returns jobs taken.
  std::size_t try_drain(std::vector<ShardJob>& out);
  void close();

private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ShardJob> jobs_;
  bool closed_ = false;
};

/// Per-destination-shard staging for cross-shard handoff: jobs accumulate
/// lock-free in the sender's private buffers and flush as one batch per
/// destination at safe points, or earlier when a buffer reaches
/// `batch_limit`. Staging preserves per-destination FIFO order, so
/// resharding a pending stream re-partitions it stably
/// (tests/core/shard_map_test.cpp).
class HandoffStager {
public:
  HandoffStager(std::vector<ShardMailbox>& inboxes, unsigned self,
                std::size_t batch_limit);
  /// Stage one job for the shard owning `dest`.
  void stage(overlay::NodeId dest, ShardJob job);
  /// Push every staged batch to its mailbox (in shard order).
  void flush();
  std::uint64_t handoffs() const noexcept { return handoffs_; }

private:
  std::vector<ShardMailbox>* inboxes_;
  std::vector<std::vector<ShardJob>> staging_;
  unsigned self_ = 0;
  std::size_t limit_ = 16;
  std::uint64_t handoffs_ = 0; ///< jobs staged for a different shard
};

/// One query of a parallel batch.
struct ParallelQuerySpec {
  keyword::Query query;
  overlay::NodeId origin = 0;
  /// When set, the query runs as an aggregation pushdown (DESIGN.md 4g):
  /// scan shards fold partials, finalize merges them up the dispatch tree.
  std::optional<AggregateSpec> aggregate;
};

struct ParallelOptions {
  unsigned shards = 2;
  /// Staging flush threshold (jobs per destination before an early push).
  std::size_t handoff_batch = 16;
  /// When set, query k runs under an injector built from
  /// fork_plan(*faults, k). Not owned.
  const sim::FaultPlan* faults = nullptr;
};

/// Per-query injector tallies, reported so harnesses can compare the
/// parallel fault streams draw-for-draw against a sequential replay.
struct ParallelFaultTallies {
  std::uint64_t rng_draws = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
};

struct ParallelRun {
  std::vector<QueryResult> results; ///< one per spec, in submit order
  std::vector<ParallelFaultTallies> faults; ///< empty without a fault plan
};

/// The shard fleet: S worker threads, each owning a private engine and
/// inbox. One-shot: construct, run(specs), destroy. SquidSystem::
/// query_parallel wraps exactly that.
class ParallelExecutor {
public:
  ParallelExecutor(const SquidSystem& sys, ParallelOptions opts);
  ~ParallelExecutor();
  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  ParallelRun run(const std::vector<ParallelQuerySpec>& specs);

private:
  friend void parallel_post_scan(QueryExec& ex, msg::ScanRequest scan);
  friend void parallel_planning_finished(
      const std::shared_ptr<QueryExec>& exec);

  struct Shard;

  void worker(unsigned shard);
  void execute(Shard& sh, ShardJob& job);
  void launch(Shard& sh, ParallelQueryState& q);
  void finalize(ParallelQueryState& q);
  void stage_finalize(ParallelQueryState& q);

  const SquidSystem* sys_;
  ParallelOptions opts_;
  bool serialize_planning_ = false; ///< owner cache couples queries
  const std::vector<ParallelQuerySpec>* specs_ = nullptr;
  std::deque<ParallelQueryState> states_;
  std::vector<ShardMailbox> inboxes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> remaining_{0};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

// NodeRuntime's kParallel seams (src/core/runtime.cpp calls these).
void parallel_post_scan(QueryExec& ex, msg::ScanRequest scan);
void parallel_planning_finished(const std::shared_ptr<QueryExec>& exec);

} // namespace squid::core
