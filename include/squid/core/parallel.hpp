// Batch execution on worker threads (DESIGN.md 4f).
//
// query_parallel and the update plane (apply_updates) share one shape: a
// pool of worker threads claims item indices from an atomic counter and
// runs each item start to finish, writing only that item's own result
// slot. A query runs the same lockstep path query() runs, on a fresh
// private engine at clock 0, so every answer is bit-equal to query() by
// construction: no per-query state is shared between threads, and which
// thread ran which query can never change a reported number.
//
// What threads do share is const system state plus the few writers that
// are already thread-safe: the telemetry sampler's flush (one mutex), the
// replica serve counters and the metrics registry (atomics). With
// cache_cluster_owners on, queries couple through the owner cache (query
// k+1 may read what query k wrote), so the pool runs one worker in submit
// order and the run equals the same queries issued one by one.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "squid/core/aggregate.hpp"
#include "squid/core/types.hpp"
#include "squid/keyword/space.hpp"
#include "squid/sim/fault.hpp"

namespace squid::core {

/// Run fn(0) .. fn(count - 1) on `workers` threads (the caller's thread is
/// one of them), each index exactly once. Indices are claimed in ascending
/// order from a shared counter, so with one worker they run in order on
/// the caller's thread. `fn` must be safe to call concurrently for
/// distinct indices. If fn throws, no further index is claimed, every
/// thread is joined, and the first exception is rethrown here.
void for_each_index(unsigned workers, std::size_t count,
                    const std::function<void(std::size_t)>& fn);

/// One query of a parallel batch.
struct ParallelQuerySpec {
  keyword::Query query;
  overlay::NodeId origin = 0;
  /// When set, the query runs as an aggregation pushdown (DESIGN.md 4g),
  /// exactly as query_aggregate would run it.
  std::optional<AggregateSpec> aggregate;
};

struct ParallelOptions {
  /// Worker threads (>= 1). The pool uses one when cache_cluster_owners
  /// is on (see file comment).
  unsigned shards = 2;
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

} // namespace squid::core
