// The routed update plane (DESIGN.md 4j): first-class publish/retract as
// protocol frames, routed and fault-judged like query legs.
//
// A moving object is a retract-then-publish pair per move; an update-heavy
// workload is a stream of such ops issued from arbitrary peers. This plane
// turns each op into a PublishRequest/RetractRequest frame
// (core/messages.hpp, wire round-trip in serialize.cpp), routes it from its
// origin to the key's owner through the Chord ring, judges every message
// leg at the uniform fault choke point (sim::Engine::admit — same retry +
// exponential-backoff discipline as query legs), and delivers it. Ops are
// planned on a pool of `shards` worker threads (core/parallel.hpp), each
// op start to finish on one worker; one worker plans them in order on the
// caller's thread.
//
// Every op's frame arrives at its own arrival tick (route hops plus the
// leg's fault penalty), which is its completed_at.
//
// Determinism contract (the store differential lock rests on all three):
//   1. Fault verdicts are a pure function of (plan, submit index): every
//      op's legs are judged by an injector forked from the base plan by its
//      seq (sim::fork_plan), at virtual time 0, whichever worker plans it.
//   2. Delivered frames COMMIT to the store after planning, as one sorted
//      pass that runs each key's ops in submit order — never mid-flight,
//      so concurrent planning can neither race the store nor reorder the
//      writes to any key.
//   3. Therefore every per-op result (verdict, cost, completed_at), the
//      makespan, the final store state — and every query result computed
//      from it — are bit-identical across worker counts and thread
//      interleavings, and the store equals applying the delivered subset
//      directly.
//
// Commits go through SquidSystem's one store writer, the same one behind
// publish/unpublish, carrying the curve index each op's plan computed. It
// invalidates hot-cluster replicas before apply_updates returns (a retract
// can never leave a stale replica serving — docs/LOAD_BALANCING.md), and
// telemetry/metrics fire at the owner, once per batch
// (squid.system.publishes / unpublishes / retracts, epoch-sampler kPublish
// / kRetract load).

#pragma once

#include <cstdint>
#include <vector>

#include "squid/core/types.hpp"
#include "squid/overlay/id_space.hpp"
#include "squid/sim/engine.hpp"

namespace squid::sim {
struct FaultPlan; // sim/fault.hpp
}

namespace squid::core {

class SquidSystem;

/// One routed index mutation, issued from `origin`.
struct UpdateOp {
  enum class Kind { kPublish, kRetract };
  Kind kind = Kind::kPublish;
  DataElement element;
  overlay::NodeId origin = 0;

  static UpdateOp publish(DataElement element, overlay::NodeId origin) {
    return {Kind::kPublish, std::move(element), origin};
  }
  static UpdateOp retract(DataElement element, overlay::NodeId origin) {
    return {Kind::kRetract, std::move(element), origin};
  }
};

/// Per-op outcome. `delivered` is the wire verdict (route found AND the
/// frame survived its fault legs); `applied` is the store verdict (a
/// delivered retract of an element the owner no longer holds is delivered
/// but not applied).
struct UpdateResult {
  bool delivered = false;
  bool applied = false;
  std::size_t hops = 0;     ///< overlay route length origin -> owner
  std::size_t messages = 0; ///< frames paid for (1 + resends + duplicates)
  std::size_t retries = 0;  ///< resends after presumed losses
  std::size_t bytes = 0;    ///< frame size through the real serializer
  /// Arrival tick: route hops plus the leg's fault penalty (for a lost
  /// frame, when its sender gave up). 0 for an unroutable op.
  sim::Time completed_at = 0;
};

/// Whole-run accounting: per-op results in submit order plus the sums the
/// benches chart.
struct UpdateRun {
  std::vector<UpdateResult> results;
  std::size_t delivered = 0;
  std::size_t applied = 0;
  std::size_t lost = 0; ///< unroutable or dropped after all retries
  std::size_t messages = 0;
  std::size_t retries = 0;
  std::size_t bytes = 0;
  sim::Time makespan = 0; ///< latest completed_at
};

struct UpdateOptions {
  /// Worker threads that plan ops (>= 1); 1 plans them on the caller's
  /// thread.
  unsigned shards = 1;
  /// Base fault plan; each op's legs are judged by stream fork_plan(plan,
  /// submit index). Null = no faults, no randomness. Not owned.
  const sim::FaultPlan* faults = nullptr;
};

/// Apply `ops` to the system through the update plane. See the determinism
/// contract above; `opts.shards` only picks the threads that plan, never a
/// result or the final store state.
UpdateRun apply_updates(SquidSystem& sys, const std::vector<UpdateOp>& ops,
                        const UpdateOptions& opts = {});

/// Lockstep single-op conveniences.
UpdateResult publish_update(SquidSystem& sys, const DataElement& element,
                            overlay::NodeId origin);
UpdateResult retract_update(SquidSystem& sys, const DataElement& element,
                            overlay::NodeId origin);

} // namespace squid::core
