// The routed update plane (core/update.hpp, DESIGN.md 4j).
//
// Shape of a run, at every worker count:
//
//   plan (per op, any thread) ---------------------------------> commit
//   route origin -> owner, judge the frame leg under a         global
//   per-op forked injector, stamp the arrival tick             submit order
//
// Planning is a pure function of (system state, op, seq, plan): routing
// reads const ring state, and the frame leg is judged by a PRIVATE engine
// at time 0 with an injector forked by seq — so every op's result is
// identical at every worker count, and the workers touch no shared mutable
// state. Commits happen after planning, on the caller's thread, in global
// submit order, through SquidSystem::publish / unpublish — which is where
// replica invalidation, telemetry, and the registry counters fire. The
// worker count picks the threads; it can never change a result or the
// final state.

#include "squid/core/update.hpp"

#include <algorithm>

#include "squid/core/parallel.hpp"
#include "squid/core/serialize.hpp"
#include "squid/core/system.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/sim/fault.hpp"
#include "squid/util/require.hpp"

namespace squid::core {

namespace {

/// Plan one op: route its key from the origin, then pay for the frame's
/// transmission leg under this op's forked injector — judged by the same
/// QueryExec::judge_leg that query legs use, at virtual time 0 so the
/// verdict stream depends only on (plan, seq), never on the worker. Fills
/// everything but `applied`, which the commit decides.
UpdateResult plan_op(const SquidSystem& sys, const UpdateOp& op,
                     std::uint64_t seq, const sim::FaultPlan* faults) {
  UpdateResult out;
  const u128 index = sys.curve().index_of(sys.space().encode(op.element.keys));
  const overlay::RouteResult route = sys.ring().route(op.origin, index);
  out.hops = route.hops();
  if (!route.ok) return out; // unroutable: no frame ever transmitted

  // The serialized size of the frame the owner would receive prices every
  // transmission below (resends and duplicates ship the whole frame again).
  const std::size_t frame_bytes =
      update_wire_size(op.kind, seq, op.origin, route.dest, op.element);

  QueryExec::Leg leg;
  if (faults != nullptr) {
    sim::FaultInjector injector(sim::fork_plan(*faults, seq));
    sim::Engine eng(0);
    eng.set_fault_injector(&injector);
    leg = QueryExec::judge_leg(eng, op.origin, route.dest);
  }
  out.delivered = leg.delivered;
  out.retries = leg.resends;
  // A lost frame paid its resends; a delivered one also any duplicate.
  out.messages = 1 + (leg.delivered ? leg.extra_messages : leg.resends);
  out.bytes = frame_bytes * out.messages;
  out.completed_at = static_cast<sim::Time>(route.hops()) + leg.penalty;
  return out;
}

} // namespace

UpdateRun apply_updates(SquidSystem& sys, const std::vector<UpdateOp>& ops,
                        const UpdateOptions& opts) {
  SQUID_REQUIRE(opts.shards >= 1, "apply_updates needs at least one worker");
  UpdateRun run;
  run.results.resize(ops.size());

  // Plan every op into its own slot, spread over the worker threads.
  for_each_index(opts.shards, ops.size(), [&](std::size_t seq) {
    run.results[seq] = plan_op(sys, ops[seq], seq, opts.faults);
  });

  // Commit: the post-planning safe point. Delivered frames apply in GLOBAL
  // submit order through publish/unpublish — replica invalidation,
  // telemetry, and counters all fire here, on the caller's thread.
  std::size_t retracts = 0;
  for (std::size_t seq = 0; seq < ops.size(); ++seq) {
    UpdateResult& r = run.results[seq];
    if (r.delivered) {
      if (ops[seq].kind == UpdateOp::Kind::kPublish) {
        sys.publish(ops[seq].element);
        r.applied = true;
      } else {
        r.applied = sys.unpublish(ops[seq].element);
        ++retracts;
      }
    }
    run.delivered += r.delivered ? 1 : 0;
    run.applied += r.applied ? 1 : 0;
    run.lost += r.delivered ? 0 : 1;
    run.messages += r.messages;
    run.retries += r.retries;
    run.bytes += r.bytes;
    run.makespan = std::max(run.makespan, r.completed_at);
  }
  if constexpr (obs::kEnabled) {
    if (retracts > 0) {
      static obs::Counter& retracted =
          obs::Registry::global().counter("squid.system.retracts");
      retracted.add(retracts);
    }
  }
  return run;
}

UpdateResult publish_update(SquidSystem& sys, const DataElement& element,
                            overlay::NodeId origin) {
  return apply_updates(sys, {UpdateOp::publish(element, origin)}).results[0];
}

UpdateResult retract_update(SquidSystem& sys, const DataElement& element,
                            overlay::NodeId origin) {
  return apply_updates(sys, {UpdateOp::retract(element, origin)}).results[0];
}

} // namespace squid::core
