// The routed update plane (core/update.hpp, DESIGN.md 4j).
//
// Shape of a run, at every worker count:
//
//   plan (per op, any thread) ---------------------------------> commit
//   map the key to its curve index, route origin -> owner,      one sorted
//   judge the frame leg under a per-op forked injector, stamp   batch
//   the arrival tick
//
// Planning is a pure function of (system state, op, seq, plan): routing
// reads const ring state, and the frame leg is judged by a PRIVATE engine
// at time 0 with an injector forked by seq — so every op's result is
// identical at every worker count, and the workers touch no shared mutable
// state. After planning, the delivered ops go to SquidSystem::commit on the
// caller's thread as one batch, carrying the curve index each op's plan
// computed: the store applies each key's ops in submit order in one sorted
// pass, then replica invalidation, telemetry and the registry counters
// fire once for the batch. The worker count picks the threads; it can
// never change a result or the final state.

#include "squid/core/update.hpp"

#include <algorithm>

#include "squid/core/parallel.hpp"
#include "squid/core/serialize.hpp"
#include "squid/core/system.hpp"
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
                     std::uint64_t seq, const sim::FaultPlan* faults,
                     u128& index) {
  UpdateResult out;
  index = sys.curve().index_of(sys.space().encode(op.element.keys));
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
  SQUID_REQUIRE(ops.size() <= UINT32_MAX,
                "apply_updates: batch too large for one commit");
  UpdateRun run;
  run.results.resize(ops.size());
  std::vector<SquidSystem::StoreWrite> writes(ops.size());

  // Plan every op into its own slot, spread over the worker threads; the
  // op's store write keeps the curve index its plan computed.
  for_each_index(opts.shards, ops.size(), [&](std::size_t seq) {
    SquidSystem::StoreWrite& w = writes[seq];
    run.results[seq] = plan_op(sys, ops[seq], seq, opts.faults, w.index);
    w.element = &ops[seq].element;
    w.seq = static_cast<std::uint32_t>(seq);
    w.retract = ops[seq].kind == UpdateOp::Kind::kRetract;
  });

  // Commit: the post-planning safe point. The delivered frames go to the
  // store as one batch, on the caller's thread.
  std::erase_if(writes, [&](const SquidSystem::StoreWrite& w) {
    return !run.results[w.seq].delivered;
  });
  sys.commit(writes);
  for (const SquidSystem::StoreWrite& w : writes)
    run.results[w.seq].applied = w.applied;

  for (const UpdateResult& r : run.results) {
    run.delivered += r.delivered ? 1 : 0;
    run.applied += r.applied ? 1 : 0;
    run.lost += r.delivered ? 0 : 1;
    run.messages += r.messages;
    run.retries += r.retries;
    run.bytes += r.bytes;
    run.makespan = std::max(run.makespan, r.completed_at);
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
