// The routed update plane (core/update.hpp, DESIGN.md 4j).
//
// Shape of a run, in every mode:
//
//   plan (per op, submit order) ----> deliver (mode-specific clock) ----> commit
//   route origin -> owner,            lockstep: per-op clock             global
//   judge the frame leg under         vtime: one shared engine           submit
//   a per-op forked injector          parallel: owner-shard threads      order
//
// Planning is a pure function of (system state, op, seq, plan): routing
// reads const ring state, and the frame leg is judged by a PRIVATE engine
// at time 0 with an injector forked by seq — so the delivered set is
// identical in all three modes, and parallel shard threads touch no shared
// mutable state. Commits happen after every clock has drained, on the
// caller's thread, in global submit order, through SquidSystem::publish /
// unpublish — which is where replica invalidation, telemetry, and the
// registry counters fire. Mode changes timing; it can never change state.

#include "squid/core/update.hpp"

#include <algorithm>
#include <numeric>
#include <thread>

#include "squid/core/parallel.hpp"
#include "squid/core/serialize.hpp"
#include "squid/core/system.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/sim/fault.hpp"
#include "squid/util/require.hpp"

namespace squid::core {

namespace {

/// One op, planned: the wire verdict plus the arrival tick its delivery
/// lands at. `result` carries the cost accounting (hops/messages/retries/
/// bytes) and the delivered flag; commit later fills applied/completed_at.
struct PlannedOp {
  UpdateResult result;
  sim::Time arrival = 0;
};

/// Plan one op: route its key from the origin, then pay for the frame's
/// transmission leg under this op's forked injector — judged by the same
/// QueryExec::judge_leg that query legs use, at virtual time 0 so the
/// verdict stream depends only on (plan, seq), never on the mode's clock.
PlannedOp plan_op(const SquidSystem& sys, const UpdateOp& op,
                  std::uint64_t seq, const sim::FaultPlan* faults) {
  PlannedOp out;
  const u128 index = sys.curve().index_of(sys.space().encode(op.element.keys));
  const overlay::RouteResult route = sys.ring().route(op.origin, index);
  out.result.hops = route.hops();
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
    leg = QueryExec::judge_leg(eng, sys.config(), op.origin, route.dest);
  }
  out.result.delivered = leg.delivered;
  out.result.retries = leg.resends;
  // A lost frame paid its resends; a delivered one also any duplicate.
  out.result.messages =
      1 + (leg.delivered ? leg.extra_messages : leg.resends);
  out.result.bytes = frame_bytes * out.result.messages;
  out.arrival = static_cast<sim::Time>(route.hops()) + leg.penalty;
  return out;
}

/// Plan the ops `seqs` (in order) and deliver each delivered frame on a
/// private engine at its arrival tick, stamping completed_at off that
/// clock. kVirtualTime runs it once over every op; kParallel once per
/// shard over the shard's subsequence.
void plan_and_drain(const SquidSystem& sys, const std::vector<UpdateOp>& ops,
                    const std::vector<std::size_t>& seqs,
                    const sim::FaultPlan* faults,
                    std::vector<PlannedOp>& planned) {
  sim::Engine engine(0);
  for (const std::size_t seq : seqs) {
    planned[seq] = plan_op(sys, ops[seq], seq, faults);
    PlannedOp& p = planned[seq];
    if (p.result.delivered)
      engine.schedule(p.arrival,
                      [&engine, &p]() { p.result.completed_at = engine.now(); });
  }
  engine.run();
}

} // namespace

UpdateRun apply_updates(SquidSystem& sys, const std::vector<UpdateOp>& ops,
                        const UpdateOptions& opts) {
  UpdateRun run;
  run.results.resize(ops.size());

  std::vector<PlannedOp> planned(ops.size());
  switch (opts.mode) {
  case DeliveryMode::kLockstep: {
    // Each op drains its own delay-0 clock: completed_at is simply the
    // op's arrival tick.
    for (std::size_t seq = 0; seq < ops.size(); ++seq) {
      planned[seq] = plan_op(sys, ops[seq], seq, opts.faults);
      planned[seq].result.completed_at = planned[seq].arrival;
    }
    break;
  }
  case DeliveryMode::kVirtualTime: {
    // One shared clock: every arrival is scheduled at its tick and the
    // engine drains them in (time, FIFO) order, so completion stamps come
    // off the honest interleaved timeline.
    std::vector<std::size_t> all(ops.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    plan_and_drain(sys, ops, all, opts.faults, planned);
    break;
  }
  case DeliveryMode::kParallel: {
    // Ops partition across shard threads by the OWNER's home shard — the
    // same shard_of_node map query scans hand off with — and each shard
    // plans + delivers its subsequence in submit order on a private
    // engine. Planning only reads const system state and per-op forked
    // injectors, and every result lands in the op's own slot, so threads
    // share nothing mutable; the commit below re-serializes in global
    // submit order regardless of how shards interleaved.
    const unsigned shards = std::max(1u, opts.shards);
    std::vector<std::vector<std::size_t>> by_shard(shards);
    for (std::size_t seq = 0; seq < ops.size(); ++seq) {
      const u128 index =
          sys.curve().index_of(sys.space().encode(ops[seq].element.keys));
      by_shard[shard_of_node(sys.owner_of(index), shards)].push_back(seq);
    }
    std::vector<std::thread> workers;
    workers.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
      workers.emplace_back([&sys, &ops, &opts, &planned, mine = &by_shard[s]] {
        plan_and_drain(sys, ops, *mine, opts.faults, planned);
      });
    }
    for (std::thread& w : workers) w.join();
    break;
  }
  }

  // Commit: the post-drain safe point. Delivered frames apply in GLOBAL
  // submit order through publish/unpublish — replica invalidation,
  // telemetry, and counters all fire here, on the caller's thread.
  std::size_t retracts = 0;
  for (std::size_t seq = 0; seq < ops.size(); ++seq) {
    UpdateResult& r = run.results[seq];
    r = planned[seq].result;
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
  if (retracts > 0) obs::bump("squid.system.retracts", retracts);
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
