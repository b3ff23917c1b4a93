// QueryExec: posting, completion and leg machinery (DESIGN.md 4e).
//
// The handlers a delivery runs live in query_engine.cpp as SquidSystem
// methods (they read ring/store/refiner state), dispatched by
// SquidSystem::deliver; this file owns the generic runtime: scheduling
// arrivals, counting outstanding work, and the send and fault-aware leg
// accounting shared by every planning site (forward, dispatch_head).

#include "squid/core/runtime.hpp"

#include <utility>

#include "squid/core/system.hpp"
#include "squid/sim/fault.hpp"

namespace squid::core {

QueryExec::Leg QueryExec::judge_leg(sim::Engine& engine, NodeId from,
                                    NodeId to) {
  Leg out;
  sim::FaultInjector* fault = engine.fault_injector();
  if (fault == nullptr) return out;
  const unsigned attempts = 1 + kSendRetries;
  for (unsigned a = 0; a < attempts; ++a) {
    const sim::SendOutcome verdict = engine.admit(from, to);
    if (verdict.delivered) {
      out.penalty += verdict.extra_delay;
      out.extra_messages = out.resends + (verdict.duplicate ? 1 : 0);
      return out;
    }
    if (a + 1 < attempts) {
      out.penalty += kRetryBackoff << a;
      ++out.resends;
    }
  }
  out.delivered = false;
  fault->report_timeout(from, to);
  return out;
}

void QueryExec::pay_leg(const Leg& leg, NodeId to, std::int32_t event,
                        std::int32_t span) {
  messages += leg.extra_messages;
  retries += leg.resends;
  if (trace && (leg.extra_messages > 0 || leg.penalty > 0)) {
    const std::int32_t id =
        trace->begin(obs::SpanKind::kRetry, span, event, tick(event));
    obs::Span& s = trace->at(id);
    s.node = to;
    s.messages = static_cast<std::uint32_t>(leg.extra_messages);
    s.batch = static_cast<std::uint32_t>(leg.resends);
    s.hops = static_cast<std::uint32_t>(leg.penalty);
    s.end = s.start + leg.penalty;
  }
}

void QueryExec::fail_leg(std::size_t resends, sim::Time penalty,
                         std::size_t units, NodeId to, std::int32_t event,
                         std::int32_t span) {
  messages += resends;
  retries += resends;
  failed_clusters += units;
  complete = false;
  if (trace) {
    const std::int32_t id =
        trace->begin(obs::SpanKind::kFault, span, event, tick(event));
    obs::Span& s = trace->at(id);
    s.node = to;
    s.messages = static_cast<std::uint32_t>(resends);
    s.batch = static_cast<std::uint32_t>(units);
    s.hops = static_cast<std::uint32_t>(penalty);
    s.end = s.start + penalty;
  }
}

namespace {

/// The bookkeeping every planned send shares: one message, its path in the
/// routing set, and a route-through load on each path node at `tick`.
void count_send(QueryExec& ex, std::span<const overlay::NodeId> path,
                sim::Time tick) {
  ex.messages += 1;
  ex.routing.insert(ex.routing.end(), path.begin(), path.end());
  if (ex.telemetry != nullptr)
    for (const overlay::NodeId hop : path)
      ex.telemetry->record(hop, obs::LoadKind::kRouteThrough, 1, tick);
}

} // namespace

QueryExec::Arrival QueryExec::forward(std::span<const NodeId> path,
                                      std::int32_t event, std::int32_t span) {
  const NodeId from = path.front();
  const NodeId to = path.back();
  const std::size_t hops = path.size() - 1;
  count_send(*this, path, tick(event));
  const Leg leg = judge_leg(*engine, from, to);
  const std::int32_t arrive =
      add_event(event, hops + static_cast<std::size_t>(leg.penalty));
  if (trace) {
    const std::int32_t id =
        trace->begin(obs::SpanKind::kRouteHop, span, arrive, tick(event));
    trace->set_path(id, path.begin(), path.end());
    obs::Span& s = trace->at(id);
    s.node = to;
    s.hops = static_cast<std::uint32_t>(hops);
    s.messages = 1;
    s.end = tick(arrive);
    span = id;
  }
  if (!leg.delivered) {
    fail_leg(leg.resends, leg.penalty, 1, to, event, span);
    return {};
  }
  pay_leg(leg, to, event, span);
  note_reply_parent(to, from);
  return {true, to, arrive, span};
}

QueryExec::Leg QueryExec::dispatch_head(std::span<const NodeId> path,
                                        bool cache_hit, unsigned level,
                                        std::int32_t event,
                                        std::int32_t span) {
  const NodeId from = path.front();
  const NodeId to = path.back();
  const std::size_t hops = path.size() - 1;
  if (cache_hit && telemetry != nullptr)
    telemetry->record(from, obs::LoadKind::kCacheHit, 1, tick(event));
  count_send(*this, path, tick(event));
  if (trace) {
    const std::int32_t id = trace->begin(
        cache_hit ? obs::SpanKind::kCacheHit : obs::SpanKind::kRouteHop, span,
        event, tick(event));
    trace->set_path(id, path.begin(), path.end());
    obs::Span& s = trace->at(id);
    s.node = to;
    if (cache_hit)
      s.level = level;
    else
      s.hops = static_cast<std::uint32_t>(hops);
    s.messages = 1;
    s.end = s.start + hops;
  }
  const Leg leg = judge_leg(*engine, from, to);
  if (leg.delivered) {
    pay_leg(leg, to, event, span);
    note_reply_parent(to, from);
  } else {
    // The backoff waits still burn wall-clock at the dispatcher: land them
    // in the timing DAG so trace-derived and engine critical paths agree.
    add_event(event, static_cast<std::size_t>(leg.penalty));
    fail_leg(leg.resends, leg.penalty, 1, to, event, span);
  }
  return leg;
}

namespace {

/// Timing-DAG event a message delivers under; -1 for a Reply (replies are
/// completion markers, delivered immediately — the seed never charged the
/// origin's result assembly as a hop).
std::int32_t event_of(const msg::Message& message) {
  struct V {
    std::int32_t operator()(const msg::ResolveRequest& r) const {
      return r.event;
    }
    std::int32_t operator()(const msg::ClusterDispatch& d) const {
      return d.event;
    }
    std::int32_t operator()(const msg::ScanRequest& s) const {
      return s.event;
    }
    std::int32_t operator()(const msg::Reply&) const { return -1; }
    std::int32_t operator()(const msg::PublishRequest& p) const {
      return p.event;
    }
    std::int32_t operator()(const msg::RetractRequest& r) const {
      return r.event;
    }
  };
  return std::visit(V{}, message);
}

} // namespace

void QueryExec::post(msg::Message message) {
  if (auto* scan = std::get_if<msg::ScanRequest>(&message); scan && agg) {
    // Aggregate pushdown: stamp the spec so the scan site folds instead of
    // shipping, and assign the scan's record slot in post order (identical
    // across delivery modes, whatever order the scans later deliver in).
    scan->agg = *agg;
    scan->slot = static_cast<std::uint32_t>(agg_scans.size());
    agg_scans.emplace_back();
  }
  sim::Time delay = 0;
  if (mode == DeliveryMode::kVirtualTime) {
    const std::int32_t event = event_of(message);
    if (event >= 0) {
      // Deliver at the message's timing-DAG tick on the shared clock. The
      // poster runs at its own event's tick, so the target is never in the
      // past; the comparison guards the zero-hop case.
      const sim::Time target = started_at + tick(event);
      delay = target > engine->now() ? target - engine->now() : 0;
    }
  }
  ++outstanding;
  engine->schedule(delay,
                   [exec = shared_from_this(), m = std::move(message)]() {
                     exec->sys->deliver(*exec, m);
                     --exec->outstanding;
                     exec->maybe_complete();
                   });
}

void QueryExec::maybe_complete() {
  if (outstanding != 0 || reply_posted) return;
  reply_posted = true;
  msg::Reply reply;
  reply.query = id;
  reply.from = origin;
  reply.to = origin;
  reply.complete = complete;
  reply.count = results.size();
  // Result data accumulated at the origin as scans delivered; the in-memory
  // Reply is the completion marker and carries only the summary. (On the
  // wire — serialize.cpp — a Reply ships elements too.)
  post(std::move(reply));
}

} // namespace squid::core
