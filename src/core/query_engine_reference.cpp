// The seed synchronous query resolver, frozen verbatim as a differential
// oracle (same pattern as the flat_ring/flat_store locks of PR 2): one
// C++ call-stack recursion over a task deque, with fault verdicts drawn
// inline. tests/core/async_differential_test.cpp compares the message-
// driven runtime (query_engine.cpp) against these entry points on twin
// systems — results, QueryStats, derive_stats on traces, the timing DAG,
// and the fault injector's RNG stream must match bit-for-bit.
//
// Deliberately self-contained (its own context struct and local helpers):
// the oracle must not drift when the live engine evolves. Test-only: no
// registry metrics are published. Do not "clean up" shared code into here.

#include <algorithm>
#include <deque>
#include <optional>
#include <set>

#include "squid/core/system.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/obs/trace.hpp"
#include "squid/sfc/cursor.hpp"
#include "squid/sim/fault.hpp"
#include "squid/util/require.hpp"

namespace squid::core {

using overlay::in_open_closed;

struct SquidSystem::RefQueryContext {
  sfc::Rect rect;
  std::set<NodeId> routing;
  std::set<NodeId> processing;
  std::set<NodeId> data_nodes;
  std::size_t messages = 0;
  bool count_only = false; ///< count matches without shipping elements
  std::size_t count = 0;
  std::vector<DataElement> results;
  /// Message-dependency DAG; event 0 is the query start at the origin.
  std::vector<TimingEvent> timing{TimingEvent{}};
#if SQUID_OBS_ENABLED
  /// Non-null only while this query records a trace.
  obs::TraceRecorder* trace = nullptr;
#else
  static constexpr obs::TraceRecorder* trace = nullptr;
#endif
  /// Hop-depth of each timing event (= virtual-clock tick of delivery).
  /// Maintained parallel to `timing`, but only while tracing.
  std::vector<sim::Time> depth;
  /// Pending cross-node work: clusters already assigned to their owner,
  /// plus the timing event that delivered them and the dispatch span that
  /// sent them (parent for the receiving node's spans).
  struct Task {
    NodeId node;
    std::vector<sfc::ClusterNode> clusters;
    std::int32_t event = 0;
    std::int32_t span = -1;
  };
  std::deque<Task> tasks;

  std::int32_t add_event(std::int32_t parent, std::size_t hops) {
    timing.push_back(TimingEvent{parent, static_cast<std::uint32_t>(hops)});
    if (trace)
      depth.push_back(depth[static_cast<std::size_t>(parent)] + hops);
    return static_cast<std::int32_t>(timing.size() - 1);
  }
  /// Virtual-clock tick of `event`. Only valid while tracing.
  sim::Time tick(std::int32_t event) const {
    return depth[static_cast<std::size_t>(event)];
  }
  /// Safety valve for inconsistent rings (heavy churn): a real query would
  /// time out; we stop dispatching and return what was found.
  std::size_t dispatch_budget = 0;

  // --- Fault accounting (docs/FAULT_MODEL.md) ------------------------------

  bool complete = true; ///< false once any sub-query is abandoned
  std::size_t retries = 0;
  std::size_t failed_clusters = 0;

  /// Outcome of one fault-aware message-leg delivery (attempt_leg).
  struct Leg {
    bool delivered = true;
    std::size_t extra_messages = 0; ///< resends + duplicate copies paid
    std::size_t resends = 0;
    sim::Time penalty = 0; ///< backoff waits + delivery delay, in ticks
  };

  /// The seed's retry policy: resends per lost leg, and the backoff base.
  static constexpr unsigned kRefSendRetries = 3;
  static constexpr sim::Time kRefRetryBackoff = 2;

  /// Deliver one message leg from -> to under the injector, resending with
  /// exponential backoff (kRefRetryBackoff << attempt) up to
  /// kRefSendRetries times. Null injector: immediate clean delivery.
  Leg attempt_leg(sim::FaultInjector* fault, NodeId from, NodeId to) {
    Leg out;
    if (fault == nullptr) return out;
    const unsigned attempts = 1 + kRefSendRetries;
    for (unsigned a = 0; a < attempts; ++a) {
      const sim::FaultInjector::Delivery verdict = fault->decide(from, to);
      if (verdict.delivered) {
        out.penalty += verdict.extra_delay;
        out.extra_messages = out.resends + (verdict.duplicate ? 1 : 0);
        return out;
      }
      if (a + 1 < attempts) {
        out.penalty += kRefRetryBackoff << a;
        ++out.resends;
      }
    }
    out.delivered = false;
    fault->report_timeout(from, to);
    return out;
  }

  /// Account a *delivered* leg's fault costs.
  void pay_leg(const Leg& leg, NodeId to, std::int32_t event,
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

  /// Account a leg abandoned for good.
  void fail_leg(std::size_t resends, sim::Time penalty, std::size_t units,
                NodeId to, std::int32_t event, std::int32_t span) {
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
};

namespace {

/// The largest prefix of `seg` owned by node `at` (whose range is
/// (pred, at]), given that `at` owns seg.lo. Returns the clipped segment.
sfc::Segment ref_clip_local(overlay::NodeId at, sfc::Segment seg) {
  if (at < seg.lo) return seg; // wrapped ownership: owns through space end
  return {seg.lo, std::min(seg.hi, at)};
}

/// True when the whole segment lives on `at` (which owns seg.lo).
bool ref_entirely_local(overlay::NodeId at, const sfc::Segment& seg) {
  return at >= seg.hi || at < seg.lo;
}

/// Longest root-to-leaf hop total of a timing DAG.
std::size_t ref_critical_path_of(const std::vector<TimingEvent>& timing) {
  std::vector<std::size_t> depth(timing.size(), 0);
  std::size_t best = 0;
  for (std::size_t i = 1; i < timing.size(); ++i) {
    depth[i] = depth[static_cast<std::size_t>(timing[i].parent)] +
               timing[i].hops;
    best = std::max(best, depth[i]);
  }
  return best;
}

} // namespace

void SquidSystem::ref_scan_local(RefQueryContext& ctx, NodeId at,
                                 sfc::Segment seg, bool covered,
                                 std::int32_t event, std::int32_t span) const {
  ctx.processing.insert(at);
  std::uint64_t scanned = 0;
  std::uint64_t matched = 0;
  std::uint64_t collected = 0;
  // The oracle reads the store through the same merged-tier walk as the
  // runtime's SquidSystem::scan; the planning it freezes is untouched.
  store_.scan(seg.lo, seg.hi, [&](u128, const StoredKey& key) {
    ++scanned;
    if (!covered && !ctx.rect.contains(key.point)) return;
    ++matched;
    collected += key.elements.size();
    if (ctx.count_only) {
      ctx.count += key.elements.size();
    } else {
      ctx.results.insert(ctx.results.end(), key.elements.begin(),
                         key.elements.end());
    }
  });
  if (matched > 0) ctx.data_nodes.insert(at);
  if (ctx.trace) {
    const std::int32_t id = ctx.trace->begin(obs::SpanKind::kLocalScan, span,
                                             event, ctx.tick(event));
    obs::Span& s = ctx.trace->at(id);
    s.node = at;
    s.range_lo = seg.lo;
    s.range_hi = seg.hi;
    s.keys_scanned = scanned;
    s.keys_matched = matched;
    s.matches = collected;
  }
}

void SquidSystem::ref_collect_segment(RefQueryContext& ctx, NodeId at,
                                      sfc::Segment seg, bool covered,
                                      std::int32_t event,
                                      std::int32_t span) const {
  const NodeId pred = ring_.predecessor_of(at);
  if (!in_open_closed(pred, at, seg.lo)) {
    if (ctx.dispatch_budget == 0) {
      ctx.complete = false;
      return;
    }
    --ctx.dispatch_budget;
    const overlay::RouteResult r = ring_.route(at, seg.lo);
    if (!r.ok) {
      ctx.fail_leg(0, 0, 1, at, event, span);
      return;
    }
    ctx.messages += 1;
    ctx.routing.insert(r.path.begin(), r.path.end());
    const RefQueryContext::Leg leg =
        ctx.attempt_leg(fault_, at, r.dest);
    const sim::Time sent = ctx.trace ? ctx.tick(event) : 0;
    const std::int32_t arrive = ctx.add_event(
        event, r.hops() + static_cast<std::size_t>(leg.penalty));
    if (ctx.trace) {
      const std::int32_t id =
          ctx.trace->begin(obs::SpanKind::kRouteHop, span, arrive, sent);
      ctx.trace->set_path(id, r.path.begin(), r.path.end());
      obs::Span& s = ctx.trace->at(id);
      s.node = r.dest;
      s.hops = static_cast<std::uint32_t>(r.hops());
      s.messages = 1;
      s.end = ctx.tick(arrive);
      span = id;
    }
    if (!leg.delivered) {
      ctx.fail_leg(leg.resends, leg.penalty, 1, r.dest, event, span);
      return;
    }
    ctx.pay_leg(leg, r.dest, event, span);
    at = r.dest;
    event = arrive;
  }
  for (;;) {
    const sfc::Segment local = ref_clip_local(at, seg);
    ref_scan_local(ctx, at, local, covered, event, span);
    if (ref_entirely_local(at, seg)) return;
    if (ctx.dispatch_budget == 0) {
      ctx.complete = false;
      return;
    }
    --ctx.dispatch_budget;
    const NodeId next = ring_.successor_of((at + 1) & ring_.id_mask());
    const RefQueryContext::Leg leg =
        ctx.attempt_leg(fault_, at, next);
    ctx.messages += 1;
    ctx.routing.insert(at);
    ctx.routing.insert(next);
    seg.lo = local.hi + 1;
    const sim::Time sent = ctx.trace ? ctx.tick(event) : 0;
    const std::int32_t arrive = ctx.add_event(
        event, 1 + static_cast<std::size_t>(leg.penalty)); // neighbor forward
    if (ctx.trace) {
      const std::int32_t id =
          ctx.trace->begin(obs::SpanKind::kRouteHop, span, arrive, sent);
      ctx.trace->add_path_node(id, at);
      ctx.trace->add_path_node(id, next);
      obs::Span& s = ctx.trace->at(id);
      s.node = next;
      s.hops = 1;
      s.messages = 1;
      s.end = ctx.tick(arrive);
      span = id;
    }
    if (!leg.delivered) {
      ctx.fail_leg(leg.resends, leg.penalty, 1, next, event, span);
      return;
    }
    ctx.pay_leg(leg, next, event, span);
    at = next;
    event = arrive;
  }
}

void SquidSystem::ref_collect_covered(RefQueryContext& ctx, NodeId at,
                                      sfc::Segment seg, std::int32_t event,
                                      std::int32_t span) const {
  ref_collect_segment(ctx, at, seg, /*covered=*/true, event, span);
}

void SquidSystem::ref_dispatch_remote(
    RefQueryContext& ctx, NodeId from,
    const std::vector<std::pair<u128, sfc::ClusterNode>>& clusters,
    std::int32_t event, std::int32_t span) const {
  std::size_t i = 0;
  while (i < clusters.size()) {
    if (ctx.dispatch_budget == 0) {
      ctx.complete = false;
      return;
    }
    --ctx.dispatch_budget;
    const u128 head_lo = clusters[i].first;

    std::int32_t dspan = -1;
    if (ctx.trace) {
      dspan = ctx.trace->begin(obs::SpanKind::kClusterDispatch, span, event,
                               ctx.tick(event));
      obs::Span& s = ctx.trace->at(dspan);
      s.level = clusters[i].second.level;
      s.range_lo = head_lo;
      s.range_hi = head_lo;
    }

    NodeId dest = 0;
    bool resolved = false;
    bool from_cache = false;
    if (config_.cache_cluster_owners) {
      const auto cache_it = owner_cache_.find(from);
      if (cache_it != owner_cache_.end()) {
        const auto hit = cache_it->second.find(
            {clusters[i].second.level, clusters[i].second.prefix});
        if (hit != cache_it->second.end() && ring_.contains(hit->second) &&
            in_open_closed(ring_.predecessor_of(hit->second), hit->second,
                           head_lo)) {
          dest = hit->second;
          resolved = true;
          from_cache = true;
          ++cache_stats_.hits;
          ctx.messages += 1; // one direct message, no overlay routing
          ctx.routing.insert(from);
          ctx.routing.insert(dest);
          if (ctx.trace) {
            const std::int32_t id = ctx.trace->begin(
                obs::SpanKind::kCacheHit, dspan, event, ctx.tick(event));
            ctx.trace->add_path_node(id, from);
            ctx.trace->add_path_node(id, dest);
            obs::Span& s = ctx.trace->at(id);
            s.node = dest;
            s.level = clusters[i].second.level;
            s.messages = 1;
            s.end = s.start + 1; // direct send: one hop
          }
        } else if (hit != cache_it->second.end()) {
          ++cache_stats_.stale;
          cache_it->second.erase(hit);
        }
      }
      if (!resolved) {
        ++cache_stats_.misses;
        if (ctx.trace) {
          const std::int32_t id = ctx.trace->begin(
              obs::SpanKind::kCacheMiss, dspan, event, ctx.tick(event));
          obs::Span& s = ctx.trace->at(id);
          s.node = from;
          s.level = clusters[i].second.level;
        }
      }
    }

    std::size_t dispatch_hops = 1; // direct send when the cache resolved it
    if (!resolved) {
      const overlay::RouteResult r = ring_.route(from, head_lo);
      if (!r.ok) {
        ctx.fail_leg(0, 0, 1, from, event, dspan);
        ++i;
        continue;
      }
      ctx.messages += 1; // the head sub-query
      ctx.routing.insert(r.path.begin(), r.path.end());
      dest = r.dest;
      dispatch_hops = std::max<std::size_t>(r.hops(), 1);
      if (ctx.trace) {
        const std::int32_t id = ctx.trace->begin(
            obs::SpanKind::kRouteHop, dspan, event, ctx.tick(event));
        ctx.trace->set_path(id, r.path.begin(), r.path.end());
        obs::Span& s = ctx.trace->at(id);
        s.node = dest;
        s.hops = static_cast<std::uint32_t>(r.hops());
        s.messages = 1;
        s.end = s.start + r.hops();
      }
    }

    const RefQueryContext::Leg leg =
        ctx.attempt_leg(fault_, from, dest);
    if (!leg.delivered) {
      ctx.add_event(event, static_cast<std::size_t>(leg.penalty));
      ctx.fail_leg(leg.resends, leg.penalty, 1, dest, event, dspan);
      ++i;
      continue;
    }
    ctx.pay_leg(leg, dest, event, dspan);

    std::size_t batch_end = i + 1;
    bool reply_message = false;
    if (config_.aggregate_subclusters) {
      if (!from_cache) {
        ctx.messages += 1; // the owner's identifier reply
        reply_message = true;
      }
      if (config_.cache_cluster_owners) {
        owner_cache_[from][{clusters[i].second.level,
                            clusters[i].second.prefix}] = dest;
      }
      const NodeId dest_pred = ring_.predecessor_of(dest);
      while (batch_end < clusters.size() &&
             in_open_closed(dest_pred, dest, clusters[batch_end].first)) {
        ++batch_end;
      }
      if (batch_end > i + 1) ctx.messages += 1; // one aggregated batch
    }
    const std::int32_t batch_event = ctx.add_event(
        event, dispatch_hops + static_cast<std::size_t>(leg.penalty) +
                   (batch_end > i + 1 ? 2 : 0));
    if (ctx.trace) {
      if (batch_end > i + 1) {
        const std::int32_t id = ctx.trace->begin(
            obs::SpanKind::kAggregationMerge, dspan, event, ctx.tick(event));
        obs::Span& s = ctx.trace->at(id);
        s.node = from;
        s.batch = static_cast<std::uint32_t>(batch_end - i - 1);
        s.messages = 1; // the aggregated batch
        s.end = ctx.tick(batch_event);
      }
      obs::Span& s = ctx.trace->at(dspan);
      s.node = dest;
      s.event = batch_event;
      s.batch = static_cast<std::uint32_t>(batch_end - i);
      s.hops = static_cast<std::uint32_t>(dispatch_hops);
      s.messages = reply_message ? 1 : 0; // the identifier reply, if paid
      s.range_hi = clusters[batch_end - 1].first;
      s.end = ctx.tick(batch_event);
    }
    std::vector<sfc::ClusterNode> batch;
    batch.reserve(batch_end - i);
    for (std::size_t k = i; k < batch_end; ++k)
      batch.push_back(clusters[k].second);
    ctx.tasks.push_back({dest, std::move(batch), batch_event, dspan});
    i = batch_end;
  }
}

void SquidSystem::ref_resolve_at_node(RefQueryContext& ctx, NodeId at,
                                      std::vector<sfc::ClusterNode> clusters,
                                      std::int32_t event,
                                      std::int32_t span) const {
  ctx.processing.insert(at);
  if (ctx.trace) {
    const std::int32_t id = ctx.trace->begin(obs::SpanKind::kRefineDescend,
                                             span, event, ctx.tick(event));
    obs::Span& s = ctx.trace->at(id);
    s.node = at;
    s.batch = static_cast<std::uint32_t>(clusters.size());
    span = id;
  }
  const NodeId pred = ring_.predecessor_of(at);
  std::vector<std::pair<u128, sfc::ClusterNode>> remote; // (segment lo, node)

  sfc::RefineCursor cursor(*curve_);
  const unsigned dims = curve_->dims();
  const u128 fanout = cursor.fanout();
  using sfc::CellRelation;
  struct WorkItem {
    sfc::ClusterNode node;
    CellRelation relation;
    bool classified = false;
  };
  std::deque<WorkItem> work;
  for (const auto& cluster : clusters) work.push_back({cluster, {}, false});
  while (!work.empty()) {
    const WorkItem item = work.front();
    work.pop_front();
    const sfc::ClusterNode cluster = item.node;
    CellRelation relation = item.relation;
    if (!item.classified) {
      cursor.seek(cluster.prefix, cluster.level);
      relation = cursor.relation_to(ctx.rect);
    }
    if (relation == CellRelation::disjoint) {
      if (ctx.trace) {
        const sfc::Segment pruned = refiner_.segment_of(cluster);
        const std::int32_t id = ctx.trace->begin(obs::SpanKind::kPrune, span,
                                                 event, ctx.tick(event));
        obs::Span& s = ctx.trace->at(id);
        s.node = at;
        s.level = cluster.level;
        s.range_lo = pruned.lo;
        s.range_hi = pruned.hi;
      }
      continue;
    }
    const sfc::Segment seg = refiner_.segment_of(cluster);
    if (relation == CellRelation::covered) {
      ref_collect_covered(ctx, at, seg, event, span);
      continue;
    }
    const bool owns_lo = in_open_closed(pred, at, seg.lo);
    if (owns_lo && ref_entirely_local(at, seg)) {
      ref_scan_local(ctx, at, seg, /*covered=*/false, event, span);
      continue;
    }
    if (item.classified) cursor.seek(cluster.prefix, cluster.level);
    for (u128 w = 0; w < fanout; ++w) {
      const auto rel = cursor.classify_child(w, ctx.rect);
      const sfc::ClusterNode child{
          (dims >= 128 ? 0 : cluster.prefix << dims) | w, cluster.level + 1};
      if (rel == CellRelation::disjoint) {
        if (ctx.trace) {
          const sfc::Segment pruned = refiner_.segment_of(child);
          const std::int32_t id = ctx.trace->begin(
              obs::SpanKind::kPrune, span, event, ctx.tick(event));
          obs::Span& s = ctx.trace->at(id);
          s.node = at;
          s.level = child.level;
          s.range_lo = pruned.lo;
          s.range_hi = pruned.hi;
        }
        continue;
      }
      const u128 child_lo = refiner_.segment_of(child).lo;
      if (in_open_closed(pred, at, child_lo)) {
        work.push_back({child, rel, true});
      } else {
        remote.emplace_back(child_lo, child);
      }
    }
  }

  std::sort(remote.begin(), remote.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ref_dispatch_remote(ctx, at, remote, event, span);
}

QueryResult SquidSystem::query_reference(const keyword::Query& query,
                                         NodeId origin) const {
  SQUID_REQUIRE(ring_.contains(origin), "query origin is not a live node");
  std::optional<ScopedCacheWriter> cache_guard;
  if (config_.cache_cluster_owners) cache_guard.emplace(*cache_writers_);
  RefQueryContext ctx;
  ctx.rect = space_.to_rect(query);
  refiner_.validate_query(ctx.rect);
  ctx.dispatch_budget = 64 * (ring_.size() + 8); // churn safety valve
  ctx.routing.insert(origin);

  std::int32_t root = -1;
#if SQUID_OBS_ENABLED
  obs::TraceRecorder recorder;
  if (trace_enabled_) {
    ctx.trace = &recorder;
    ctx.depth.push_back(0); // event 0: the query start
    root = recorder.begin(obs::SpanKind::kQuery, -1, 0, 0);
    recorder.at(root).node = origin;
    recorder.add_path_node(root, origin);
  }
#endif

  bool is_point = true;
  for (const auto& iv : ctx.rect.dims) is_point &= (iv.lo == iv.hi);
  if (is_point) {
    sfc::Point point;
    for (const auto& iv : ctx.rect.dims) point.push_back(iv.lo);
    const u128 index = curve_->index_of(point);
    const overlay::RouteResult r = ring_.route(origin, index);
    if (r.ok) {
      ctx.messages += 1;
      ctx.routing.insert(r.path.begin(), r.path.end());
      const RefQueryContext::Leg leg =
          ctx.attempt_leg(fault_, origin, r.dest);
      const std::int32_t event =
          ctx.add_event(0, r.hops() + static_cast<std::size_t>(leg.penalty));
      std::int32_t span = root;
      if (ctx.trace) {
        const std::int32_t id =
            ctx.trace->begin(obs::SpanKind::kRouteHop, root, event, 0);
        ctx.trace->set_path(id, r.path.begin(), r.path.end());
        obs::Span& s = ctx.trace->at(id);
        s.node = r.dest;
        s.hops = static_cast<std::uint32_t>(r.hops());
        s.messages = 1;
        s.end = ctx.tick(event);
        span = id;
      }
      if (leg.delivered) {
        ctx.pay_leg(leg, r.dest, 0, span);
        ref_scan_local(ctx, r.dest, sfc::Segment{index, index},
                       /*covered=*/true, event, span);
      } else {
        ctx.fail_leg(leg.resends, leg.penalty, 1, r.dest, 0, span);
      }
    } else {
      ctx.fail_leg(0, 0, 1, origin, 0, root);
    }
  } else {
    ctx.tasks.push_back(
        {origin, std::vector<sfc::ClusterNode>{{0, 0}}, 0, root});
    while (!ctx.tasks.empty()) {
      auto task = std::move(ctx.tasks.front());
      ctx.tasks.pop_front();
      ref_resolve_at_node(ctx, task.node, std::move(task.clusters),
                          task.event, task.span);
    }
  }

  QueryResult result;
  result.complete = ctx.complete;
  result.elements = std::move(ctx.results);
  result.stats.matches = result.elements.size();
  result.stats.routing_nodes = ctx.routing.size();
  result.stats.processing_nodes = ctx.processing.size();
  result.stats.data_nodes = ctx.data_nodes.size();
  result.stats.messages = ctx.messages;
  result.stats.retries = ctx.retries;
  result.stats.failed_clusters = ctx.failed_clusters;
  result.timing = std::move(ctx.timing);
  result.stats.critical_path_hops = ref_critical_path_of(result.timing);
#if SQUID_OBS_ENABLED
  if (ctx.trace) {
    recorder.at(root).end =
        static_cast<sim::Time>(result.stats.critical_path_hops);
    result.trace = std::make_shared<const obs::Trace>(recorder.take());
  }
#endif
  return result;
}

std::size_t SquidSystem::count_reference(const keyword::Query& query,
                                         NodeId origin) const {
  SQUID_REQUIRE(ring_.contains(origin), "query origin is not a live node");
  std::optional<ScopedCacheWriter> cache_guard;
  if (config_.cache_cluster_owners) cache_guard.emplace(*cache_writers_);
  RefQueryContext ctx;
  ctx.rect = space_.to_rect(query);
  refiner_.validate_query(ctx.rect);
  ctx.dispatch_budget = 64 * (ring_.size() + 8);
  ctx.count_only = true;
  ctx.routing.insert(origin);
  ctx.tasks.push_back({origin, std::vector<sfc::ClusterNode>{{0, 0}}, 0, -1});
  while (!ctx.tasks.empty()) {
    auto task = std::move(ctx.tasks.front());
    ctx.tasks.pop_front();
    ref_resolve_at_node(ctx, task.node, std::move(task.clusters), task.event,
                        task.span);
  }
  return ctx.count;
}

QueryResult SquidSystem::query_centralized_reference(
    const keyword::Query& query, NodeId origin,
    std::size_t max_segments) const {
  SQUID_REQUIRE(ring_.contains(origin), "query origin is not a live node");
  RefQueryContext ctx;
  ctx.rect = space_.to_rect(query);
  refiner_.validate_query(ctx.rect);
  ctx.dispatch_budget = 64 * (ring_.size() + 8) + 4 * max_segments;
  ctx.routing.insert(origin);
  ctx.processing.insert(origin);

  const std::vector<sfc::Segment> segments =
      refiner_.decompose_capped(ctx.rect, max_segments);

  std::int32_t root = -1;
  std::int32_t span = -1;
#if SQUID_OBS_ENABLED
  obs::TraceRecorder recorder;
  if (trace_enabled_) {
    ctx.trace = &recorder;
    ctx.depth.push_back(0);
    root = recorder.begin(obs::SpanKind::kQuery, -1, 0, 0);
    recorder.at(root).node = origin;
    recorder.add_path_node(root, origin);
    span = recorder.begin(obs::SpanKind::kRefineDescend, root, 0, 0);
    recorder.at(span).node = origin;
    recorder.at(span).batch = static_cast<std::uint32_t>(segments.size());
  }
#endif

  for (const sfc::Segment& seg : segments) {
    ref_collect_segment(ctx, origin, seg, /*covered=*/false, /*event=*/0,
                        span);
  }

  QueryResult result;
  result.complete = ctx.complete;
  result.elements = std::move(ctx.results);
  result.stats.matches = result.elements.size();
  result.stats.routing_nodes = ctx.routing.size();
  result.stats.processing_nodes = ctx.processing.size();
  result.stats.data_nodes = ctx.data_nodes.size();
  result.stats.messages = ctx.messages;
  result.stats.retries = ctx.retries;
  result.stats.failed_clusters = ctx.failed_clusters;
  result.timing = std::move(ctx.timing);
  result.stats.critical_path_hops = ref_critical_path_of(result.timing);
#if SQUID_OBS_ENABLED
  if (ctx.trace) {
    recorder.at(root).end =
        static_cast<sim::Time>(result.stats.critical_path_hops);
    result.trace = std::make_shared<const obs::Trace>(recorder.take());
  }
#endif
  return result;
}

} // namespace squid::core
