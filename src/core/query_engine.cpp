// The distributed query engine (paper 3.4), message-driven (DESIGN.md 4e):
// translate the query to refinement-tree clusters, embed the tree into the
// overlay, prune branches that resolve locally, and aggregate sub-clusters
// headed to the same peer. Resolution is not a C++ recursion: each step is
// a typed message (core/messages.hpp) that the query's QueryExec
// (core/runtime.hpp) posts on a sim::Engine and SquidSystem::deliver runs
// at its destination, so queries can overlap on one virtual clock
// (query_async) and every leg passes the uniform fault interception point
// (Engine::admit).
//
// Bit-identicality contract: the synchronous query() and
// query_centralized() wrappers drive a private engine in lockstep mode and
// are locked bit-identical to the frozen seed resolver
// (query_engine_reference.cpp) by tests/core/async_differential_test.cpp —
// results, QueryStats, derive_stats on traces, the timing DAG, and the
// fault injector's RNG stream, faults off and on (a kCount query_aggregate
// is locked to the seed's count). The invariant that makes this work:
// handlers do ALL order-sensitive planning (routing, fault verdicts,
// budget, cache consults, timing events, non-scan spans) at delivery time
// in the seed recursion's order (engine FIFO == the seed's task deque), and
// defer only the order-insensitive store sweeps as ScanRequest messages.
//
// Observability (DESIGN.md 4c): every accounting site pairs its QueryStats
// mutation with a trace span carrying the same quantities, so
// obs::derive_stats can rebuild the legacy aggregates bit-identically from
// the trace alone (tests/obs/trace_differential_test.cpp enforces this).
// The planner below only decides where messages go; each send is recorded
// (count, routing set, telemetry, span, leg verdict) by one of two
// QueryExec methods: forward (routed sub-query or owner-chain hop) and
// dispatch_head (a cluster dispatch's head, routed or cache-resolved). A
// delivered ScanRequest is one step, SquidSystem::scan: a single store walk
// that writes matches (or an aggregate fold), reply bytes, telemetry and
// the kLocalScan span straight into the query's exec.
// With SQUID_OBS_ENABLED=0 the exec's trace pointer is a constexpr nullptr
// and every `if (ex.trace)` branch folds away.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "squid/core/aggregate.hpp"
#include "squid/core/runtime.hpp"
#include "squid/core/serialize.hpp"
#include "squid/core/system.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/obs/trace.hpp"
#include "squid/sfc/cursor.hpp"
#include "squid/sim/fault.hpp"
#include "squid/util/require.hpp"

namespace squid::core {

using overlay::in_open_closed;

namespace {

/// Distinct ids in a per-query node log (sorts the log in place).
std::size_t distinct_count(std::vector<overlay::NodeId>& log) {
  std::sort(log.begin(), log.end());
  return static_cast<std::size_t>(
      std::unique(log.begin(), log.end()) - log.begin());
}

/// The largest prefix of `seg` owned by node `at` (whose range is
/// (pred, at]), given that `at` owns seg.lo. Returns the clipped segment.
sfc::Segment clip_local(overlay::NodeId at, sfc::Segment seg) {
  if (at < seg.lo) return seg; // wrapped ownership: owns through space end
  return {seg.lo, std::min(seg.hi, at)};
}

/// True when the whole segment lives on `at` (which owns seg.lo).
bool entirely_local(overlay::NodeId at, const sfc::Segment& seg) {
  return at >= seg.hi || at < seg.lo;
}

/// Process-wide id source for query messages (file-local so SquidSystem
/// stays movable; ids only need to be unique, not dense).
std::uint64_t next_query_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Per-query registry publishing (one shot at query end; handles resolved
/// once). Dead code when the obs layer is compiled out.
void publish_query_metrics(const QueryStats& stats, bool complete) {
  if constexpr (obs::kEnabled) {
    auto& registry = obs::Registry::global();
    static obs::Counter& queries = registry.counter("squid.query.count");
    static obs::Counter& messages = registry.counter("squid.query.messages");
    static obs::Counter& matches = registry.counter("squid.query.matches");
    static obs::Counter& resends = registry.counter("squid.retry.resends");
    static obs::Counter& failed =
        registry.counter("squid.query.failed_clusters");
    static obs::Counter& incomplete =
        registry.counter("squid.query.incomplete");
    static obs::Counter& bytes = registry.counter("squid.query.bytes");
    static obs::HistogramMetric& critical =
        registry.histogram("squid.query.critical_path_hops", 0, 64, 16);
    static obs::HistogramMetric& processing =
        registry.histogram("squid.query.processing_nodes", 0, 256, 32);
    queries.add(1);
    messages.add(stats.messages);
    matches.add(stats.matches);
    bytes.add(stats.bytes_shipped);
    if (stats.retries > 0) resends.add(stats.retries);
    if (stats.failed_clusters > 0) failed.add(stats.failed_clusters);
    if (!complete) incomplete.add(1);
    critical.observe(static_cast<double>(stats.critical_path_hops));
    processing.observe(static_cast<double>(stats.processing_nodes));
  } else {
    (void)stats;
    (void)complete;
  }
}

/// Aggregation-pushdown counters (DESIGN.md 4g), published once per
/// aggregate query at finalize. Dead code when obs is compiled out.
void publish_aggregation_metrics(std::uint64_t partials_merged,
                                 std::uint64_t elements_folded,
                                 std::uint64_t bytes_saved) {
  if constexpr (obs::kEnabled) {
    auto& registry = obs::Registry::global();
    static obs::Counter& merged =
        registry.counter("squid.query.aggregation.partials_merged");
    static obs::Counter& folded =
        registry.counter("squid.query.aggregation.elements_folded");
    static obs::Counter& saved =
        registry.counter("squid.query.aggregation.bytes_saved");
    merged.add(partials_merged);
    folded.add(elements_folded);
    saved.add(bytes_saved);
  } else {
    (void)partials_merged;
    (void)elements_folded;
    (void)bytes_saved;
  }
}

/// Reply-path MTU for wire accounting: a reply of B bytes counts as
/// ceil(B / kReplyFrameBytes) frames in QueryStats::reply_messages.
constexpr std::size_t kReplyFrameBytes = 1024;

/// Reply frames a `bytes`-sized reply occupies at the accounting MTU.
std::size_t frames_of(std::size_t bytes) {
  return std::max<std::size_t>(1, (bytes + kReplyFrameBytes - 1) /
                                      kReplyFrameBytes);
}

} // namespace

void SquidSystem::set_tracing(bool on) noexcept {
  trace_enabled_ = on && SQUID_OBS_ENABLED != 0;
}

void SquidSystem::set_telemetry(obs::EpochSampler* sampler) noexcept {
  telemetry_ = SQUID_OBS_ENABLED != 0 ? sampler : nullptr;
  if (telemetry_ != nullptr) telemetry_->set_id_bits(curve_->index_bits());
}

// --- Message handlers (run at delivery) -------------------------------------

void SquidSystem::deliver(QueryExec& ex, const msg::Message& message) const {
  struct V {
    const SquidSystem& sys;
    QueryExec& ex;
    // The planner reads the clusters in place while it posts new messages;
    // that is safe because sim::Engine::step moves each event out of its
    // queue before running it, so the message stays put until deliver
    // returns.
    void operator()(const msg::ResolveRequest& r) const {
      sys.handle_resolve(ex, r.at, nullptr, r.clusters.clusters, r.event,
                         r.span);
    }
    void operator()(const msg::ClusterDispatch& d) const {
      sys.handle_resolve(ex, d.to, &d.head, d.batch.clusters, d.event, d.span);
    }
    void operator()(const msg::ScanRequest& s) const { sys.scan(ex, s); }
    void operator()(const msg::Reply&) const { sys.finalize_query(ex); }
    void operator()(const msg::PublishRequest&) const {
      // Update frames ride the update plane (core/update.hpp), which owns
      // its own safe-point commit discipline; a query must never post one.
      SQUID_REQUIRE(false, "update frame delivered inside a query exec");
    }
    void operator()(const msg::RetractRequest&) const {
      SQUID_REQUIRE(false, "update frame delivered inside a query exec");
    }
  };
  std::visit(V{*this, ex}, message);
}

void SquidSystem::scan(QueryExec& ex, const msg::ScanRequest& req) const {
  // Aggregate scans (req.agg.kind != kNone) fold matches into their record —
  // the pushdown of DESIGN.md 4g; element scans append them to the query's
  // results and size their reply as they go.
  AggScanRecord* record = nullptr;
  if (req.agg.kind != AggregateKind::kNone) {
    record = &ex.agg_scans[req.slot];
    record->at = req.at;
    record->partial.spec = req.agg;
  }
  std::uint64_t keys_scanned = 0;
  std::uint64_t keys_matched = 0;
  std::size_t matches = 0;
  std::size_t payload = 0; // element scans: wire bytes of the matches
  // The live-store sweep: a lockstep walk over the tiers in ascending key
  // order, tombstones skipped entirely (a retracted key is invisible to
  // keys_scanned, exactly as if it had never been published). A replica
  // scan reads the live store too: a valid entry's keys are the store's
  // keys in its segment, and an entry invalidated or dropped while the scan
  // was in flight must answer with the current keys anyway.
  store_.scan(req.segment.lo, req.segment.hi, [&](u128, const StoredKey& key) {
    ++keys_scanned;
    if (!req.covered && !ex.rect.contains(key.point)) return;
    ++keys_matched;
    matches += key.elements.size();
    if (record != nullptr) {
      for (const DataElement& e : key.elements) {
        record->partial.fold(e);
        // What shipping this element instead would have cost; feeds the
        // bytes_saved counter, so skip the serializer when obs is off.
        if constexpr (obs::kEnabled)
          record->ship_bytes += element_wire_size(e);
      }
      return;
    }
    for (const DataElement& e : key.elements) payload += element_wire_size(e);
    ex.results.insert(ex.results.end(), key.elements.begin(),
                      key.elements.end());
  });
  if (req.replica != 0) {
    // Credit the entry (if it still exists) with the load it absorbed.
    const auto it = replica_cache_.find(req.replica);
    if (it != replica_cache_.end())
      it->second.serves->fetch_add(keys_matched, std::memory_order_relaxed);
  }

  ex.processing.push_back(req.at);
  if (keys_matched > 0) ex.data_nodes.push_back(req.at);
  std::size_t frames = 0;
  if (record == nullptr) {
    // Reply-path accounting: this scan site answers the origin directly
    // with one reply (split into MTU frames), measured through the real
    // serializer. Sums of per-scan terms, so mode-independent.
    const std::size_t bytes =
        reply_wire_size(req.at, ex.origin, matches, matches, payload);
    frames = frames_of(bytes);
    ex.bytes_shipped += bytes;
    ex.reply_messages += frames;
  }
  if (ex.telemetry != nullptr) {
    if (record == nullptr)
      ex.telemetry->record(req.at, obs::LoadKind::kReplyForwarded, frames,
                           ex.tick(req.event));
    ex.telemetry->record(req.at, obs::LoadKind::kScanHit, keys_matched,
                         ex.tick(req.event));
  }
  if (ex.trace) {
    const std::int32_t id = ex.trace->begin(obs::SpanKind::kLocalScan, req.span,
                                            req.event, ex.tick(req.event));
    obs::Span& s = ex.trace->at(id);
    s.node = req.at;
    s.range_lo = req.segment.lo;
    s.range_hi = req.segment.hi;
    s.keys_scanned = keys_scanned;
    s.keys_matched = keys_matched;
    s.matches = matches;
  }
}

void SquidSystem::plan_chain(QueryExec& ex, NodeId at, NodeId pred,
                             sfc::Segment seg, bool covered,
                             std::int32_t event, std::int32_t span) const {
  // Scan every owner of `seg` in ring order. The paper notes a cluster "may
  // be mapped to one or more adjacent nodes"; each forward to the next
  // owner is one neighbor message. The walk is *planned* here, eagerly
  // (fault verdicts and timing events in seed order); the per-owner store
  // sweeps are posted as ScanRequests and run at their delivery ticks.
  // The owner being scanned; when `at` does not own seg.lo, routing to the
  // segment's first owner is the walk's first send.
  QueryExec::Arrival owner{true, at, event, span};
  if (!in_open_closed(pred, at, seg.lo)) {
    if (!ex.spend_dispatch()) return;
    const overlay::RouteResult r = ring_.route(at, seg.lo);
    if (!r.ok) {
      ex.fail_leg(0, 0, 1, at, event, span);
      return;
    }
    owner = ex.forward(r.path, event, span);
  }
  while (owner.delivered) {
    const sfc::Segment local = clip_local(owner.at, seg);
    ex.post(msg::ScanRequest{ex.id, owner.at, local, covered, {}, 0,
                             owner.event, owner.span});
    if (entirely_local(owner.at, seg)) return;
    if (!ex.spend_dispatch()) return;
    seg.lo = local.hi + 1;
    // Neighbor forward: one hop to the next owner in ring order.
    const NodeId hop[] = {
        owner.at, ring_.successor_of((owner.at + 1) & ring_.id_mask())};
    owner = ex.forward(hop, owner.event, owner.span);
  }
}

void SquidSystem::dispatch_clusters(
    QueryExec& ex, NodeId from,
    const std::vector<std::pair<u128, sfc::ClusterNode>>& clusters,
    std::int32_t event, std::int32_t span) const {
  // Paper 3.4.2, second optimization: the clusters are in ascending curve
  // order; probe with the first, learn the owner's identifier from its
  // reply, then ship every further cluster owned by the same peer as one
  // aggregated message. Without aggregation each cluster is its own routed
  // message. Each entry carries its precomputed segment-lo key.
  std::size_t i = 0;
  while (i < clusters.size()) {
    if (!ex.spend_dispatch()) return;
    const u128 head_lo = clusters[i].first;
    const sfc::ClusterNode& head = clusters[i].second;

    // The dispatch span opens before its outcome is known; route/cache
    // consult spans nest under it. A failed route leaves it zero-cost.
    std::int32_t dspan = -1;
    if (ex.trace) {
      dspan = ex.trace->begin(obs::SpanKind::kClusterDispatch, span, event,
                              ex.tick(event));
      obs::Span& s = ex.trace->at(dspan);
      s.level = head.level;
      s.range_lo = head_lo;
      s.range_hi = head_lo;
    }

    // Hot-cluster replica consult (docs/LOAD_BALANCING.md): a valid entry
    // covering this cluster is answered one hop away by one of its replica
    // peers — no overlay routing, no refinement at the owner, no
    // owner-chain walk. The peer choice is stateless ((prefix + origin) mod
    // replica count — origin is part of the query spec, so every delivery
    // mode and worker count picks the same peer, while different clients of
    // one hot cluster still fan out across the replica set). A picked peer
    // that has since failed or left the ring cannot answer: the dispatch
    // falls through to the owner cache and routing as if no entry matched.
    // While no entries are installed this whole branch is one empty() check
    // — the reaction layer's bit-transparency lock
    // (tests/core/reaction_test.cpp) rests on that.
    if (!replica_cache_.empty()) {
      const ReplicaEntry* entry = replica_serving(head);
      const NodeId replica =
          entry == nullptr ? 0
                           : entry->replicas[static_cast<std::size_t>(
                                 (head.prefix + ex.origin) %
                                 entry->replicas.size())];
      if (entry != nullptr && ring_.contains(replica)) {
        replica_counters_->serves.fetch_add(1, std::memory_order_relaxed);
        const NodeId direct[] = {from, replica};
        const QueryExec::Leg leg = ex.dispatch_head(
            direct, /*cache_hit=*/true, head.level, event, dspan);
        if (leg.delivered) {
          const std::int32_t arrive =
              ex.add_event(event, 1 + static_cast<std::size_t>(leg.penalty));
          if (ex.trace) {
            obs::Span& s = ex.trace->at(dspan);
            s.node = replica;
            s.event = arrive;
            s.batch = 1;
            s.hops = 1;
            s.messages = 0;
            s.range_hi = head_lo;
            s.end = ex.tick(arrive);
          }
          // The replica answers the whole cluster: one scan over the
          // cluster's segment, rectangle-filtered (the entry covers every
          // key in the segment, matching or not).
          ex.post(msg::ScanRequest{ex.id, replica, refiner_.segment_of(head),
                                   /*covered=*/false, {}, 0, arrive, dspan,
                                   entry->id});
        }
        ++i;
        continue;
      }
    }

    // Owner-cache consult: only the dispatching peer's own memory of past
    // replies. A hit is one direct message to the remembered owner.
    overlay::RouteResult route;
    bool from_cache = false;
    if (config_.cache_cluster_owners) {
      const auto cache_it = owner_cache_.find(from);
      if (cache_it != owner_cache_.end()) {
        const auto hit = cache_it->second.find({head.level, head.prefix});
        if (hit != cache_it->second.end() && ring_.contains(hit->second) &&
            in_open_closed(ring_.predecessor_of(hit->second), hit->second,
                           head_lo)) {
          from_cache = true;
          ++cache_stats_.hits;
          route = overlay::RouteResult{true, hit->second, {from, hit->second}};
        } else if (hit != cache_it->second.end()) {
          ++cache_stats_.stale;
          cache_it->second.erase(hit);
        }
      }
      if (!from_cache) {
        ++cache_stats_.misses;
        if (ex.trace) {
          const std::int32_t id = ex.trace->begin(
              obs::SpanKind::kCacheMiss, dspan, event, ex.tick(event));
          obs::Span& s = ex.trace->at(id);
          s.node = from;
          s.level = head.level;
        }
      }
    }
    if (!from_cache) {
      route = ring_.route(from, head_lo);
      if (!route.ok) {
        // Unroutable under churn: abandon only this head cluster and keep
        // dispatching the rest (the seed abandoned the whole remainder).
        ex.fail_leg(0, 0, 1, from, event, dspan);
        ++i;
        continue;
      }
    }

    // The head sub-query is one message leg from -> dest; under faults it
    // may need resends or be lost for good. A lost head drops only its own
    // cluster: no identifier reply arrives, so no batch forms, and the
    // would-be siblings are dispatched individually by later iterations.
    const QueryExec::Leg leg =
        ex.dispatch_head(route.path, from_cache, head.level, event, dspan);
    if (!leg.delivered) {
      ++i;
      continue;
    }
    const NodeId dest = route.dest;
    const std::size_t dispatch_hops = std::max<std::size_t>(route.hops(), 1);

    std::size_t batch_end = i + 1;
    bool reply_message = false;
    if (config_.aggregate_subclusters) {
      if (!from_cache) {
        ex.messages += 1; // the owner's identifier reply
        reply_message = true;
      }
      if (config_.cache_cluster_owners) {
        owner_cache_[from][{head.level, head.prefix}] = dest;
      }
      const NodeId dest_pred = ring_.predecessor_of(dest);
      while (batch_end < clusters.size() &&
             in_open_closed(dest_pred, dest, clusters[batch_end].first)) {
        ++batch_end;
      }
      if (batch_end > i + 1) ex.messages += 1; // one aggregated batch
    }
    // The head travels with the probe; aggregated siblings wait for the
    // identifier reply and then one direct hop (reply + batch = 2 hops).
    // Backoff waits and delivery delay push the whole arrival later.
    const std::int32_t batch_event = ex.add_event(
        event, dispatch_hops + static_cast<std::size_t>(leg.penalty) +
                   (batch_end > i + 1 ? 2 : 0));
    if (ex.trace) {
      if (batch_end > i + 1) {
        const std::int32_t id = ex.trace->begin(
            obs::SpanKind::kAggregationMerge, dspan, event, ex.tick(event));
        obs::Span& s = ex.trace->at(id);
        s.node = from;
        s.batch = static_cast<std::uint32_t>(batch_end - i - 1);
        s.messages = 1; // the aggregated batch
        s.end = ex.tick(batch_event);
      }
      obs::Span& s = ex.trace->at(dspan);
      s.node = dest;
      s.event = batch_event;
      s.batch = static_cast<std::uint32_t>(batch_end - i);
      s.hops = static_cast<std::uint32_t>(dispatch_hops);
      s.messages = reply_message ? 1 : 0; // the identifier reply, if paid
      s.range_hi = clusters[batch_end - 1].first;
      s.end = ex.tick(batch_event);
    }
    msg::ClusterDispatch dispatch;
    dispatch.query = ex.id;
    dispatch.from = from;
    dispatch.to = dest;
    dispatch.head = head;
    dispatch.batch.clusters.reserve(batch_end - i - 1);
    for (std::size_t k = i + 1; k < batch_end; ++k)
      dispatch.batch.clusters.push_back(clusters[k].second);
    dispatch.event = batch_event;
    dispatch.span = dspan;
    ex.post(std::move(dispatch));
    i = batch_end;
  }
}

void SquidSystem::handle_resolve(QueryExec& ex, NodeId at,
                                 const sfc::ClusterNode* head,
                                 const std::vector<sfc::ClusterNode>& batch,
                                 std::int32_t event, std::int32_t span) const {
  ex.processing.push_back(at);
  if (ex.trace) {
    const std::int32_t id = ex.trace->begin(obs::SpanKind::kRefineDescend,
                                            span, event, ex.tick(event));
    obs::Span& s = ex.trace->at(id);
    s.node = at;
    s.batch = static_cast<std::uint32_t>((head ? 1 : 0) + batch.size());
    span = id;
  }
  const NodeId pred = ring_.predecessor_of(at);
  std::vector<std::pair<u128, sfc::ClusterNode>> remote; // (segment lo, node)
  // A branch disjoint from the query is dropped here; only the trace sees it.
  const auto trace_prune = [&](const sfc::ClusterNode& pruned) {
    if (!ex.trace) return;
    const sfc::Segment range = refiner_.segment_of(pruned);
    const std::int32_t id = ex.trace->begin(obs::SpanKind::kPrune, span, event,
                                            ex.tick(event));
    obs::Span& s = ex.trace->at(id);
    s.node = at;
    s.level = pruned.level;
    s.range_lo = range.lo;
    s.range_hi = range.hi;
  };

  // Refine everything assigned to this node as deep as local knowledge
  // allows (paper Figs 6-8): clusters fully inside our key range are matched
  // against the store without further refinement; covered clusters sweep
  // their owner chain; boundary-crossing clusters refine one level, their
  // children either staying local or queueing for dispatch.
  //
  // Tree expansion rides the incremental cursor. The work list is FIFO, so
  // consecutive items are siblings or cousins and each seek ascends only to
  // their common ancestor: O(dims) between siblings, then O(dims) per child
  // cell. The query rectangle was validated once at the query entry point,
  // so per-node work is unchecked, and children carry the relation computed
  // at enqueue time.
  sfc::RefineCursor cursor(*curve_);
  const unsigned dims = curve_->dims();
  const unsigned bits = curve_->bits_per_dim();
  const u128 fanout = cursor.fanout();
  using sfc::CellRelation;
  struct WorkItem {
    sfc::ClusterNode node;
    CellRelation relation;
    bool classified = false;
  };
  std::vector<WorkItem> work;
  work.reserve((head ? 1 : 0) + batch.size());
  if (head) work.push_back({*head, {}, false});
  for (const auto& cluster : batch) work.push_back({cluster, {}, false});
  for (std::size_t next = 0; next < work.size(); ++next) {
    const WorkItem item = work[next]; // by value: push_back may reallocate
    const sfc::ClusterNode cluster = item.node;
    CellRelation relation = item.relation;
    if (!item.classified) {
      cursor.seek(cluster.prefix, cluster.level);
      relation = cursor.relation_to(ex.rect);
    }
    if (relation == CellRelation::disjoint) {
      trace_prune(cluster);
      continue;
    }
    const sfc::Segment seg = refiner_.segment_of(cluster);
    if (relation == CellRelation::covered) {
      plan_chain(ex, at, pred, seg, /*covered=*/true, event, span);
      continue;
    }
    const bool owns_lo = in_open_closed(pred, at, seg.lo);
    if (owns_lo && entirely_local(at, seg)) {
      // Fig 8's pruning: the owner's identifier is past the cluster's last
      // index, so every possible match is stored here.
      ex.post(msg::ScanRequest{ex.id, at, seg, /*covered=*/false, {}, 0,
                               event, span});
      continue;
    }
    // A partial cell is never a single point, so level < bits and the
    // child shift stays below 128.
    cursor.seek(cluster.prefix, cluster.level);
    const unsigned child_shift = (bits - cluster.level - 1) * dims;
    for (u128 w = 0; w < fanout; ++w) {
      const auto rel = cursor.classify_child(w, ex.rect);
      const sfc::ClusterNode child{
          (dims >= 128 ? 0 : cluster.prefix << dims) | w, cluster.level + 1};
      if (rel == CellRelation::disjoint) {
        trace_prune(child);
        continue;
      }
      const u128 child_lo = seg.lo | (w << child_shift);
      if (in_open_closed(pred, at, child_lo)) {
        work.push_back({child, rel, true});
      } else {
        remote.emplace_back(child_lo, child);
      }
    }
  }

  // Sort by the precomputed segment keys (curve order).
  std::sort(remote.begin(), remote.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  dispatch_clusters(ex, at, remote, event, span);
}

void SquidSystem::finalize_aggregate(QueryExec& ex) const {
  // Origin-side closure of the pushdown tree: fold each node's scan partials,
  // then merge child partials into their dispatch parents bottom-up. Every
  // merge operator is associative and commutative (ExactSum for kSum, bounded
  // sorted lists for top-k/group-by), so the result is bit-identical to the
  // origin folding all elements itself — regardless of delivery mode, worker
  // count, or arrival order.
  const AggregateSpec& spec = *ex.agg;
  std::map<NodeId, AggregatePartial> nodes;
  std::uint64_t partials_merged = 0;
  std::uint64_t elements_folded = 0;
  std::uint64_t shipall_bytes = 0;
  for (const AggScanRecord& rec : ex.agg_scans) {
    auto [it, fresh] = nodes.try_emplace(rec.at, make_partial(spec));
    (void)fresh;
    it->second.merge(rec.partial);
    ++partials_merged;
    elements_folded += rec.partial.count;
    if constexpr (obs::kEnabled) {
      // What this scan would have shipped without pushdown: every matching
      // element, straight to the origin. Feeds bytes_saved only.
      shipall_bytes += reply_wire_size(
          rec.at, ex.origin, rec.partial.count,
          static_cast<std::size_t>(rec.partial.count), rec.ship_bytes);
    }
  }
  // Every tree node answers its parent exactly once, even when it found
  // nothing — an empty partial is still a reply on the wire.
  nodes.try_emplace(ex.origin, make_partial(spec));
  for (const auto& [child, parent] : ex.reply_edges) {
    nodes.try_emplace(child, make_partial(spec));
    nodes.try_emplace(parent, make_partial(spec));
  }
  // Reverse discovery order visits children before the parents that sent
  // them work, so each node's partial is final when it ships upward.
  for (auto it = ex.reply_edges.rbegin(); it != ex.reply_edges.rend(); ++it) {
    const AggregatePartial& from = nodes.at(it->first);
    const std::size_t bytes =
        reply_wire_size(it->first, it->second, from.count, 0, 0, &from);
    ex.bytes_shipped += bytes;
    const std::size_t frames = frames_of(bytes);
    ex.reply_messages += frames;
    if (ex.telemetry != nullptr)
      ex.telemetry->record(it->first, obs::LoadKind::kReplyForwarded, frames,
                           0);
    nodes.at(it->second).merge(from);
    ++partials_merged;
  }
  ex.result.aggregate =
      std::make_shared<const AggregatePartial>(std::move(nodes.at(ex.origin)));
  if (ex.publish_metrics) {
    publish_aggregation_metrics(partials_merged, elements_folded,
                                shipall_bytes > ex.bytes_shipped
                                    ? shipall_bytes - ex.bytes_shipped
                                    : 0);
  }
}

void SquidSystem::finalize_query(QueryExec& ex) const {
  QueryResult& result = ex.result;
  if (ex.agg) finalize_aggregate(ex);
  result.complete = ex.complete;
  result.elements = std::move(ex.results);
  result.stats.matches =
      ex.agg ? result.aggregate->count : result.elements.size();
  result.stats.routing_nodes = distinct_count(ex.routing);
  result.stats.processing_nodes = distinct_count(ex.processing);
  result.stats.data_nodes = distinct_count(ex.data_nodes);
  result.stats.messages = ex.messages;
  result.stats.retries = ex.retries;
  result.stats.failed_clusters = ex.failed_clusters;
  result.stats.bytes_shipped = ex.bytes_shipped;
  result.stats.reply_messages = ex.reply_messages;
  result.timing = std::move(ex.timing);
  // add_event keeps every event's hop-depth: the critical path is the max.
  result.stats.critical_path_hops = static_cast<std::size_t>(
      *std::max_element(ex.depth.begin(), ex.depth.end()));
#if SQUID_OBS_ENABLED
  if (ex.trace) {
    ex.trace->at(ex.root_span).end =
        static_cast<sim::Time>(result.stats.critical_path_hops);
    result.trace = std::make_shared<const obs::Trace>(ex.trace->take());
    ex.trace = nullptr;
  }
#endif
  if (ex.publish_metrics) publish_query_metrics(result.stats, result.complete);
#if SQUID_OBS_ENABLED
  // The one flush per query, at Reply delivery. Everything above is already
  // settled, so the sampler sees a finished query's events.
  if (ex.telemetry != nullptr && telemetry_ != nullptr) {
    telemetry_->flush(*ex.telemetry, ex.started_at);
    ex.telemetry = nullptr;
  }
#endif
  ex.cache_guard.reset();
  ex.completed_at = ex.engine->now();
  ex.finished = true;
}

// --- Launch / drive ---------------------------------------------------------

sfc::Rect SquidSystem::query_rect(const keyword::Query& query) const {
  sfc::Rect rect = space_.to_rect(query);
  refiner_.validate_query(rect); // once per query; per-node paths trust it
  return rect;
}

std::shared_ptr<QueryExec> SquidSystem::make_exec(
    sim::Engine& engine, DeliveryMode mode, const keyword::Query& query,
    NodeId origin) const {
  SQUID_REQUIRE(ring_.contains(origin), "query origin is not a live node");
  auto exec = std::make_shared<QueryExec>();
  QueryExec& ex = *exec;
  ex.id = next_query_id();
  ex.mode = mode;
  ex.engine = &engine;
  ex.sys = this;
  ex.origin = origin;
  ex.rect = query_rect(query);
  ex.dispatch_budget = 64 * (ring_.size() + 8); // churn safety valve
  ex.routing.push_back(origin);
  ex.started_at = engine.now();
#if SQUID_OBS_ENABLED
  if (trace_enabled_) {
    ex.recorder.emplace();
    ex.trace = &*ex.recorder;
    ex.root_span = ex.trace->begin(obs::SpanKind::kQuery, -1, 0, 0);
    ex.trace->at(ex.root_span).node = origin;
    ex.trace->add_path_node(ex.root_span, origin);
  }
#endif
  return exec;
}

std::shared_ptr<QueryExec> SquidSystem::start_exec(
    sim::Engine& engine, DeliveryMode mode, const keyword::Query& query,
    NodeId origin, const AggregateSpec* aggregate) const {
  if (aggregate != nullptr) validate_aggregate(*aggregate);
  auto exec = make_exec(engine, mode, query, origin);
  QueryExec& ex = *exec;
  if (config_.cache_cluster_owners) ex.cache_guard.emplace(*cache_writers_);
  ex.publish_metrics = true;
  if (aggregate != nullptr) {
    ex.agg = *aggregate;
    // The origin is the reply tree's root: pre-seeding it means the first
    // hop away from it records a (child, origin) edge, never a self-edge.
    ex.reply_seen.insert(origin);
  }
#if SQUID_OBS_ENABLED
  // Telemetry scratch is armed only while a sampler is attached; with none
  // every recording site is one dead null check.
  if (telemetry_ != nullptr) {
    ex.telemetry_store.emplace();
    ex.telemetry = &*ex.telemetry_store;
  }
#endif
  return exec;
}

void SquidSystem::begin_resolution(QueryExec& ex) const {
  bool is_point = true;
  for (const auto& iv : ex.rect.dims) is_point &= (iv.lo == iv.hi);
  if (is_point) {
    // Paper 3.4.1: a query of whole keywords maps to at most one index and
    // resolves with the plain data-lookup protocol.
    sfc::Point point;
    for (const auto& iv : ex.rect.dims) point.push_back(iv.lo);
    const u128 index = curve_->index_of(point);
    const overlay::RouteResult r = ring_.route(ex.origin, index);
    if (!r.ok) {
      ex.fail_leg(0, 0, 1, ex.origin, 0, ex.root_span);
    } else if (const QueryExec::Arrival owner =
                   ex.forward(r.path, 0, ex.root_span);
               owner.delivered) {
      ex.post(msg::ScanRequest{ex.id, owner.at, sfc::Segment{index, index},
                               /*covered=*/true, {}, 0, owner.event,
                               owner.span});
    }
  } else {
    // The origin assigns itself the refinement-tree root.
    ex.post(msg::ResolveRequest{ex.id, ex.origin,
                                msg::AggregateBatch{{sfc::ClusterNode{0, 0}}},
                                0, ex.root_span});
  }
  // A launch that posted nothing (unroutable point query) completes now.
  ex.maybe_complete();
}

namespace {

/// Drain a lockstep query on its private engine. The engine FIFO replays
/// the seed recursion's order; the loop ends at Reply delivery.
void drive_to_completion(sim::Engine& engine, const QueryExec& ex) {
  while (!ex.finished && engine.step()) {
  }
  SQUID_REQUIRE(ex.finished,
                "query runtime stalled: engine drained before the Reply");
}

} // namespace

QueryResult SquidSystem::run_lockstep(const keyword::Query& query,
                                      NodeId origin,
                                      const AggregateSpec* aggregate,
                                      sim::FaultInjector* fault) const {
  // A private engine per synchronous query, started at the injector's
  // clock so lockstep stepping (all events at one timestamp) never moves
  // it — partition windows behave exactly as in the seed path.
  sim::Engine engine(fault ? fault->now() : 0);
  engine.set_fault_injector(fault);
  auto exec =
      start_exec(engine, DeliveryMode::kLockstep, query, origin, aggregate);
  begin_resolution(*exec);
  drive_to_completion(engine, *exec);
  return std::move(exec->result);
}

QueryHandle SquidSystem::launch_async(const keyword::Query& query,
                                      NodeId origin, sim::Engine& engine,
                                      const AggregateSpec* aggregate) const {
  auto exec =
      start_exec(engine, DeliveryMode::kVirtualTime, query, origin, aggregate);
  begin_resolution(*exec);
  return QueryHandle(exec);
}

QueryResult SquidSystem::query(const keyword::Query& query,
                               NodeId origin) const {
  return run_lockstep(query, origin, nullptr, fault_);
}

QueryResult SquidSystem::query(const std::string& text, Rng& rng) const {
  return query(space_.parse(text), ring_.random_node(rng));
}

QueryHandle SquidSystem::query_async(const keyword::Query& query,
                                     NodeId origin,
                                     sim::Engine& engine) const {
  return launch_async(query, origin, engine, nullptr);
}

// --- Aggregation pushdown (DESIGN.md 4g) ------------------------------------

void SquidSystem::validate_aggregate(const AggregateSpec& spec) const {
  SQUID_REQUIRE(spec.kind != AggregateKind::kNone,
                "aggregate spec needs a kind");
  SQUID_REQUIRE(spec.dim < space_.dims(), "aggregate dimension out of range");
  switch (spec.kind) {
  case AggregateKind::kSum:
  case AggregateKind::kMin:
  case AggregateKind::kMax:
  case AggregateKind::kTopK:
    SQUID_REQUIRE(std::holds_alternative<keyword::NumericCodec>(
                      space_.dimension(spec.dim)),
                  "numeric aggregate over a non-numeric dimension");
    break;
  default:
    break;
  }
  if (spec.kind == AggregateKind::kTopK)
    SQUID_REQUIRE(spec.k >= 1, "top-k needs k >= 1");
}

QueryResult SquidSystem::query_aggregate(const keyword::Query& query,
                                         const AggregateSpec& spec,
                                         NodeId origin) const {
  // Same planning as query() — identical routing, fault draws, and timing —
  // only the scan sites fold instead of shipping. That makes pushdown-vs-
  // ship-all comparisons (bench/abl_aggregation) apples to apples.
  return run_lockstep(query, origin, &spec, fault_);
}

QueryHandle SquidSystem::query_aggregate_async(const keyword::Query& query,
                                               const AggregateSpec& spec,
                                               NodeId origin,
                                               sim::Engine& engine) const {
  return launch_async(query, origin, engine, &spec);
}

QueryResult SquidSystem::query_centralized(const keyword::Query& query,
                                           NodeId origin,
                                           std::size_t max_segments) const {
  sim::Engine engine(fault_ ? fault_->now() : 0);
  engine.set_fault_injector(fault_);
  // A baseline, so make_exec alone: no registry metrics, no telemetry
  // scratch, no cache guard.
  auto exec = make_exec(engine, DeliveryMode::kLockstep, query, origin);
  QueryExec& ex = *exec;
  ex.dispatch_budget += 4 * max_segments;
  ex.processing.push_back(origin);

  // The origin expands the refinement tree by itself (paper 3.4.1's
  // unscalable straw man) and sends one message per cluster. Segments are
  // an over-approximation when the cap bites, so owners filter locally.
  const std::vector<sfc::Segment> segments =
      refiner_.decompose_capped(ex.rect, max_segments);

  std::int32_t span = -1;
  if (ex.trace) {
    // The origin is the lone processing node; model its decomposition as
    // one refine-descend span so derive_stats sees it.
    span = ex.trace->begin(obs::SpanKind::kRefineDescend, ex.root_span, 0, 0);
    ex.trace->at(span).node = origin;
    ex.trace->at(span).batch = static_cast<std::uint32_t>(segments.size());
  }

  const NodeId pred = ring_.predecessor_of(origin);
  for (const sfc::Segment& seg : segments) {
    plan_chain(ex, origin, pred, seg, /*covered=*/false, /*event=*/0, span);
  }
  ex.maybe_complete();
  drive_to_completion(engine, ex);
  return std::move(exec->result);
}

} // namespace squid::core
