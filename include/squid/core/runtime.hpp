// Message-driven query runtime (DESIGN.md 4e).
//
// The seed query engine resolved a query as one synchronous C++ recursion;
// this layer lifts that recursion onto the sim::Engine as explicit typed
// messages (core/messages.hpp). Per query, one QueryExec is the protocol
// object: it holds the state the old call stack threaded implicitly —
// accounting sets, the timing DAG, the trace recorder, the fault/retry
// machinery, and a completion counter — and posts the query's messages.
// Delivering one runs its work at the destination node (SquidSystem's
// handlers, which post the follow-up messages); a delivered ScanRequest's
// handler writes its matches, reply bytes and scan span straight into the
// exec.
//
// Two delivery modes share all of that code:
//
//  * kLockstep — every message is scheduled at delay 0 on a private engine.
//    The engine's FIFO tie-break at equal timestamps then replays exactly
//    the seed recursion's work order, which is what keeps the synchronous
//    query() wrapper bit-identical to the seed path (results, QueryStats,
//    traces, the timing DAG, and — because fault verdicts are drawn in
//    planning order — the injector's RNG stream). The differential suite
//    (tests/core/async_differential_test.cpp) locks this.
//
//  * kVirtualTime — messages are scheduled at their timing-DAG tick
//    (started_at + hop-depth of their event), so many queries can be in
//    flight on ONE shared engine clock and their completion times are the
//    honest interleaving, not a serialization artifact. query_async uses
//    this; each handle completes when its Reply delivers.
//
// Fault interception is uniform: every protocol leg is judged by
// Engine::admit (the same point Engine::send is built on), with retries and
// backoff folded into the leg's timing-DAG hops by QueryExec::judge_leg.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "squid/core/messages.hpp"
#include "squid/core/types.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/obs/telemetry.hpp"
#include "squid/obs/trace.hpp"
#include "squid/sfc/types.hpp"
#include "squid/sim/engine.hpp"
#include "squid/util/require.hpp"

namespace squid::core {

class SquidSystem; // core/system.hpp

/// One scan site's contribution to an aggregate query (DESIGN.md 4g):
/// the partial it folded locally plus the bytes a ship-all-elements Reply
/// from that scan would have occupied (for the bytes_saved counter;
/// measured only with obs compiled in). Records live in QueryExec::agg_scans
/// at the slot assigned when the ScanRequest was posted, so every delivery
/// mode files identical records in identical order.
struct AggScanRecord {
  overlay::NodeId at = 0;
  AggregatePartial partial;
  std::uint64_t ship_bytes = 0;
};

/// Resends attempted per message leg after a presumed loss, before the leg
/// is abandoned (docs/FAULT_MODEL.md). Only consulted while a fault
/// injector is attached.
inline constexpr unsigned kSendRetries = 3;
/// Base retry backoff in virtual ticks: resend k first waits
/// kRetryBackoff << k (2, 4, 8 ticks).
inline constexpr sim::Time kRetryBackoff = 2;

/// How QueryExec::post schedules message arrivals (see file comment).
enum class DeliveryMode : std::uint8_t {
  kLockstep,    ///< all at delay 0; FIFO replays the seed recursion order
  kVirtualTime ///< at the message's timing-DAG tick; overlapping queries
};

/// query() advertises itself as a pure reader, but with cache_cluster_owners
/// on it writes owner_cache_/cache_stats_. This guard makes overlapping
/// cached queries fail loudly (SQUID_REQUIRE) instead of racing silently;
/// it is only armed when the cache is enabled, so the lock-free concurrent
/// read path stays untouched. An async query holds its guard until its
/// Reply finalizes it.
class ScopedCacheWriter {
public:
  explicit ScopedCacheWriter(std::atomic<int>& writers) : writers_(writers) {
    if (writers_.fetch_add(1, std::memory_order_acq_rel) != 0) {
      writers_.fetch_sub(1, std::memory_order_acq_rel);
      SQUID_REQUIRE(false,
                    "concurrent queries with cache_cluster_owners "
                    "enabled would race on the owner cache; disable the "
                    "cache for multi-threaded readers");
    }
  }
  ~ScopedCacheWriter() { writers_.fetch_sub(1, std::memory_order_acq_rel); }
  ScopedCacheWriter(const ScopedCacheWriter&) = delete;
  ScopedCacheWriter& operator=(const ScopedCacheWriter&) = delete;

private:
  std::atomic<int>& writers_;
};

/// Per-query execution state: everything the seed recursion kept on the
/// call stack, held explicitly so resolution can be suspended between
/// message deliveries. Owned by a shared_ptr that the engine's scheduled
/// closures and the caller's QueryHandle both hold.
struct QueryExec : std::enable_shared_from_this<QueryExec> {
  using NodeId = overlay::NodeId;

  // --- Identity / wiring ---------------------------------------------------
  std::uint64_t id = 0; ///< process-wide query id (messages carry it)
  DeliveryMode mode = DeliveryMode::kLockstep;
  sim::Engine* engine = nullptr;
  const SquidSystem* sys = nullptr; ///< runs the delivered messages' work
  NodeId origin = 0;

  // --- Resolution state (the old QueryContext) -----------------------------
  sfc::Rect rect;
  /// Append-only node logs (repeats allowed); finalize_query counts their
  /// distinct ids into QueryStats.
  std::vector<NodeId> routing;
  std::vector<NodeId> processing;
  std::vector<NodeId> data_nodes;
  std::size_t messages = 0;
  std::vector<DataElement> results;

  // --- Aggregation pushdown (DESIGN.md 4g) ---------------------------------
  /// Set for aggregate queries; scans then fold instead of shipping.
  std::optional<AggregateSpec> agg;
  /// Per-scan partials, indexed by the slot stamped on each ScanRequest at
  /// post time (deque: slots must stay stable while later posts happen).
  std::deque<AggScanRecord> agg_scans;
  /// The reply tree: (child, parent) edges in planning discovery order —
  /// the first peer to post work to a node is its parent. Partials merge
  /// bottom-up along these edges at finalize (reverse discovery order
  /// visits children before their parents).
  std::vector<std::pair<NodeId, NodeId>> reply_edges;
  std::set<NodeId> reply_seen;
  /// Record `to`'s discovery via a delivered leg from `from`. Only the
  /// first discovery counts; no-op for element queries (no tree needed —
  /// their replies go straight to the origin).
  void note_reply_parent(NodeId to, NodeId from) {
    if (!agg || to == from) return;
    if (reply_seen.insert(to).second) reply_edges.emplace_back(to, from);
  }

  /// Reply-path wire accounting (QueryStats::bytes_shipped/reply_messages).
  /// Element queries accumulate per scan; aggregate queries per
  /// dispatch-tree edge at finalize. Sums of planning-determined terms, so
  /// identical across delivery modes and worker counts.
  std::uint64_t bytes_shipped = 0;
  std::uint64_t reply_messages = 0;
  /// Message-dependency DAG; event 0 is the query start at the origin.
  std::vector<TimingEvent> timing{TimingEvent{}};
  /// Hop-depth of each timing event (= virtual-clock tick of delivery).
  /// Always maintained: kVirtualTime scheduling needs ticks even when the
  /// trace does not.
  std::vector<sim::Time> depth{0};
#if SQUID_OBS_ENABLED
  /// Storage + pointer: non-null only while this query records a trace.
  std::optional<obs::TraceRecorder> recorder;
  obs::TraceRecorder* trace = nullptr;
  /// Storage + pointer: non-null only while an EpochSampler is attached to
  /// the system (set_telemetry). Recording sites append load events here —
  /// purely passive scratch, flushed once at finalize — so with no sampler
  /// (or obs compiled out) every site is a dead null check.
  std::optional<obs::QueryTelemetry> telemetry_store;
  obs::QueryTelemetry* telemetry = nullptr;
#else
  static constexpr obs::TraceRecorder* trace = nullptr;
  static constexpr obs::QueryTelemetry* telemetry = nullptr;
#endif
  std::int32_t root_span = -1;
  /// Safety valve for inconsistent rings (heavy churn): a real query would
  /// time out; we stop dispatching and return what was found.
  std::size_t dispatch_budget = 0;

  // --- Fault accounting (docs/FAULT_MODEL.md) ------------------------------
  bool complete = true; ///< false once any sub-query is abandoned
  std::size_t retries = 0;
  std::size_t failed_clusters = 0;

  /// Outcome of one fault-aware message-leg delivery (judge_leg).
  struct Leg {
    bool delivered = true;
    std::size_t extra_messages = 0; ///< resends + duplicate copies paid
    std::size_t resends = 0;
    sim::Time penalty = 0; ///< backoff waits + delivery delay, in ticks
  };

  /// Judge one message leg from -> to through `engine`.admit — the uniform
  /// fault interception point — resending with exponential backoff
  /// (kRetryBackoff << attempt) up to kSendRetries times. No injector
  /// attached: immediate clean delivery (the zero-overhead path — no
  /// draws). Shared by query legs and update frames (core/update.hpp), so
  /// both consume an injector's stream identically. Query legs are judged
  /// at planning time, so the stream is consumed in exactly the seed
  /// recursion's order.
  static Leg judge_leg(sim::Engine& engine, NodeId from, NodeId to);

  /// Account a *delivered* leg's fault costs. Resends and duplicate copies
  /// are extra query messages; the retry span carries them so derive_stats
  /// stays bit-exact (messages += span.messages, retries += span.batch).
  void pay_leg(const Leg& leg, NodeId to, std::int32_t event,
               std::int32_t span);

  /// Account a leg abandoned for good. The original send was already paid
  /// by forward/dispatch_head together with its span (or never happened
  /// — an unroutable key — in which case `resends` is 0); the `resends`
  /// further copies paid here were all lost too, and `units` sub-queries go
  /// unanswered. The fault span mirrors it for derive_stats (messages and
  /// retries += span.messages, failed_clusters += span.batch).
  void fail_leg(std::size_t resends, sim::Time penalty, std::size_t units,
                NodeId to, std::int32_t event, std::int32_t span);

  /// Take one unit of the dispatch budget. Once it is spent the query is
  /// marked incomplete and the caller stops sending (returns false).
  bool spend_dispatch() {
    if (dispatch_budget == 0) {
      complete = false;
      return false;
    }
    --dispatch_budget;
    return true;
  }

  /// Where a forwarded message landed (forward).
  struct Arrival {
    bool delivered = false;
    NodeId at = 0;          ///< the receiver
    std::int32_t event = 0; ///< its arrival event in the timing DAG
    std::int32_t span = -1; ///< its kRouteHop span (caller's when untraced)
  };

  /// Send one planned message whose receiver continues the walk: a routed
  /// sub-query (`path` is the route, sender first, receiver last) or a
  /// one-hop forward along an owner chain (`path` = {at, next}). The one
  /// accounting site for these sends: the message count, the routing set,
  /// route-through telemetry per path node, a kRouteHop span under `span`,
  /// and the leg's verdict (pay_leg + reply-tree edge, or fail_leg). The
  /// arrival event sits path-hops plus the leg penalty after `event`.
  Arrival forward(std::span<const NodeId> path, std::int32_t event,
                  std::int32_t span);

  /// Send the head sub-query of a cluster dispatch along `path` (the route
  /// to the owner, or {from, peer} when a cache resolved it): the same
  /// accounting as forward, with the span — kRouteHop, or kCacheHit at the
  /// cluster's `level` plus a kCacheHit load on the sender — opened under
  /// the dispatch span at the send event. A lost leg lands its backoff in
  /// the timing DAG before fail_leg. Returns the leg; the caller schedules
  /// what the head's arrival carries.
  Leg dispatch_head(std::span<const NodeId> path, bool cache_hit,
                    unsigned level, std::int32_t event, std::int32_t span);

  std::int32_t add_event(std::int32_t parent, std::size_t hops) {
    timing.push_back(TimingEvent{parent, static_cast<std::uint32_t>(hops)});
    depth.push_back(depth[static_cast<std::size_t>(parent)] + hops);
    return static_cast<std::int32_t>(timing.size() - 1);
  }
  /// Virtual-clock tick of `event` (hop-depth from the query start).
  sim::Time tick(std::int32_t event) const {
    return depth[static_cast<std::size_t>(event)];
  }

  // --- Delivery ------------------------------------------------------------
  /// Schedule `message` for delivery on this query's engine. kLockstep:
  /// delay 0. kVirtualTime: at started_at + tick(event of the message).
  /// Increments outstanding; delivery runs the message's work at its
  /// destination (SquidSystem::deliver), decrements it and calls
  /// maybe_complete. The scheduled closure holds this exec alive.
  void post(msg::Message message);

  /// Post the finalizing Reply once nothing is outstanding. Called after
  /// every delivery and once after launch (a query whose start posts no
  /// message — e.g. an unroutable point query — completes immediately).
  void maybe_complete();

  // --- Completion ----------------------------------------------------------
  std::size_t outstanding = 0; ///< scheduled-but-undelivered messages
  bool reply_posted = false;
  bool finished = false;
  /// Every start_exec query publishes; query_centralized (a baseline) not.
  bool publish_metrics = false;
  sim::Time started_at = 0;  ///< engine clock at launch
  sim::Time completed_at = 0; ///< engine clock when the Reply delivered
  QueryResult result; ///< assembled by finalize (Reply delivery)
  /// Armed while cache_cluster_owners is on; released at finalize so an
  /// async query holds it for its whole in-flight window.
  std::optional<ScopedCacheWriter> cache_guard;
};

/// Future-like handle to an in-flight query_async. Completion is driven by
/// the caller running the engine (run()/step()); there is no blocking wait.
class QueryHandle {
public:
  QueryHandle() = default;

  bool valid() const noexcept { return exec_ != nullptr; }
  /// True once the query's Reply has been delivered on the engine.
  bool ready() const noexcept { return exec_ && exec_->finished; }

  /// The completed result. Requires ready().
  const QueryResult& result() const {
    SQUID_REQUIRE(ready(), "query_async result is not ready; run the engine");
    return exec_->result;
  }
  /// Move the completed result out. Requires ready().
  QueryResult take() {
    SQUID_REQUIRE(ready(), "query_async result is not ready; run the engine");
    return std::move(exec_->result);
  }

  /// Engine clock at launch / at Reply delivery; their difference is the
  /// query's virtual completion time (== stats.critical_path_hops when
  /// every timing event delivered a message).
  sim::Time started_at() const {
    SQUID_REQUIRE(valid(), "empty QueryHandle");
    return exec_->started_at;
  }
  sim::Time completed_at() const {
    SQUID_REQUIRE(ready(), "query_async result is not ready; run the engine");
    return exec_->completed_at;
  }

private:
  friend class SquidSystem;
  explicit QueryHandle(std::shared_ptr<QueryExec> exec)
      : exec_(std::move(exec)) {}

  std::shared_ptr<QueryExec> exec_;
};

} // namespace squid::core
