// SquidSystem: the paper's P2P information-discovery system, end to end
// (paper 3): SFC-based locality-preserving index over a Chord ring, with a
// distributed query engine (recursive refinement + pruning + sub-cluster
// aggregation) and load balancing at join time and at runtime.
//
// This is a simulator in the same sense as the paper's evaluation vehicle:
// all peers live in one address space, but queries follow the distributed
// algorithm faithfully — every piece of state a step consumes is local to
// the peer performing it, every cross-peer interaction is dispatched through
// overlay routing and counted.

#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "squid/core/runtime.hpp"
#include "squid/core/types.hpp"
#include "squid/keyword/space.hpp"
#include "squid/overlay/chord.hpp"
#include "squid/sfc/curve.hpp"
#include "squid/sfc/refine.hpp"
#include "squid/util/rng.hpp"
#include "squid/util/store.hpp"

namespace squid::sim {
class FaultInjector; // sim/fault.hpp
}

namespace squid::core {

struct ParallelQuerySpec; // core/parallel.hpp
struct ParallelOptions;   // core/parallel.hpp
struct ParallelRun;       // core/parallel.hpp
struct UpdateOp;          // core/update.hpp
struct UpdateOptions;     // core/update.hpp
struct UpdateRun;         // core/update.hpp

class SquidSystem {
public:
  using NodeId = overlay::NodeId;

  SquidSystem(keyword::KeywordSpace space, SquidConfig config = {});

  const keyword::KeywordSpace& space() const noexcept { return space_; }
  const sfc::Curve& curve() const noexcept { return *curve_; }
  const overlay::ChordRing& ring() const noexcept { return ring_; }
  const SquidConfig& config() const noexcept { return config_; }

  // --- Topology -----------------------------------------------------------

  /// Bootstrap a network of `count` peers with random identifiers and exact
  /// routing state (experiment setup).
  void build_network(std::size_t count, Rng& rng);

  /// One peer joins. With config().join_samples > 1 this is the paper's
  /// load-balancing join: the newcomer probes several candidate identifiers
  /// and picks the one absorbing the most keys (3.5). Returns the chosen id.
  NodeId join_node(Rng& rng);

  void leave_node(NodeId id);
  void fail_node(NodeId id);

  /// Insert a peer at a chosen identifier with exact wiring. Used by the
  /// virtual-node load balancer, whose split points are computed ids.
  void add_node_at(NodeId id) { ring_.add_node_exact(id); }

  /// Run `rounds` stabilization sweeps over every live peer (repairs
  /// successors, predecessors, and one random finger each — the honest
  /// incremental protocol of paper 3.2).
  void stabilize(Rng& rng, unsigned rounds = 1) {
    ring_.stabilize_all(rng, rounds);
  }

  /// Oracle repair: recompute every routing table exactly. Experiment
  /// setup only — models the state periodic maintenance converges to,
  /// without paying for the convergence inside a build phase.
  void repair_routing() { ring_.repair_all(); }

  // --- Data ---------------------------------------------------------------

  /// Index a data element (instant placement; experiment setup).
  ///
  /// Update contract (DESIGN.md 4j): element identity is (key, name) —
  /// publishing an element whose name already exists under the same key
  /// REPLACES the stored element in place (last write wins, element_count()
  /// unchanged, arrival position preserved). publish_batch applies the same
  /// rule, with later batch positions winning. Single-key cost is
  /// O(log K + |delta|) amortized on the tiered store, not O(K).
  void publish(const DataElement& element);

  /// Index a whole corpus in one sort-merge pass: equivalent to publishing
  /// the elements one by one, in order (same last-write-wins contract), but
  /// O((K+E)·log E) instead of one store insert per new key. This is how
  /// fixtures load their 2·10^4-10^5-key corpora.
  void publish_batch(const std::vector<DataElement>& elements);

  /// Remove one published element (matched by name AND keys). Returns true
  /// when something was removed; the key vanishes with its last element.
  /// O(log K + |delta|) amortized: the slot is tombstoned, not shifted out.
  bool unpublish(const DataElement& element);

  std::size_t key_count() const noexcept { return store_.size(); }
  std::size_t element_count() const noexcept { return element_count_; }

  /// Number of distinct keys owned by each live node, in ring order —
  /// the load metric of Figs 18-19.
  std::vector<std::pair<NodeId, std::size_t>> node_loads() const;

  /// Keys owned by `id` given current ring membership: indices in
  /// (predecessor(id), id], wrapping.
  std::size_t load_of(NodeId id) const;

  /// Identifier that splits node `s`'s keys in half (the index of its median
  /// stored key), when that is a usable fresh id.
  std::optional<NodeId> median_split_id(NodeId s) const;

  /// Ground truth: the node currently owning `index`.
  NodeId owner_of(u128 index) const { return ring_.successor_of(index); }

  /// All stored key indices in ascending order (Fig 18's raw data; also the
  /// "a priori knowledge" granted to the Chord-lookup baseline). Since the
  /// tiered store (DESIGN.md 4j) this is a materialized export — O(K) per
  /// call — not a reference into the store; callers treat it as a snapshot.
  std::vector<u128> key_indices() const { return store_.materialize_keys(); }

  /// Visit every live key in ascending index order (tombstones skipped; a
  /// three-way lockstep sweep over the store's tiers).
  void for_each_key(
      const std::function<void(u128 index, const sfc::Point& point,
                               const std::vector<DataElement>& elements)>& fn)
      const {
    store_.for_each([&](u128 index, const StoredKey& key) {
      fn(index, key.point, key.elements);
    });
  }

  /// Tiered-store introspection (DESIGN.md 4j): pending delta entries and
  /// the merge counters — benches and the store differential suite read
  /// these; queries never do.
  std::size_t store_delta_size() const noexcept { return store_.delta_size(); }
  const util::TieredStoreStats& store_stats() const noexcept {
    return store_.stats();
  }

  // --- Queries ------------------------------------------------------------

  /// Resolve a flexible query starting at `origin`, using the distributed
  /// refinement engine (3.4). Returns all matching elements plus the cost
  /// accounting. The system guarantees completeness: every stored element
  /// matching the query is returned.
  QueryResult query(const keyword::Query& query, NodeId origin) const;

  /// Convenience: parse-and-query from a random origin.
  QueryResult query(const std::string& text, Rng& rng) const;

  // --- Aggregation pushdown (core/aggregate.hpp, DESIGN.md 4g) --------------

  /// Resolve `query` but compute `spec` inside the overlay: scan sites fold
  /// their matching elements into partials, partials merge up the
  /// cluster-dispatch tree, and the origin finalizes. Planning (routing,
  /// refinement, fault draws, timing DAG) is identical to query(); only the
  /// reply path changes, which is where the message/byte savings come from
  /// (QueryStats::bytes_shipped/reply_messages account both paths through
  /// the real serializer). The answer rides QueryResult::aggregate and is
  /// bit-identical across delivery modes, worker counts, and merge orders —
  /// and bit-equal to folding `spec` at the origin over query()'s elements.
  /// Throws std::invalid_argument for invalid specs (see validate_aggregate).
  QueryResult query_aggregate(const keyword::Query& query,
                              const AggregateSpec& spec, NodeId origin) const;

  /// query_async twin of query_aggregate: same overlay pushdown, scheduled
  /// on the caller's shared virtual clock.
  QueryHandle query_aggregate_async(const keyword::Query& query,
                                    const AggregateSpec& spec, NodeId origin,
                                    sim::Engine& engine) const;

  /// Spec sanity, shared by every aggregate entry point: a real kind,
  /// dim < space().dims(), numeric dimension for the value-based kinds
  /// (kSum/kMin/kMax/kTopK), k >= 1 for kTopK. Throws std::invalid_argument.
  void validate_aggregate(const AggregateSpec& spec) const;

  /// Launch a query on the caller's engine without draining it: resolution
  /// proceeds as typed messages (core/messages.hpp) scheduled at their
  /// timing-DAG ticks, so several queries can be in flight on ONE virtual
  /// clock and their completion times reflect the honest interleaving. The
  /// handle becomes ready() once the caller runs the engine past the
  /// query's Reply. The engine's attached fault injector (if any) judges
  /// every leg; the system and engine must outlive the handle's run.
  /// Caveat: with cache_cluster_owners on, a second in-flight query throws
  /// (the owner cache is single-writer; see ScopedCacheWriter).
  QueryHandle query_async(const keyword::Query& query, NodeId origin,
                          sim::Engine& engine) const;

  /// Resolve a batch of queries on `opts.shards` worker threads
  /// (core/parallel.hpp, DESIGN.md 4f). Each query runs query()'s lockstep
  /// path on a private engine, so every per-query result — element order,
  /// QueryStats, trace, completion flag — is bit-equal to query() on this
  /// system (tests/core/parallel_differential_test.cpp). With
  /// cache_cluster_owners on the batch runs on one worker in submit order.
  /// With opts.faults set, query k runs under an injector forked from the
  /// plan by submit index; the per-query tallies come back in ParallelRun so
  /// harnesses can replay the same forks sequentially and compare.
  ParallelRun query_parallel(const std::vector<ParallelQuerySpec>& specs,
                             const ParallelOptions& opts) const;

  // --- Reference oracle (tests/core/async_differential_test.cpp) -----------
  // The seed synchronous resolver, frozen verbatim in
  // query_engine_reference.cpp. query()/query_centralized() above run the
  // message-driven runtime and are locked bit-identical to these (results,
  // QueryStats, traces, timing DAG, fault RNG stream); a kCount
  // query_aggregate answers count_reference(). Test-only: no registry
  // metrics are published.
  QueryResult query_reference(const keyword::Query& query,
                              NodeId origin) const;
  std::size_t count_reference(const keyword::Query& query,
                              NodeId origin) const;
  QueryResult query_centralized_reference(const keyword::Query& query,
                                          NodeId origin,
                                          std::size_t max_segments = 4096) const;

  /// Naive centralized resolution (the strawman of paper 3.4.1): the origin
  /// materializes the cluster decomposition itself (progressively deepened
  /// until `max_segments`) and sends one message per cluster. Complete, but
  /// its message count scales with the cluster count instead of with the
  /// data — the comparison bench quantifies the gap.
  QueryResult query_centralized(const keyword::Query& query, NodeId origin,
                                std::size_t max_segments = 4096) const;

  // --- Load balancing -----------------------------------------------------

  /// One sweep of the paper's runtime local load balancing: every node
  /// compares load with its predecessor; when the imbalance exceeds
  /// `threshold` (ratio), the boundary between them moves so both end up
  /// near the average. Returns the number of boundary adjustments.
  std::size_t runtime_balance_sweep(double threshold = 1.5);

  /// Total number of node-identifier moves performed by runtime balancing
  /// since construction (each corresponds to an O(log N) rewiring in a real
  /// deployment).
  std::size_t balance_moves() const noexcept { return balance_moves_; }

  // --- Cluster-owner caching (config().cache_cluster_owners) ---------------

  const CacheStats& cache_stats() const noexcept { return cache_stats_; }
  void clear_caches() {
    owner_cache_.clear();
    cache_stats_ = {};
  }

  // --- Hot-cluster replica cache (docs/LOAD_BALANCING.md) -------------------
  // The reaction controller's serving tier: a replicated view of one
  // cluster's stored keys, keyed by cluster id (level, prefix).
  // dispatch_clusters consults it before routing — a dispatch whose cluster
  // falls inside a *valid* entry is sent one hop to one of the entry's
  // replica peers (when that peer is still a ring member), which answers
  // with a sweep of the cluster's segment. The one store writer, commit
  // (behind publish, publish_batch, unpublish and apply_updates),
  // invalidates every entry whose segment its applied writes touch
  // (valid=false) before returning: a valid
  // entry's keys are therefore exactly the live store's keys in its
  // segment, so replica scans read the live store and no entry holds a
  // copy. An invalid entry stops serving (dispatches fall back to routing)
  // until refresh_replica() re-validates it. With no entries installed the
  // consult is a single empty() branch, which is the reaction layer's half
  // of the bit-transparency lock (tests/core/reaction_test.cpp).

  struct ReplicaCacheStats {
    std::uint64_t serves = 0;        ///< dispatches answered from a replica
    std::uint64_t stale_skips = 0;   ///< consults finding only invalid entries
    std::uint64_t invalidations = 0; ///< valid → invalid transitions
    std::uint64_t refreshes = 0;     ///< re-validations (refresh_replica)
  };

  /// Install (or replace) the replica set serving reads for the cluster
  /// (level, prefix): later dispatches of that cluster — or any descendant
  /// — are served from `replicas` while the entry stays valid.
  /// Returns the entry id (stable until drop_replica). Replicas must be live
  /// peers; the set must be non-empty.
  std::uint64_t install_replica(unsigned level, u128 prefix,
                                std::vector<NodeId> replicas);
  /// Mark an (invalidated) entry valid again: its replicas serve the
  /// store's current keys. Returns false for unknown ids.
  bool refresh_replica(std::uint64_t id);
  /// Remove an entry; its cluster is served by routing again.
  bool drop_replica(std::uint64_t id);
  std::size_t replica_entries() const noexcept { return replica_cache_.size(); }
  /// False for unknown or invalidated entries.
  bool replica_valid(std::uint64_t id) const;
  /// Load the entry has absorbed so far, in owner scan_hits units (keys its
  /// replica scans matched; 0 for unknown ids) — the reaction controller's
  /// per-entry demand signal.
  std::uint64_t replica_serves(std::uint64_t id) const;
  ReplicaCacheStats replica_stats() const;

  // --- Observability (obs/trace.hpp) ---------------------------------------

  /// Toggle span-level query tracing (off at construction). While on,
  /// every query attaches a trace to QueryResult::trace; a no-op (and
  /// always false) when the observability layer is compiled out
  /// (SQUID_OBS_ENABLED=0).
  void set_tracing(bool on) noexcept;
  bool tracing() const noexcept { return trace_enabled_; }

  /// Attach (or detach, with nullptr) an epoch sampler (obs/telemetry.hpp):
  /// every query then accumulates per-node load events in private scratch
  /// and flushes them into the sampler at finalize; publish sites record
  /// directly at the sampler's current virtual time. Recording is purely
  /// passive — results, QueryStats, traces, and fault RNG streams are
  /// bit-identical with or without a sampler (the telemetry differential
  /// lock). Not owned; must outlive its use. Stamps the sampler's id_bits
  /// from the curve so heatmap positions normalize. No-op with the
  /// observability layer compiled out.
  void set_telemetry(obs::EpochSampler* sampler) noexcept;
  obs::EpochSampler* telemetry() const noexcept { return telemetry_; }

  // --- Fault injection (sim/fault.hpp, docs/FAULT_MODEL.md) -----------------

  /// Attach (or detach, with nullptr) a fault injector: every query message
  /// leg then consults it and retries lost legs with exponential backoff
  /// (kSendRetries / kRetryBackoff, core/runtime.hpp). Not owned; must
  /// outlive its use. An injector with an empty plan leaves every query
  /// bit-identical to running without one (the zero-fault differential
  /// lock).
  void set_fault_injector(sim::FaultInjector* injector) noexcept {
    fault_ = injector;
  }
  sim::FaultInjector* fault_injector() const noexcept { return fault_; }

  /// Periodic maintenance: drain the injector's queued timeout reports into
  /// ChordRing::note_timeout (successor-list fallback + finger
  /// invalidation). Queries run const and only *accumulate* suspicion; this
  /// is where it becomes repair. Returns reports applied.
  std::size_t process_timeouts();

private:
  struct StoredKey {
    sfc::Point point; ///< cached coordinates (avoids inverse mapping)
    std::vector<DataElement> elements;
  };

  struct RefQueryContext; // defined in query_engine_reference.cpp

  /// Posts query messages; their delivery runs deliver() below.
  friend struct QueryExec;
  /// Commits its delivered ops through commit() below.
  friend UpdateRun apply_updates(SquidSystem& sys,
                                 const std::vector<UpdateOp>& ops,
                                 const UpdateOptions& opts);

  u128 index_of_element(const DataElement& element) const;

  /// One write of a commit: publish (or retract) `*element`, whose keys map
  /// to curve index `index`, as the caller's `seq`-th op. `applied` is the
  /// commit's verdict: a publish always applies, a retract when the
  /// element was stored.
  struct StoreWrite {
    u128 index = 0;
    const DataElement* element = nullptr;
    std::uint32_t seq = 0;
    bool retract = false;
    bool applied = false;
  };
  /// The one store writer (DESIGN.md 4j). Sorts `writes` by (index, seq)
  /// and hands them to the store as one sorted batch, so each key's writes
  /// run in submit order: last-writer-wins by (key, name), arrival order
  /// within a key, every retract's verdict and element_count() all equal
  /// those of sequential calls. Then, once per batch: invalidates the
  /// replica entries the applied writes touch, flushes their kPublish /
  /// kRetract load to the telemetry sampler, and adds to the
  /// squid.system.publishes / unpublishes / retracts counters.
  void commit(std::span<StoreWrite> writes);
  /// commit's telemetry step: the applied writes' kPublish / kRetract load,
  /// one event per (owner, kind), flushed to the sampler at its clock.
  void record_writes(std::span<const StoreWrite> writes);

  /// Count of stored keys in the wrapped ring interval (from, to].
  std::size_t keys_in_range(NodeId from, NodeId to) const;

  // --- Message-driven query runtime (core/runtime.hpp, DESIGN.md 4e) -------
  // Handlers run at message delivery. All order-sensitive "planning" work
  // (routing, fault verdicts, budget, cache consults, timing events, every
  // non-scan span) happens inside them in the seed recursion's order — the
  // lockstep bit-identicality lock rests on that. The methods thread two
  // ids alongside the work: `event`, the timing-DAG event the step executes
  // under, and `span`, the parent trace span (-1 / ignored when tracing is
  // off).
  /// The query's rectangle, validated once (per-node paths trust it).
  /// Throws std::invalid_argument for malformed queries.
  sfc::Rect query_rect(const keyword::Query& query) const;
  /// Run one delivered message's work at its destination: the handler
  /// below for its type (QueryExec::post schedules this).
  void deliver(QueryExec& exec, const msg::Message& message) const;
  /// The setup every query exec shares: identity and wiring, the validated
  /// rectangle, the dispatch budget, the origin in the routing set, and the
  /// root span while tracing. query_centralized (a baseline) uses it alone.
  std::shared_ptr<QueryExec> make_exec(sim::Engine& engine, DeliveryMode mode,
                                       const keyword::Query& query,
                                       NodeId origin) const;
  /// Build a live query's exec: make_exec plus the validated aggregate
  /// spec (when given), the cache guard while cache_cluster_owners is on,
  /// telemetry scratch while a sampler is attached, and registry
  /// publishing at finalize.
  std::shared_ptr<QueryExec> start_exec(sim::Engine& engine, DeliveryMode mode,
                                        const keyword::Query& query,
                                        NodeId origin,
                                        const AggregateSpec* aggregate) const;
  /// Post the root work: the point-query fast path (paper 3.4.1) or the
  /// origin's ResolveRequest for the refinement-tree root.
  void begin_resolution(QueryExec& exec) const;
  /// query()/query_aggregate()/query_parallel(): a private engine at
  /// `fault`'s clock (0 without one) judged by `fault`, drained in lockstep
  /// until the Reply delivers.
  QueryResult run_lockstep(const keyword::Query& query, NodeId origin,
                           const AggregateSpec* aggregate,
                           sim::FaultInjector* fault) const;
  /// query_async()/query_aggregate_async(): launch on the caller's engine.
  QueryHandle launch_async(const keyword::Query& query, NodeId origin,
                           sim::Engine& engine,
                           const AggregateSpec* aggregate) const;
  /// Refine the clusters assigned to `at` — `head` (when non-null), then
  /// `batch` — straight from the delivered message, without copying them.
  void handle_resolve(QueryExec& exec, NodeId at, const sfc::ClusterNode* head,
                      const std::vector<sfc::ClusterNode>& batch,
                      std::int32_t event, std::int32_t span) const;
  /// Plan the owner-chain walk over `segment` (routing + neighbor forwards,
  /// eagerly), posting one ScanRequest per owner visited. `pred` is
  /// ring_.predecessor_of(at), which every caller already holds.
  void plan_chain(QueryExec& exec, NodeId at, NodeId pred,
                  sfc::Segment segment, bool covered, std::int32_t event,
                  std::int32_t span) const;
  /// Clusters arrive paired with their precomputed segment-lo key, sorted
  /// ascending, so batching never re-derives segments. Posts one
  /// ClusterDispatch per owner batch.
  void dispatch_clusters(
      QueryExec& exec, NodeId from,
      const std::vector<std::pair<u128, sfc::ClusterNode>>& clusters,
      std::int32_t event, std::int32_t span) const;
  /// ScanRequest work, the one scan step (paper 3.4, Fig 8): one walk of
  /// the live store over the request's segment, filtered by exec's rect
  /// unless the request is covered. Element scans append their matches to
  /// exec.results and sum their wire bytes; aggregate scans
  /// (req.agg.kind != kNone) fold into exec.agg_scans[req.slot] instead.
  /// After the walk: a replica entry's serve credit, the node logs, an
  /// element scan's reply bytes and frames, the telemetry records and the
  /// kLocalScan span.
  void scan(QueryExec& exec, const msg::ScanRequest& req) const;
  /// Reply delivery: assemble QueryResult, close the trace, publish
  /// metrics, release the cache guard, stamp completed_at.
  void finalize_query(QueryExec& exec) const;
  /// Aggregate finalize half: fold per-scan partials per node, merge them
  /// bottom-up along exec.reply_edges (one partial-carrying Reply frame per
  /// edge, accounted through the real serializer), surface the origin's
  /// merged partial as QueryResult::aggregate.
  void finalize_aggregate(QueryExec& exec) const;

  // --- Frozen seed resolver (query_engine_reference.cpp, test oracle) ------
  void ref_resolve_at_node(RefQueryContext& ctx, NodeId at,
                           std::vector<sfc::ClusterNode> clusters,
                           std::int32_t event, std::int32_t span) const;
  void ref_collect_segment(RefQueryContext& ctx, NodeId at,
                           sfc::Segment segment, bool covered,
                           std::int32_t event, std::int32_t span) const;
  void ref_collect_covered(RefQueryContext& ctx, NodeId at,
                           sfc::Segment segment, std::int32_t event,
                           std::int32_t span) const;
  void ref_scan_local(RefQueryContext& ctx, NodeId at, sfc::Segment segment,
                      bool covered, std::int32_t event,
                      std::int32_t span) const;
  void ref_dispatch_remote(
      RefQueryContext& ctx, NodeId from,
      const std::vector<std::pair<u128, sfc::ClusterNode>>& clusters,
      std::int32_t event, std::int32_t span) const;

  // --- Hot-cluster replica cache internals ----------------------------------
  struct ReplicaEntry {
    std::uint64_t id = 0;              ///< cache key, stamped at install
    unsigned level = 0;
    u128 prefix = 0;
    sfc::Segment segment{};            ///< index range the cluster covers
    std::vector<NodeId> replicas;      ///< peers serving the cluster
    bool valid = true;                 ///< false after a covered republish
    /// Load this entry absorbed, in the owner's units: keys its replica
    /// scans matched (exactly the scan_hits the owner would otherwise have
    /// recorded) — the controller's demand signal for draining entries
    /// after a clear. Atomic behind unique_ptr: bumped on the const query
    /// path, possibly from several query_parallel workers.
    std::unique_ptr<std::atomic<std::uint64_t>> serves =
        std::make_unique<std::atomic<std::uint64_t>>(0);
  };
  /// The deepest valid entry whose cluster contains `cluster` (an entry at
  /// level L serves every descendant dispatch at level >= L with matching
  /// prefix). Counts a stale skip and returns null when only invalidated
  /// entries match.
  const ReplicaEntry* replica_serving(const sfc::ClusterNode& cluster) const;
  /// Commit-side hook: invalidate every valid entry whose segment covers
  /// a key of `touched` (index-sorted: the keys of a commit's applied
  /// writes). One binary search per entry, and entries are O(active
  /// hotspots).
  void invalidate_replicas(std::span<const u128> touched);

  keyword::KeywordSpace space_;
  SquidConfig config_;
  std::unique_ptr<sfc::Curve> curve_;
  sfc::ClusterRefiner refiner_;
  overlay::ChordRing ring_;
  /// The key store, tiered (DESIGN.md 4j): the flat sorted base arrays of
  /// 4b plus a small sorted delta buffer and tombstone list, folded back at
  /// a deterministic threshold (config_.store_delta_cap; 0 = sqrt policy).
  /// Scans walk the tiers in lockstep, load probes are tier-corrected rank
  /// queries — reads are bit-identical to a from-scratch flat build.
  util::TieredStore<StoredKey> store_;
  std::size_t element_count_ = 0;
  std::size_t balance_moves_ = 0;
  bool trace_enabled_ = false; ///< set_tracing; off at construction
  /// Fault injector consulted by every query message leg; null = no faults
  /// (the default, and the zero-overhead path).
  sim::FaultInjector* fault_ = nullptr;
  /// Epoch sampler receiving per-node load telemetry; null = no telemetry
  /// (the default — every recording site is then a dead null check).
  obs::EpochSampler* telemetry_ = nullptr;
  /// Per-peer memory of owners learned from aggregation replies:
  /// peer -> (cluster level, prefix) -> owner. Only the dispatching peer's
  /// own entries are consulted (no global knowledge leaks in).
  mutable std::map<NodeId, std::map<std::pair<unsigned, u128>, NodeId>>
      owner_cache_;
  mutable CacheStats cache_stats_;
  /// query() is a pure reader ONLY while cache_cluster_owners is off; with
  /// the cache on it mutates owner_cache_/cache_stats_. This counter makes
  /// concurrent cached queries fail loudly instead of racing silently.
  /// (Heap-held so the system stays movable; atomics are not.)
  mutable std::unique_ptr<std::atomic<int>> cache_writers_ =
      std::make_unique<std::atomic<int>>(0);
  /// Hot-cluster replica entries, by id. Mutated only between queries (the
  /// controller runs at epoch close, a safe point); the query path reads it.
  std::map<std::uint64_t, ReplicaEntry> replica_cache_;
  std::uint64_t next_replica_id_ = 1;
  /// Query-path counters: bumped inside const planning, which
  /// query_parallel runs on several workers at once — hence atomics
  /// (heap-held for movability, same pattern as cache_writers_).
  struct ReplicaCounters {
    std::atomic<std::uint64_t> serves{0};
    std::atomic<std::uint64_t> stale_skips{0};
    std::atomic<std::uint64_t> invalidations{0};
    std::atomic<std::uint64_t> refreshes{0};
  };
  mutable std::unique_ptr<ReplicaCounters> replica_counters_ =
      std::make_unique<ReplicaCounters>();
};

} // namespace squid::core
