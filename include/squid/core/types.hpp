// Public value types of the Squid core.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "squid/keyword/space.hpp"

namespace squid::obs {
struct Trace;
}

namespace squid::core {

struct AggregatePartial;

/// A published piece of information: a name/URI plus one descriptive token
/// per keyword-space dimension (paper: "a data element can be a document, a
/// file, an XML file describing a resource, ...").
struct DataElement {
  std::string name;
  std::vector<keyword::Token> keys;

  friend bool operator==(const DataElement&, const DataElement&) = default;
};

/// Per-query accounting, matching the metrics of the paper's evaluation
/// (4.1): routing nodes, processing nodes, data nodes, and messages.
/// `messages` counts query messages (cluster dispatches, identifier replies,
/// and aggregated batches), not per-hop transmissions; `routing_nodes` is
/// the set of peers that forwarded any dispatch.
struct QueryStats {
  std::size_t matches = 0;
  std::size_t routing_nodes = 0;
  std::size_t processing_nodes = 0;
  std::size_t data_nodes = 0;
  std::size_t messages = 0;
  /// Latency proxy: overlay hops along the longest chain of *dependent*
  /// messages (independent sub-queries proceed in parallel, so this is the
  /// critical path, not the message total). Under fault injection, retry
  /// backoff waits and delivery delays count as hops on this path.
  std::size_t critical_path_hops = 0;
  /// Fault accounting (docs/FAULT_MODEL.md); both stay 0 without an
  /// injector. `retries`: message legs resent after a presumed loss.
  /// `failed_clusters`: sub-queries abandoned after exhausting retries (or
  /// unroutable under churn) — each one a potential hole in the result.
  std::size_t retries = 0;
  std::size_t failed_clusters = 0;
  /// Reply-path wire accounting (DESIGN.md 4g): bytes and frames the result
  /// replies occupy on the wire, measured through the real serializer with a
  /// canonical query id of 0 so the numbers are comparable across runs.
  /// Element queries count one reply per scan site (split into
  /// 1024-byte frames); aggregate queries count one partial-carrying reply
  /// per dispatch-tree edge. Identical across delivery modes and worker
  /// counts; not part of the frozen-seed lock.
  std::uint64_t bytes_shipped = 0;
  std::uint64_t reply_messages = 0;
};

/// One message event in a query's dependency DAG: it could only be sent
/// after its parent event completed, and it took `hops` overlay hops.
/// Event 0 is the query's start at the origin (parent -1, hops 0).
struct TimingEvent {
  std::int32_t parent = -1;
  std::uint32_t hops = 0;
};

struct QueryResult {
  QueryStats stats;
  /// False when any sub-query was abandoned (stats.failed_clusters > 0):
  /// `elements` is then a partial answer — the completeness guarantee holds
  /// only for the curve regions that resolved. Always true without fault
  /// injection on a consistent ring.
  bool complete = true;
  std::vector<DataElement> elements;
  /// The query's message-dependency DAG, for wall-clock replay under a
  /// link-latency model (core/timing.hpp).
  std::vector<TimingEvent> timing;
  /// Span-level trace of the resolution (obs/trace.hpp). Populated only
  /// when tracing is compiled in AND enabled on the system
  /// (SquidSystem::set_tracing); null otherwise. `stats` is derivable from
  /// it (obs::derive_stats).
  std::shared_ptr<const obs::Trace> trace;
  /// For aggregate queries (SquidSystem::query_aggregate and its async and
  /// batch twins): the fully-merged partial — the answer computed in the
  /// overlay. Null for element-returning queries. `elements` is always
  /// empty when set.
  std::shared_ptr<const AggregatePartial> aggregate;
};

struct SquidConfig {
  /// Curve family: "hilbert" (paper), "zorder"/"gray" for ablation.
  std::string curve = "hilbert";
  /// Chord finger base: 2 = classic fingers; larger bases trade bigger
  /// tables for shorter routes (log_base N hops).
  unsigned finger_base = 2;
  /// Identifiers sampled by the load-balancing join (paper suggests 5-10;
  /// 1 disables the optimization and joins at a random id).
  unsigned join_samples = 1;
  /// Enable the sub-cluster aggregation optimization (paper 3.4.2, second
  /// optimization). Off only for the ablation bench.
  bool aggregate_subclusters = true;
  /// Hot-spot extension (paper 5 future work): each peer remembers the
  /// owner identifiers learned from aggregation replies, keyed by cluster
  /// prefix, and sends later sub-queries for cached prefixes directly
  /// (verified on arrival; stale entries fall back to routing).
  bool cache_cluster_owners = false;
  /// Hotspot-detector floor calibration (docs/LOAD_BALANCING.md): the
  /// effective HotspotConfig::min_load is raised to this factor × the p95
  /// of per-node epoch load totals over a calibration window
  /// (obs::calibrated_min_load), so steady-state hum never trips the
  /// detector. 2x-p95 is the documented default; the CLI heatmap report
  /// and bench/ext_hotspot both read it from here so they agree.
  double hotspot_min_load_factor = 2.0;
  /// Tiered key store (DESIGN.md 4j): pending delta entries + tombstones
  /// allowed before the amortized fold into the base arrays. 0 = automatic
  /// max(64, 4·sqrt(K)) policy; 1 = merge after every mutation, which is
  /// exactly the PR-2 flat store (bench/micro_store's "before" arm).
  std::size_t store_delta_cap = 0;
};

/// Hit/miss counters for the cluster-owner cache.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t stale = 0; ///< cached owner no longer responsible
};

} // namespace squid::core
