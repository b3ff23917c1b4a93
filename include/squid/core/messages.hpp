// Typed query-protocol messages (DESIGN.md 4e).
//
// The paper's query resolution is a message protocol (3.3-3.4): refinement
// requests descend the cluster tree, sub-queries are dispatched to cluster
// owners (aggregated per peer, 3.4.2), owners scan their stores, and replies
// flow back to the origin. These structs are those messages, made explicit:
// the runtime (core/runtime.hpp) schedules them on the sim::Engine instead
// of walking a C++ call stack, and serialize.cpp gives each a round-trip
// wire encoding (save_message/load_message).
//
// Every message carries the two bookkeeping ids the engine threads through
// resolution: `event`, the QueryResult::timing DAG node its work executes
// under, and `span`, the parent trace span (-1 with tracing off). They are
// simulator metadata — a production encoding would replace them with a
// query id + causality token — but keeping them on the wire makes a
// serialized run replayable against the same timing DAG.

#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "squid/core/aggregate.hpp"
#include "squid/core/types.hpp"
#include "squid/overlay/id_space.hpp"
#include "squid/sfc/refine.hpp"
#include "squid/sfc/types.hpp"

namespace squid::core::msg {

using overlay::NodeId;

/// Sub-clusters aggregated into one message for a common owner (paper
/// 3.4.2, second optimization). Also the payload shape of a root resolve:
/// the whole refinement tree is "the batch {root}".
struct AggregateBatch {
  std::vector<sfc::ClusterNode> clusters;

  friend bool operator==(const AggregateBatch&,
                         const AggregateBatch&) = default;
};

/// Ask node `at` to expand its assigned refinement sub-tree(s) against the
/// query. The origin sends itself one of these with the tree root; every
/// further descent travels as a ClusterDispatch.
struct ResolveRequest {
  std::uint64_t query = 0; ///< runtime id of the owning QueryExec
  NodeId at = 0;
  AggregateBatch clusters;
  std::int32_t event = 0;
  std::int32_t span = -1;

  friend bool operator==(const ResolveRequest&,
                         const ResolveRequest&) = default;
};

/// Ship a head cluster plus its aggregated siblings from the dispatching
/// peer to the owner learned from routing (or the owner cache). Delivery
/// resumes refinement at `to` with {head} + batch.
struct ClusterDispatch {
  std::uint64_t query = 0;
  NodeId from = 0;
  NodeId to = 0;
  sfc::ClusterNode head;
  AggregateBatch batch; ///< aggregated siblings; empty when unaggregated
  std::int32_t event = 0;
  std::int32_t span = -1;

  friend bool operator==(const ClusterDispatch&,
                         const ClusterDispatch&) = default;
};

/// Ask node `at` to sweep its key store over `segment`. `covered` skips the
/// per-key rectangle filter (the whole segment is known to match).
///
/// For aggregate queries `agg.kind != kNone` and the scan site folds its
/// matching elements into an AggregatePartial instead of shipping them;
/// `slot` is the query-wide index of this scan (assigned in post order, so
/// every delivery mode files the partial into the same record).
struct ScanRequest {
  std::uint64_t query = 0;
  NodeId at = 0;
  sfc::Segment segment;
  bool covered = false;
  AggregateSpec agg;
  std::uint32_t slot = 0;
  std::int32_t event = 0;
  std::int32_t span = -1;
  /// Non-zero: answer for the hot-cluster replica entry with this id
  /// (docs/LOAD_BALANCING.md) — `at` is a replica peer, and the matched
  /// keys count toward the entry's served load. The sweep reads the live
  /// store like every scan (a valid entry's keys are the store's keys), so
  /// an entry invalidated or dropped in flight can never serve stale data.
  std::uint64_t replica = 0;

  friend bool operator==(const ScanRequest&, const ScanRequest&) = default;
};

/// Query completion flowing back to the origin: the aggregate answer (or
/// the count, for cardinality probes). In the runtime this is the one
/// message whose delivery finalizes the QueryExec; result data accumulates
/// at the origin as scans complete, so the payload here is the summary.
struct Reply {
  std::uint64_t query = 0;
  NodeId from = 0;
  NodeId to = 0;
  bool complete = true;
  std::uint64_t count = 0;
  std::vector<DataElement> elements;
  /// Aggregation pushdown (DESIGN.md 4g): the merged partial this subtree
  /// contributes. Null for element-shipping replies. Shared-pointer payload
  /// keeps the Message variant small; replies compare by pointee.
  std::shared_ptr<const AggregatePartial> aggregate;

  friend bool operator==(const Reply& a, const Reply& b) {
    const bool agg_equal =
        a.aggregate == b.aggregate ||
        (a.aggregate && b.aggregate && *a.aggregate == *b.aggregate);
    return agg_equal && a.query == b.query && a.from == b.from &&
           a.to == b.to && a.complete == b.complete && a.count == b.count &&
           a.elements == b.elements;
  }
};

/// Routed single-element index update (DESIGN.md 4j): publish `element` at
/// the owner of its key. `seq` is the submit index within one
/// apply_updates run — the commit order every worker count replays, and
/// the per-op fault-plan fork index under faults.
struct PublishRequest {
  std::uint64_t seq = 0;
  NodeId origin = 0; ///< peer that issued the update
  NodeId to = 0;     ///< owner of the element's key (route destination)
  DataElement element;
  std::int32_t event = 0;
  std::int32_t span = -1;

  friend bool operator==(const PublishRequest&,
                         const PublishRequest&) = default;
};

/// Routed single-element retract: the update-plane twin of PublishRequest.
/// Delivery unpublishes `element` at the owner (matched by name AND keys)
/// and synchronously invalidates any hot-cluster replica covering its key.
struct RetractRequest {
  std::uint64_t seq = 0;
  NodeId origin = 0;
  NodeId to = 0;
  DataElement element;
  std::int32_t event = 0;
  std::int32_t span = -1;

  friend bool operator==(const RetractRequest&,
                         const RetractRequest&) = default;
};

using Message = std::variant<ResolveRequest, ClusterDispatch, ScanRequest,
                             Reply, PublishRequest, RetractRequest>;

/// Peer the message is addressed to (where its work executes).
inline NodeId destination_of(const Message& m) {
  struct V {
    NodeId operator()(const ResolveRequest& r) const { return r.at; }
    NodeId operator()(const ClusterDispatch& d) const { return d.to; }
    NodeId operator()(const ScanRequest& s) const { return s.at; }
    NodeId operator()(const Reply& r) const { return r.to; }
    NodeId operator()(const PublishRequest& p) const { return p.to; }
    NodeId operator()(const RetractRequest& r) const { return r.to; }
  };
  return std::visit(V{}, m);
}

/// Stable wire/type tag ("resolve", "dispatch", "scan", "reply",
/// "publish", "retract").
inline const char* type_name(const Message& m) noexcept {
  struct V {
    const char* operator()(const ResolveRequest&) const { return "resolve"; }
    const char* operator()(const ClusterDispatch&) const { return "dispatch"; }
    const char* operator()(const ScanRequest&) const { return "scan"; }
    const char* operator()(const Reply&) const { return "reply"; }
    const char* operator()(const PublishRequest&) const { return "publish"; }
    const char* operator()(const RetractRequest&) const { return "retract"; }
  };
  return std::visit(V{}, m);
}

} // namespace squid::core::msg
