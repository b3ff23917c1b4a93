// Deterministic fault injection (docs/FAULT_MODEL.md).
//
// The paper evaluates Squid on a stable overlay; its future-work section
// (5) and the follow-up churn literature make the interesting questions
// adversarial: what happens when peers crash, messages vanish, or the
// network splits. FaultPlan is a *seeded, declarative* schedule of exactly
// those events — node crash/rejoin waves, per-message drop/delay/duplicate
// probabilities, and timed partitions — and FaultInjector is its runtime:
// every simulated send asks the injector for a verdict before it is
// scheduled.
//
// Determinism contract: the injector owns a private xoshiro generator
// seeded from the plan, and consults it only for hazards the plan actually
// enables. Two consequences, both load-bearing:
//   1. the same (seed, plan) replays the same fault sequence bit-for-bit
//      (tests/fault/fault_plan_test.cpp), and
//   2. an EMPTY plan consumes zero randomness, so attaching an injector
//      with no faults leaves every experiment bit-identical to running
//      without one (tests/fault/zero_fault_differential_test.cpp).
//
// The injector never mutates the overlay. Crash/rejoin events fire through
// a harness callback (the injector owns *when*, the system owns *who*), and
// failure suspicion raised on the const query path is queued as timeout
// reports for SquidSystem::process_timeouts() to drain into ring repair.

#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "squid/overlay/id_space.hpp"
#include "squid/sim/engine.hpp"
#include "squid/util/rng.hpp"

namespace squid::sim {

/// A declarative, seeded schedule of faults. Plain data: harnesses build
/// one, hand it to a FaultInjector, and the run is reproducible from the
/// plan alone. All probabilities are per-message; defaults are all-zero
/// (the empty plan injects nothing and consumes no randomness).
struct FaultPlan {
  /// Seed for the injector's private generator (independent of every other
  /// stream in the experiment, so enabling faults never perturbs workload
  /// or topology draws).
  std::uint64_t seed = 0x4a11;

  /// Probability that a message is silently dropped.
  double drop_probability = 0;
  /// Probability that a delivered message is delayed by extra ticks,
  /// uniform in [1, max_delay].
  double delay_probability = 0;
  Time max_delay = 4;
  /// Probability that a delivered message arrives twice (the copy is
  /// delivered at the same tick; receivers are modeled as deduplicating,
  /// so duplication costs messages, never correctness).
  double duplicate_probability = 0;

  /// Timed crash/rejoin waves. The injector schedules *when* each wave
  /// fires (FaultInjector::schedule_events); the harness callback decides
  /// *which* peers crash or rejoin, typically with its own forked rng.
  struct NodeEvent {
    Time at = 0;
    bool crash = true;       ///< false: a rejoin wave
    std::uint32_t count = 1; ///< peers affected
  };
  std::vector<NodeEvent> events;

  /// A network partition active during [start, end): messages between the
  /// two sides are dropped. Sides are by identifier: id < pivot vs
  /// id >= pivot (a contiguous arc split — the classic net-split shape on
  /// a ring).
  struct Partition {
    Time start = 0;
    Time end = 0;
    overlay::NodeId pivot = 0;
  };
  std::vector<Partition> partitions;

  bool empty() const noexcept {
    return drop_probability <= 0 && delay_probability <= 0 &&
           duplicate_probability <= 0 && events.empty() &&
           partitions.empty();
  }
};

/// Derive stream `k` of a base plan: the same hazards, driven by an
/// independent generator seeded from (base.seed, k). query_parallel and
/// the update plane (core/parallel.hpp, core/update.hpp) give each query or
/// op its own forked injector so fault verdicts stay a pure per-item
/// function of (plan, submit index) no matter how worker threads
/// interleave — and a sequential harness forking
/// identically replays the exact same streams, which is what the parallel
/// differential suite compares against.
FaultPlan fork_plan(const FaultPlan& base, std::uint64_t k);

class FaultInjector {
public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const noexcept { return plan_; }

  /// Verdict on one message send.
  struct Delivery {
    bool delivered = true;
    Time extra_delay = 0;  ///< additional ticks before arrival
    bool duplicate = false;///< a second copy arrives too
  };

  /// Decide the fate of a message from -> to at the current virtual time.
  /// Consults the generator only for hazards the plan enables, so an empty
  /// plan is bit-transparent (decide() then always delivers and draws
  /// nothing).
  Delivery decide(overlay::NodeId from, overlay::NodeId to);

  /// True when a plan partition active at the current time separates the
  /// two peers.
  bool partitioned(overlay::NodeId a, overlay::NodeId b) const noexcept;

  /// The injector's virtual clock. Engine::run advances it automatically
  /// when the injector is attached; standalone harnesses (the query engine
  /// runs synchronously) set it directly to time-travel through partition
  /// windows.
  void set_now(Time now) noexcept { now_ = now; }
  Time now() const noexcept { return now_; }

  /// Install the plan's crash/rejoin waves on `engine`: at each event's
  /// time, `apply(event)` runs. The callback owns victim selection and the
  /// actual membership mutation (e.g. ReplicationManager::fail_node).
  void schedule_events(Engine& engine,
                       std::function<void(const FaultPlan::NodeEvent&)> apply);

  /// Failure suspicion from the const query path: `observer` exhausted its
  /// retries against `dead`. Queued, not applied — SquidSystem::
  /// process_timeouts() drains the queue into ChordRing::note_timeout
  /// during maintenance, keeping query() a pure reader of ring state.
  void report_timeout(overlay::NodeId observer, overlay::NodeId dead);
  std::vector<std::pair<overlay::NodeId, overlay::NodeId>>
  take_timeout_reports();
  std::size_t pending_timeout_reports() const noexcept {
    return reports_.size();
  }

  // Running tallies (also published as squid.fault.* metrics when the obs
  // layer is compiled in; these stay available with it off).
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t delayed() const noexcept { return delayed_; }
  std::uint64_t duplicated() const noexcept { return duplicated_; }
  std::uint64_t partition_drops() const noexcept { return partition_drops_; }
  /// Generator consultations so far; stays 0 under an empty plan (the
  /// zero-fault differential lock asserts this).
  std::uint64_t rng_draws() const noexcept { return rng_draws_; }

private:
  bool draw(double p);

  FaultPlan plan_;
  Rng rng_;
  Time now_ = 0;
  std::vector<std::pair<overlay::NodeId, overlay::NodeId>> reports_;
  std::uint64_t dropped_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t partition_drops_ = 0;
  std::uint64_t rng_draws_ = 0;
};

} // namespace squid::sim
