// Differential lock for the tiered mutable key plane (DESIGN.md 4j): any
// interleaving of publishes and retracts — direct calls or routed update
// frames, at every worker count, with faults off or on — must leave a
// store that is query-bit-identical to a from-scratch publish_batch build
// of the surviving elements. The matrix sweeps curve family, finger base,
// aggregation, and owner caching so the equivalence is pinned across every
// query-plane configuration, not just the paper default.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/core/update.hpp"
#include "squid/sim/fault.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using overlay::NodeId;

using namespace testing_support;

keyword::KeywordSpace two_dim_space() { return letter_space("abcde"); }

DataElement random_element(Rng& rng, int serial) {
  return random_letter_element(rng, "abcde", "e" + std::to_string(serial));
}

/// The update-plane worker count and fault switch each row of kEngineMatrix
/// exercises. Together the nine rows cover all three curve families, finger
/// bases {2, 4, 8, 16}, aggregation and caching on/off, every worker count,
/// and faults off/on.
struct UpdatePlane {
  unsigned shards;
  bool faults;
};

const UpdatePlane kUpdatePlane[] = {{1, false}, {1, false}, {2, false},
                                    {4, false}, {1, true},  {1, true},
                                    {2, true},  {1, true},  {4, true}};

/// Assert the two systems expose bit-identical stores and answer queries
/// identically from the same origins.
void expect_twin_equal(SquidSystem& lhs, SquidSystem& rhs, Rng& origins) {
  ASSERT_EQ(lhs.key_count(), rhs.key_count());
  ASSERT_EQ(lhs.element_count(), rhs.element_count());
  ASSERT_EQ(lhs.key_indices(), rhs.key_indices());
  std::vector<std::vector<DataElement>> mine;
  lhs.for_each_key([&](u128, const sfc::Point&,
                       const std::vector<DataElement>& es) {
    mine.push_back(es);
  });
  std::size_t at = 0;
  rhs.for_each_key([&](u128, const sfc::Point&,
                       const std::vector<DataElement>& es) {
    ASSERT_LT(at, mine.size());
    EXPECT_EQ(es, mine[at]); // element identity AND arrival order
    ++at;
  });
  EXPECT_EQ(at, mine.size());

  for (const char* text : {"(*, *)", "(a*, *)", "(*, b*)", "(c*, d*)"}) {
    const keyword::Query q = lhs.space().parse(text);
    const NodeId origin = lhs.ring().random_node(origins);
    const QueryResult rl = lhs.query(q, origin);
    const QueryResult rr = rhs.query(q, origin);
    EXPECT_EQ(rl.elements, rr.elements) << text;
    EXPECT_EQ(rl.stats.matches, rr.stats.matches) << text;
    const AggregateSpec count{AggregateKind::kCount};
    EXPECT_EQ(lhs.query_aggregate(q, count, origin).aggregate->count,
              rhs.query_aggregate(q, count, origin).aggregate->count)
        << text;
  }
}

TEST(StoreDifferential, InterleavingsMatchFromScratchBatchBuild) {
  // Direct publish/unpublish interleavings on the tiered store, one system
  // per matrix row. The survivors, batch-loaded into a fresh twin, must
  // reproduce the store and its query answers exactly.
  for (const EngineConfig& engine : kEngineMatrix) {
    SCOPED_TRACE(config_label(engine));
    Rng rng(0xd1ff);
    SquidSystem sys(two_dim_space(), config_of(engine));
    Rng net(77);
    sys.build_network(20, net);

    std::vector<DataElement> live; // arrival order of survivors
    for (int step = 0; step < 400; ++step) {
      if (!live.empty() && rng.below(3) == 0) {
        const std::size_t pick = rng.below(live.size());
        ASSERT_TRUE(sys.unpublish(live[pick]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const DataElement e = random_element(rng, step);
        sys.publish(e);
        live.push_back(e);
      }
    }

    SquidSystem twin(two_dim_space(), config_of(engine));
    Rng twin_net(77);
    twin.build_network(20, twin_net);
    twin.publish_batch(live);

    Rng origins(0x0409);
    expect_twin_equal(sys, twin, origins);
  }
}

TEST(StoreDifferential, UpdatePlaneMatchesBatchBuildAcrossMatrix) {
  // The same lock through the routed update plane: per-row worker count
  // and fault switch. The oracle follows each op's `applied`
  // verdict, so with faults on the twin holds exactly the delivered subset.
  sim::FaultPlan plan;
  plan.seed = 0xfa11;
  plan.drop_probability = 0.08;
  plan.delay_probability = 0.1;
  plan.duplicate_probability = 0.05;

  ASSERT_EQ(std::size(kUpdatePlane), kEngineMatrix.size());
  for (std::size_t row = 0; row < kEngineMatrix.size(); ++row) {
    const EngineConfig& engine = kEngineMatrix[row];
    const UpdatePlane& p = kUpdatePlane[row];
    SCOPED_TRACE(config_label(engine) + "/S" + std::to_string(p.shards) +
                 (p.faults ? "/faults" : "/clean"));
    Rng rng(0x09d3);
    SquidSystem sys(two_dim_space(), config_of(engine));
    Rng net(31);
    sys.build_network(24, net);

    UpdateOptions opts;
    opts.shards = p.shards;
    opts.faults = p.faults ? &plan : nullptr;

    std::vector<DataElement> live; // applied survivors, arrival order
    int serial = 0;
    for (int chunk = 0; chunk < 5; ++chunk) {
      std::vector<UpdateOp> ops;
      std::vector<DataElement> chunk_live = live;
      for (int i = 0; i < 60; ++i) {
        const NodeId origin = sys.ring().random_node(rng);
        if (!chunk_live.empty() && rng.below(3) == 0) {
          // Retract a survivor not already retracted this chunk, so every
          // delivered retract is applied and the oracle stays exact.
          const std::size_t pick = rng.below(chunk_live.size());
          ops.push_back(UpdateOp::retract(chunk_live[pick], origin));
          chunk_live.erase(chunk_live.begin() +
                           static_cast<std::ptrdiff_t>(pick));
        } else {
          ops.push_back(UpdateOp::publish(random_element(rng, serial++),
                                          origin));
        }
      }
      const UpdateRun run = apply_updates(sys, ops, opts);
      ASSERT_EQ(run.results.size(), ops.size());
      if (!p.faults) {
        EXPECT_EQ(run.lost, 0u);
        EXPECT_EQ(run.delivered, ops.size());
      }
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const UpdateResult& r = run.results[i];
        if (!r.applied) continue;
        if (ops[i].kind == UpdateOp::Kind::kPublish) {
          live.push_back(ops[i].element);
        } else {
          const auto it = std::find(live.begin(), live.end(), ops[i].element);
          ASSERT_NE(it, live.end());
          live.erase(it);
        }
      }
    }
    ASSERT_EQ(sys.element_count(), live.size());

    SquidSystem twin(two_dim_space(), config_of(engine));
    Rng twin_net(31);
    twin.build_network(24, twin_net);
    twin.publish_batch(live);

    Rng origins(0x0419);
    expect_twin_equal(sys, twin, origins);
  }
}

TEST(StoreDifferential, DeliveryModeNeverChangesFinalState) {
  // One op stream, three worker counts: identical per-op results —
  // verdicts, costs and completion ticks — and identical final stores
  // (clause 3 of the determinism contract in core/update.hpp).
  // Heavy drop rate: with kSendRetries = 3 a loss needs four straight drops,
  // so 0.5 yields a real lost population (~6% of ops) for the equality
  // check below.
  sim::FaultPlan plan;
  plan.seed = 0x5eed;
  plan.drop_probability = 0.5;
  plan.duplicate_probability = 0.05;

  for (const bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "faults" : "clean");
    // Build the shared op stream once, against a throwaway system (for
    // origin draws only — the stream must be identical for every run).
    std::vector<UpdateOp> ops;
    {
      Rng rng(0xabcd);
      SquidSystem probe(two_dim_space());
      Rng net(13);
      probe.build_network(16, net);
      std::vector<DataElement> pool;
      for (int i = 0; i < 150; ++i) {
        const NodeId origin = probe.ring().random_node(rng);
        if (!pool.empty() && rng.below(4) == 0) {
          const std::size_t pick = rng.below(pool.size());
          ops.push_back(UpdateOp::retract(pool[pick], origin));
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
          const DataElement e = random_element(rng, i);
          ops.push_back(UpdateOp::publish(e, origin));
          pool.push_back(e);
        }
      }
    }

    std::vector<UpdateRun> runs;
    std::vector<std::vector<u128>> key_sets;
    std::vector<std::size_t> element_counts;
    for (const unsigned shards : kWorkerCounts) {
      SquidSystem sys(two_dim_space());
      Rng net(13);
      sys.build_network(16, net);
      UpdateOptions opts;
      opts.shards = shards;
      opts.faults = faulty ? &plan : nullptr;
      runs.push_back(apply_updates(sys, ops, opts));
      key_sets.push_back(sys.key_indices());
      element_counts.push_back(sys.element_count());
    }
    for (std::size_t m = 1; m < runs.size(); ++m) {
      EXPECT_EQ(key_sets[m], key_sets[0]);
      EXPECT_EQ(element_counts[m], element_counts[0]);
      EXPECT_EQ(runs[m].delivered, runs[0].delivered);
      EXPECT_EQ(runs[m].applied, runs[0].applied);
      EXPECT_EQ(runs[m].lost, runs[0].lost);
      EXPECT_EQ(runs[m].messages, runs[0].messages);
      EXPECT_EQ(runs[m].retries, runs[0].retries);
      EXPECT_EQ(runs[m].bytes, runs[0].bytes);
      EXPECT_EQ(runs[m].makespan, runs[0].makespan);
      ASSERT_EQ(runs[m].results.size(), runs[0].results.size());
      for (std::size_t i = 0; i < runs[0].results.size(); ++i) {
        EXPECT_EQ(runs[m].results[i].delivered, runs[0].results[i].delivered);
        EXPECT_EQ(runs[m].results[i].applied, runs[0].results[i].applied);
        EXPECT_EQ(runs[m].results[i].hops, runs[0].results[i].hops);
        EXPECT_EQ(runs[m].results[i].messages, runs[0].results[i].messages);
        EXPECT_EQ(runs[m].results[i].bytes, runs[0].results[i].bytes);
        EXPECT_EQ(runs[m].results[i].completed_at,
                  runs[0].results[i].completed_at);
      }
    }
    if (faulty) {
      EXPECT_GT(runs[0].lost, 0u); // the plan actually bit
    }
  }
}

TEST(StoreDifferential, SingleOpConveniencesRoundTrip) {
  Rng rng(0x51);
  SquidSystem sys(two_dim_space());
  sys.build_network(12, rng);
  const DataElement e = random_element(rng, 0);
  const NodeId origin = sys.ring().random_node(rng);

  const UpdateResult pub = publish_update(sys, e, origin);
  EXPECT_TRUE(pub.delivered);
  EXPECT_TRUE(pub.applied);
  EXPECT_GT(pub.bytes, 0u);
  EXPECT_EQ(sys.element_count(), 1u);

  const UpdateResult ret = retract_update(sys, e, origin);
  EXPECT_TRUE(ret.delivered);
  EXPECT_TRUE(ret.applied);
  EXPECT_EQ(sys.element_count(), 0u);

  // Retracting again is delivered (the frame routes) but not applied.
  const UpdateResult miss = retract_update(sys, e, origin);
  EXPECT_TRUE(miss.delivered);
  EXPECT_FALSE(miss.applied);
}

TEST(StoreDifferential, ZeroWorkersIsRejected) {
  // Same contract as query_parallel: a worker count of 0 is a caller error,
  // not a silent single worker. Nothing is planned or applied.
  Rng rng(0x52);
  SquidSystem sys(two_dim_space());
  sys.build_network(12, rng);
  const NodeId origin = sys.ring().random_node(rng);
  UpdateOptions opts;
  opts.shards = 0;
  EXPECT_THROW(
      (void)apply_updates(
          sys, {UpdateOp::publish(random_element(rng, 0), origin)}, opts),
      std::invalid_argument);
  EXPECT_EQ(sys.element_count(), 0u);
}

TEST(StoreDifferential, TieredAndFlatCapsAnswerIdentically) {
  // store_delta_cap 1 degenerates to the PR-2 flat store (merge on every
  // mutation); the default sqrt policy must be observationally identical.
  Rng rng(0x7157);
  SquidConfig tiered_cfg; // store_delta_cap = 0 (sqrt policy)
  SquidConfig flat_cfg;
  flat_cfg.store_delta_cap = 1;
  SquidSystem tiered(two_dim_space(), tiered_cfg);
  SquidSystem flat(two_dim_space(), flat_cfg);
  Rng net_a(5), net_b(5);
  tiered.build_network(18, net_a);
  flat.build_network(18, net_b);

  std::vector<DataElement> live;
  for (int step = 0; step < 500; ++step) {
    if (!live.empty() && rng.below(3) == 0) {
      const std::size_t pick = rng.below(live.size());
      ASSERT_TRUE(tiered.unpublish(live[pick]));
      ASSERT_TRUE(flat.unpublish(live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const DataElement e = random_element(rng, step);
      tiered.publish(e);
      flat.publish(e);
      live.push_back(e);
    }
    if (step % 100 == 0) {
      ASSERT_EQ(tiered.key_indices(), flat.key_indices());
    }
  }
  EXPECT_EQ(flat.store_delta_size(), 0u); // cap 1 never leaves residue
  EXPECT_GT(tiered.store_stats().merges, 0u);
  Rng origins(0x0429);
  expect_twin_equal(tiered, flat, origins);
}

} // namespace
} // namespace squid::core
