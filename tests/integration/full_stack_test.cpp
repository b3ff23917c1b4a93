// Grand integration: one system driven through its entire lifecycle —
// balanced build, queries, snapshot, restore, churn with replication,
// runtime balancing — asserting the core guarantees at every stage.

#include <gtest/gtest.h>

#include <sstream>

#include "squid/core/replication.hpp"
#include "squid/core/serialize.hpp"
#include "squid/core/system.hpp"
#include "squid/core/timing.hpp"
#include "squid/workload/corpus.hpp"
#include "support/differential.hpp"

namespace squid {
namespace {

using core::SquidSystem;
using testing_support::oracle_names;
using testing_support::sorted_names;

TEST(FullStack, LifecyclePreservesEveryGuarantee) {
  Rng rng(2003);
  workload::KeywordCorpus corpus(2, 400, 0.9, rng);
  core::SquidConfig config;
  config.join_samples = 8;
  SquidSystem sys(corpus.make_space(), config);

  // Stage 1: balanced build — publish first, grow through LB joins.
  auto elements = corpus.make_elements(4000, rng);
  for (const auto& e : elements) sys.publish(e);
  sys.build_network(1, rng);
  for (int i = 1; i < 150; ++i) (void)sys.join_node(rng);
  for (int s = 0; s < 10; ++s) (void)sys.runtime_balance_sweep(1.3);
  sys.repair_routing();
  ASSERT_TRUE(sys.ring().ring_consistent());

  // Stage 2: completeness on the balanced system.
  const keyword::Query probe = corpus.q1(0, true);
  const std::vector<std::string> expected =
      oracle_names(sys.space(), elements, probe);
  const auto first = sys.query(probe, sys.ring().random_node(rng));
  ASSERT_EQ(sorted_names(first.elements), expected);
  EXPECT_EQ(sys.query_aggregate(probe, {core::AggregateKind::kCount},
                                sys.ring().random_node(rng))
                .aggregate->count,
            expected.size());

  // Stage 3: timing DAG is structurally valid and consistent with stats.
  ASSERT_GE(first.timing.size(), 1u);
  EXPECT_EQ(first.timing[0].parent, -1);
  for (std::size_t i = 1; i < first.timing.size(); ++i) {
    ASSERT_GE(first.timing[i].parent, 0);
    ASSERT_LT(static_cast<std::size_t>(first.timing[i].parent), i);
  }
  // Each post-root event corresponds to at least one message.
  EXPECT_LE(first.timing.size() - 1, first.stats.messages);
  Rng timing_rng(1);
  const auto est = core::estimate_latency_ms(first, core::LinkModel{10, 0, 0},
                                             timing_rng, 3);
  EXPECT_DOUBLE_EQ(
      est.max(), 10.0 * static_cast<double>(first.stats.critical_path_hops));

  // Stage 4: snapshot round trip preserves behavior bit-for-bit.
  std::stringstream snapshot;
  core::save_snapshot(sys, snapshot);
  SquidSystem restored(corpus.make_space(), config);
  core::load_snapshot(restored, snapshot);
  const auto origin = sys.ring().node_ids().front();
  EXPECT_EQ(sorted_names(restored.query(probe, origin).elements), expected);

  // Stage 5: churn with replication — three waves of ~7% failures with a
  // repair round between waves (repair must outpace failure for factor 3
  // to guarantee durability; a single 20% simultaneous wipe can kill an
  // entire 3-chain, as the durability bench quantifies).
  core::ReplicationManager replication(restored, 3);
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 10; ++i)
      replication.fail_node(restored.ring().random_node(rng));
    for (int i = 0; i < 10; ++i) (void)replication.join_node(rng);
    (void)replication.repair();
  }
  EXPECT_EQ(replication.lost_keys(), 0u);
  restored.stabilize(rng, 3);

  // Stage 6: still complete after all of it.
  const auto final_result =
      restored.query(probe, restored.ring().random_node(rng));
  EXPECT_EQ(sorted_names(final_result.elements), expected);
  // And still bounded: a fraction of peers processed the query.
  EXPECT_LT(final_result.stats.processing_nodes,
            restored.ring().size() / 2);
}

TEST(FullStack, JoinCostIsLogarithmic) {
  // Paper 3.2: "The cost for joining is O(log N) messages." Measure the
  // routed part of protocol-faithful joins across a decade of scale.
  Rng rng(2004);
  const auto mean_join_hops = [&rng](std::size_t n) {
    overlay::ChordRing ring(48);
    ring.build(n, rng);
    double total = 0;
    constexpr int kJoins = 40;
    for (int i = 0; i < kJoins; ++i) {
      const auto r = ring.join(ring.random_free_id(rng), ring.random_node(rng));
      total += static_cast<double>(r.hops());
    }
    return total / kJoins;
  };
  const double at_500 = mean_join_hops(500);
  const double at_5000 = mean_join_hops(5000);
  // 10x the nodes must cost far less than 10x the hops (log growth).
  EXPECT_LT(at_5000, at_500 + 4.0);
  EXPECT_LT(at_5000, 2.5 * at_500);
}

} // namespace
} // namespace squid
