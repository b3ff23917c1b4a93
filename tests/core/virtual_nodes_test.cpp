// Virtual-node load balancing (paper 3.5, second runtime algorithm): hot
// virtual nodes split, overloaded peers shed virtual nodes, and the
// physical load distribution flattens.

#include <gtest/gtest.h>

#include "squid/core/parallel.hpp"
#include "squid/core/virtual_nodes.hpp"
#include "squid/stats/summary.hpp"
#include "squid/workload/corpus.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

double cv_of(const std::vector<std::size_t>& loads) {
  Summary s;
  for (const auto l : loads) s.add(static_cast<double>(l));
  return s.cv();
}

struct World {
  std::unique_ptr<workload::KeywordCorpus> corpus;
  std::unique_ptr<SquidSystem> sys;
};

World make_world(std::uint64_t seed, std::size_t elements) {
  World world;
  Rng rng(seed);
  world.corpus = std::make_unique<workload::KeywordCorpus>(2, 300, 1.0, rng);
  world.sys = std::make_unique<SquidSystem>(world.corpus->make_space());
  for (const auto& e : world.corpus->make_elements(elements, rng))
    world.sys->publish(e);
  return world;
}

TEST(VirtualNodes, DealsVirtualsRoundRobin) {
  World world = make_world(61, 2000);
  Rng rng(61);
  VirtualNodeManager manager(*world.sys, 50, 4, rng);
  EXPECT_EQ(manager.physical_count(), 50u);
  EXPECT_EQ(manager.virtual_count(), 200u);
  EXPECT_EQ(world.sys->ring().size(), 200u);
}

TEST(VirtualNodes, PhysicalLoadsSumToKeyCount) {
  World world = make_world(62, 3000);
  Rng rng(62);
  VirtualNodeManager manager(*world.sys, 40, 4, rng);
  std::size_t total = 0;
  for (const auto l : manager.physical_loads()) total += l;
  EXPECT_EQ(total, world.sys->key_count());
}

TEST(VirtualNodes, BalancingFlattensPhysicalLoads) {
  World world = make_world(63, 5000);
  Rng rng(63);
  VirtualNodeManager manager(*world.sys, 60, 4, rng);
  const double before = cv_of(manager.physical_loads());
  std::size_t actions = 0;
  for (int round = 0; round < 20; ++round)
    actions += manager.balance_round(2.0, 1.3, rng);
  const double after = cv_of(manager.physical_loads());
  EXPECT_GT(actions, 0u);
  EXPECT_EQ(actions, manager.splits() + manager.migrations());
  EXPECT_LT(after, before * 0.7);
  // Loads still account for every key after splits and migrations.
  std::size_t total = 0;
  for (const auto l : manager.physical_loads()) total += l;
  EXPECT_EQ(total, world.sys->key_count());
}

TEST(VirtualNodes, SplitsIncreaseVirtualCount) {
  World world = make_world(64, 5000);
  Rng rng(64);
  VirtualNodeManager manager(*world.sys, 30, 2, rng);
  const std::size_t before = manager.virtual_count();
  for (int round = 0; round < 5; ++round)
    (void)manager.balance_round(1.5, 1.5, rng);
  EXPECT_EQ(manager.virtual_count(), before + manager.splits());
}

TEST(VirtualNodes, QueriesRemainCompleteThroughBalancing) {
  Rng rng(65);
  auto corpus = std::make_unique<workload::KeywordCorpus>(2, 300, 1.0, rng);
  SquidSystem sys(corpus->make_space());
  const auto all = corpus->make_elements(3000, rng);
  for (const auto& e : all) sys.publish(e);
  VirtualNodeManager manager(sys, 40, 3, rng);
  for (int round = 0; round < 10; ++round)
    (void)manager.balance_round(1.5, 1.3, rng);

  const keyword::Query q = corpus->q1(0, true);
  const auto result = sys.query(q, sys.ring().random_node(rng));
  EXPECT_EQ(result.stats.matches,
            testing_support::oracle_names(sys.space(), all, q).size());
}

TEST(VirtualNodes, SplitChoiceIsDeterministicAcrossShardCounts) {
  // A split may run mid-workload in any delivery mode, so its outcome —
  // median key, sampled host, resulting topology — must not depend on how
  // many shards executed the queries that heated the node.
  struct Outcome {
    bool split = false;
    SquidSystem::NodeId added = 0;
    std::size_t ring = 0;
    std::size_t virtuals = 0;
  };
  std::vector<Outcome> outcomes;
  for (const unsigned shards : testing_support::kWorkerCounts) {
    World world = make_world(67, 4000);
    Rng rng(67);
    VirtualNodeManager manager(*world.sys, 30, 2, rng);

    std::vector<ParallelQuerySpec> specs;
    Rng q_rng(68);
    for (int i = 0; i < 12; ++i) {
      ParallelQuerySpec spec;
      spec.query = world.corpus->q1(static_cast<std::size_t>(i % 5), true);
      spec.origin = world.sys->ring().random_node(q_rng);
      specs.push_back(std::move(spec));
    }
    ParallelOptions opts;
    opts.shards = shards;
    (void)world.sys->query_parallel(specs, opts);

    // The heaviest ring node (deterministic: queries never move keys).
    SquidSystem::NodeId hot = 0;
    std::size_t heaviest = 0;
    for (const auto& [node, load] : world.sys->node_loads())
      if (load > heaviest) {
        heaviest = load;
        hot = node;
      }
    Rng split_rng(69);
    const auto added = manager.split_virtual(hot, 4, split_rng);
    Outcome out;
    out.split = added.has_value();
    out.added = added.value_or(0);
    out.ring = world.sys->ring().size();
    out.virtuals = manager.virtual_count();
    outcomes.push_back(out);
  }
  ASSERT_TRUE(outcomes.front().split);
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].split, outcomes.front().split) << i;
    EXPECT_EQ(outcomes[i].added, outcomes.front().added) << i;
    EXPECT_EQ(outcomes[i].ring, outcomes.front().ring) << i;
    EXPECT_EQ(outcomes[i].virtuals, outcomes.front().virtuals) << i;
  }
}

TEST(VirtualNodes, RejectsMisuse) {
  World world = make_world(66, 100);
  Rng rng(66);
  EXPECT_THROW(VirtualNodeManager(*world.sys, 0, 2, rng),
               std::invalid_argument);
  EXPECT_THROW(VirtualNodeManager(*world.sys, 5, 0, rng),
               std::invalid_argument);
  VirtualNodeManager manager(*world.sys, 5, 2, rng);
  EXPECT_THROW(VirtualNodeManager(*world.sys, 5, 2, rng),
               std::invalid_argument); // network no longer empty
  EXPECT_THROW((void)manager.balance_round(1.0, 1.5, rng),
               std::invalid_argument);
}

} // namespace
} // namespace squid::core
