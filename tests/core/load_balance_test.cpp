// Load balancing (paper 3.5, Figs 18-19): the SFC mapping skews key
// placement; join-time identifier sampling and runtime boundary exchange
// must measurably flatten the per-node load distribution without breaking
// query completeness.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/stats/summary.hpp"
#include "squid/util/rng.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

constexpr const char* kAlpha = "abcdefghijklmnopqrstuvwxyz";

keyword::KeywordSpace doc_space() {
  return keyword::KeywordSpace(
      {keyword::StringCodec(kAlpha, 4), keyword::StringCodec(kAlpha, 4)});
}

/// Zipf-clustered corpus: popular stems with shared prefixes, the skewed
/// workload the paper's load-balancing section assumes.
std::vector<DataElement> skewed_corpus(std::size_t count, Rng& rng) {
  const std::vector<std::string> stems{"comp", "cont", "netw", "net",
                                       "data", "dist", "grid", "stor"};
  ZipfSampler zipf(stems.size(), 1.2);
  std::vector<DataElement> corpus;
  corpus.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto pick = [&] {
      std::string w = stems[zipf.sample(rng)];
      const std::size_t keep = 2 + rng.below(3);
      if (keep < w.size()) w.resize(keep); // truncate only, never pad
      if (rng.chance(0.7)) w.push_back(kAlpha[rng.below(26)]);
      return w;
    };
    corpus.push_back(DataElement{"d" + std::to_string(i), {pick(), pick()}});
  }
  return corpus;
}

double load_cv(const SquidSystem& sys) {
  Summary loads;
  for (const auto& [id, load] : sys.node_loads())
    loads.add(static_cast<double>(load));
  return loads.cv();
}

TEST(LoadBalance, SfcPlacementIsSkewedWithoutBalancing) {
  Rng rng(31);
  SquidSystem sys(doc_space());
  sys.build_network(100, rng);
  for (const auto& e : skewed_corpus(3000, rng)) sys.publish(e);
  // Random node ids vs clustered keys: strong imbalance expected (Fig 18).
  EXPECT_GT(load_cv(sys), 1.0);
}

TEST(LoadBalance, JoinTimeSamplingReducesImbalance) {
  Rng rng_corpus(32);
  const auto corpus = skewed_corpus(3000, rng_corpus);

  const auto build = [&](unsigned samples) {
    SquidConfig config;
    config.join_samples = samples;
    SquidSystem sys(doc_space(), config);
    Rng rng(33);
    sys.build_network(1, rng); // bootstrap peer
    for (const auto& e : corpus) sys.publish(e);
    for (int i = 0; i < 99; ++i) (void)sys.join_node(rng);
    return load_cv(sys);
  };

  const double random_join = build(1);
  const double sampled_join = build(8);
  EXPECT_LT(sampled_join, random_join);
}

TEST(LoadBalance, RuntimeSweepFlattensDistribution) {
  Rng rng(34);
  SquidSystem sys(doc_space());
  sys.build_network(100, rng);
  for (const auto& e : skewed_corpus(3000, rng)) sys.publish(e);

  const double before = load_cv(sys);
  std::size_t total_moves = 0;
  for (int sweep = 0; sweep < 8; ++sweep)
    total_moves += sys.runtime_balance_sweep(1.5);
  const double after = load_cv(sys);

  EXPECT_GT(total_moves, 0u);
  EXPECT_EQ(sys.balance_moves(), total_moves);
  EXPECT_LT(after, before * 0.6);
  EXPECT_TRUE(sys.ring().ring_consistent());
  EXPECT_EQ(sys.ring().size(), 100u); // moves, not additions/removals
}

TEST(LoadBalance, CombinedPipelineBeatsEachStepAlone) {
  Rng rng_corpus(35);
  const auto corpus = skewed_corpus(4000, rng_corpus);

  const auto build_cv = [&](unsigned samples, int sweeps) {
    SquidConfig config;
    config.join_samples = samples;
    SquidSystem sys(doc_space(), config);
    Rng rng(36);
    sys.build_network(1, rng);
    for (const auto& e : corpus) sys.publish(e);
    for (int i = 0; i < 149; ++i) (void)sys.join_node(rng);
    for (int s = 0; s < sweeps; ++s) (void)sys.runtime_balance_sweep(1.2);
    return load_cv(sys);
  };

  const double none = build_cv(1, 0);
  const double join_only = build_cv(8, 0);
  const double join_plus_runtime = build_cv(8, 30);
  // Fig 19's qualitative ordering: raw SFC placement is badly skewed,
  // join-time balancing visibly helps, and the combined pipeline flattens
  // the distribution much further.
  EXPECT_LT(join_only, 0.7 * none);
  EXPECT_LT(join_plus_runtime, 0.7 * join_only);
  EXPECT_LT(join_plus_runtime, 1.3);
}

TEST(LoadBalance, BalancingPreservesQueryCompleteness) {
  Rng rng(37);
  SquidSystem sys(doc_space());
  sys.build_network(80, rng);
  const auto corpus = skewed_corpus(2000, rng);
  for (const auto& e : corpus) sys.publish(e);
  for (int sweep = 0; sweep < 5; ++sweep) (void)sys.runtime_balance_sweep(1.5);

  for (const std::string text : {"(comp*, *)", "(ne*, d*)", "(*, grid*)"}) {
    const keyword::Query q = sys.space().parse(text);
    const QueryResult result = sys.query(q, sys.ring().random_node(rng));
    EXPECT_EQ(testing_support::sorted_names(result.elements),
              testing_support::oracle_names(sys.space(), corpus, q))
        << text;
  }
}

TEST(LoadBalance, SweepIsIdempotentOnBalancedLoad) {
  Rng rng(38);
  SquidSystem sys(doc_space());
  sys.build_network(50, rng);
  // Uniform keys: coordinates drawn uniformly leave little to balance.
  for (int i = 0; i < 2000; ++i) {
    std::string a, b;
    for (int j = 0; j < 4; ++j) a.push_back(kAlpha[rng.below(26)]);
    for (int j = 0; j < 4; ++j) b.push_back(kAlpha[rng.below(26)]);
    sys.publish(DataElement{"u" + std::to_string(i), {a, b}});
  }
  for (int s = 0; s < 12; ++s) (void)sys.runtime_balance_sweep(2.0);
  const std::size_t quiesced = sys.runtime_balance_sweep(2.0);
  EXPECT_LE(quiesced, 3u); // essentially converged
}

} // namespace
} // namespace squid::core
