// Golden end-to-end query statistics, captured from the pre-cursor engine on
// the fig09/fig11-style workloads at test scale. The refinement engine was
// rebuilt on the incremental cursor; these goldens pin the distributed
// protocol's observable behavior — matches, node sets, message counts, and
// critical-path hops — to the exact values the original cell_of_prefix-based
// expansion produced. Any drift here means the optimization changed *what*
// the engine does, not just how fast it does it. A second golden table pins
// the reply path's wire accounting on the same world and runs.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "squid/core/aggregate.hpp"
#include "squid/core/system.hpp"
#include "squid/workload/corpus.hpp"

namespace squid {
namespace {

struct GoldenStats {
  std::size_t matches;
  std::size_t routing_nodes;
  std::size_t processing_nodes;
  std::size_t data_nodes;
  std::size_t messages;
  std::size_t critical_path_hops;
};

// 11 queries (6 fig09 Q1 + 5 fig11 Q2) x 3 repeats, in workload order.
constexpr std::array<GoldenStats, 33> kGolden = {{
    {123, 28, 20, 17, 58, 20}, {123, 27, 21, 17, 60, 17},
    {123, 29, 21, 17, 60, 20}, {75, 30, 20, 12, 51, 15},
    {75, 32, 20, 12, 51, 15},  {75, 31, 20, 12, 51, 15},
    {21, 27, 14, 9, 38, 15},   {21, 29, 15, 9, 38, 15},
    {21, 27, 14, 9, 38, 15},   {31, 19, 16, 10, 41, 14},
    {31, 19, 16, 10, 41, 14},  {31, 19, 16, 10, 41, 14},
    {20, 30, 15, 9, 36, 15},   {20, 27, 15, 9, 36, 15},
    {20, 28, 14, 9, 36, 15},   {3, 28, 15, 2, 39, 15},
    {3, 29, 15, 2, 39, 15},    {3, 31, 15, 2, 39, 16},
    {3, 12, 5, 1, 8, 11},      {3, 12, 5, 1, 8, 11},
    {3, 12, 5, 1, 8, 11},      {1, 11, 5, 1, 9, 12},
    {1, 12, 5, 1, 9, 13},      {1, 12, 5, 1, 9, 13},
    {4, 8, 4, 1, 6, 7},        {4, 4, 3, 1, 4, 3},
    {4, 6, 4, 1, 6, 5},        {3, 8, 4, 1, 6, 7},
    {3, 7, 4, 1, 6, 6},        {3, 7, 4, 1, 6, 6},
    {1, 13, 5, 1, 8, 12},      {1, 13, 5, 1, 8, 12},
    {1, 13, 5, 1, 8, 12},
}};

// The fig09/fig11-style test world and its workload: 11 queries (6 Q1 +
// 5 Q2), each run 3 times from an origin drawn from a fixed Rng.
class RefineGolden : public ::testing::Test {
protected:
  RefineGolden() : rng(2003), corpus(2, 2500, 0.8, rng), sys(make_system()) {}

  core::SquidSystem make_system() {
    core::SquidConfig config;
    config.join_samples = 8;
    return core::SquidSystem(corpus.make_space(), config);
  }

  void SetUp() override {
    const std::size_t target = 1500;
    std::size_t attempts = 0;
    const std::size_t cap = target * 40 + 1000;
    while (sys.key_count() < target && attempts++ < cap)
      sys.publish(corpus.make_element(rng));
    sys.build_network(1, rng);
    for (std::size_t i = 1; i < 60; ++i) (void)sys.join_node(rng);
    for (int s = 0; s < 6; ++s) (void)sys.runtime_balance_sweep(1.3);
    sys.repair_routing();
    ASSERT_EQ(sys.key_count(), 1500u);
    ASSERT_EQ(sys.element_count(), 1533u);
    ASSERT_EQ(sys.ring().size(), 60u);

    const struct {
      std::size_t rank;
      unsigned len;
    } q1defs[] = {{0, 3}, {2, 3}, {5, 4}, {12, 3}, {30, 4}, {80, 4}};
    for (const auto& d : q1defs)
      queries.push_back(corpus.q1(d.rank, true, d.len));
    const struct {
      std::size_t a;
      std::size_t b;
      bool pb;
    } q2defs[] = {{0, 1, true},
                  {2, 7, false},
                  {5, 0, true},
                  {12, 3, false},
                  {30, 9, true}};
    for (const auto& d : q2defs) queries.push_back(corpus.q2(d.a, d.b, d.pb));

    Rng qrng(0x517ab1e);
    for (std::size_t qi = 0; qi < queries.size(); ++qi)
      for (int rep = 0; rep < 3; ++rep)
        runs.push_back({qi, sys.ring().random_node(qrng)});
  }

  struct Run {
    std::size_t query; ///< index into `queries`
    overlay::NodeId origin;
  };

  Rng rng;
  workload::KeywordCorpus corpus;
  core::SquidSystem sys;
  std::vector<keyword::Query> queries;
  std::vector<Run> runs; ///< the 33 runs, in workload order
};

TEST_F(RefineGolden, DistributedQueryStatsMatchPreCursorEngine) {
  ASSERT_EQ(runs.size(), kGolden.size());
  for (std::size_t g = 0; g < runs.size(); ++g) {
    const std::size_t qi = runs[g].query;
    const std::size_t rep = g % 3;
    const auto r = sys.query(queries[qi], runs[g].origin);
    const GoldenStats& want = kGolden[g];
    EXPECT_EQ(r.stats.matches, want.matches) << "query " << qi << "." << rep;
    EXPECT_EQ(r.stats.routing_nodes, want.routing_nodes)
        << "query " << qi << "." << rep;
    EXPECT_EQ(r.stats.processing_nodes, want.processing_nodes)
        << "query " << qi << "." << rep;
    EXPECT_EQ(r.stats.data_nodes, want.data_nodes)
        << "query " << qi << "." << rep;
    EXPECT_EQ(r.stats.messages, want.messages) << "query " << qi << "." << rep;
    EXPECT_EQ(r.stats.critical_path_hops, want.critical_path_hops)
        << "query " << qi << "." << rep;
  }
}

// Reply-path wire accounting (QueryStats::bytes_shipped / reply_messages)
// for the same 33 runs, three ways: element replies straight from each scan
// site (query()), and partial-carrying replies up the dispatch tree for a
// kCount and a kGroupBy pushdown (query_aggregate). Values were measured
// through the real serializer; any drift means a reply's size changed.
struct ReplyGolden {
  std::uint64_t bytes;
  std::uint64_t frames;
};
struct ReplyGoldens {
  ReplyGolden elements; ///< query()
  ReplyGolden count;    ///< kCount query_aggregate
  ReplyGolden group_by; ///< kGroupBy query_aggregate on dim 0
};

constexpr std::array<ReplyGoldens, 33> kReplyGolden = {{
    {{10953, 101}, {1652, 19}, {3008, 19}},
    {{11054, 101}, {1742, 20}, {3184, 20}},
    {{10953, 101}, {1740, 20}, {3182, 20}},
    {{8187, 86}, {1662, 19}, {3081, 19}},
    {{8273, 86}, {1664, 19}, {3083, 19}},
    {{8187, 86}, {1662, 19}, {3081, 19}},
    {{4696, 61}, {1122, 13}, {1291, 13}},
    {{4696, 61}, {1210, 14}, {1394, 14}},
    {{4696, 61}, {1124, 13}, {1294, 13}},
    {{4944, 59}, {1324, 15}, {1987, 15}},
    {{4944, 59}, {1324, 15}, {1987, 15}},
    {{4944, 59}, {1324, 15}, {1987, 15}},
    {{2405, 26}, {1212, 14}, {1601, 14}},
    {{2379, 26}, {1210, 14}, {1599, 14}},
    {{2379, 26}, {1122, 13}, {1430, 13}},
    {{4474, 68}, {1206, 14}, {1250, 14}},
    {{4474, 68}, {1206, 14}, {1250, 14}},
    {{4406, 68}, {1204, 14}, {1248, 14}},
    {{178, 1}, {342, 4}, {454, 4}},
    {{178, 1}, {342, 4}, {454, 4}},
    {{179, 1}, {343, 4}, {455, 4}},
    {{1074, 16}, {343, 4}, {382, 4}},
    {{1074, 16}, {343, 4}, {382, 4}},
    {{1058, 16}, {342, 4}, {381, 4}},
    {{214, 1}, {256, 3}, {409, 3}},
    {{213, 1}, {171, 2}, {273, 2}},
    {{215, 1}, {257, 3}, {410, 3}},
    {{179, 1}, {262, 3}, {388, 3}},
    {{181, 1}, {264, 3}, {390, 3}},
    {{180, 1}, {263, 3}, {389, 3}},
    {{99, 1}, {342, 4}, {386, 4}},
    {{100, 1}, {343, 4}, {387, 4}},
    {{99, 1}, {342, 4}, {386, 4}},
}};

TEST_F(RefineGolden, ReplyBytesAndFramesMatchGolden) {
  core::AggregateSpec count;
  count.kind = core::AggregateKind::kCount;
  core::AggregateSpec group_by;
  group_by.kind = core::AggregateKind::kGroupBy;
  group_by.dim = 0;
  const auto expect = [](const core::QueryResult& r, const ReplyGolden& want,
                         const char* how, std::size_t g) {
    EXPECT_EQ(r.stats.bytes_shipped, want.bytes) << how << " run " << g;
    EXPECT_EQ(r.stats.reply_messages, want.frames) << how << " run " << g;
  };
  ASSERT_EQ(runs.size(), kReplyGolden.size());
  for (std::size_t g = 0; g < runs.size(); ++g) {
    const keyword::Query& q = queries[runs[g].query];
    const overlay::NodeId origin = runs[g].origin;
    expect(sys.query(q, origin), kReplyGolden[g].elements, "query", g);
    expect(sys.query_aggregate(q, count, origin), kReplyGolden[g].count,
           "kCount", g);
    expect(sys.query_aggregate(q, group_by, origin), kReplyGolden[g].group_by,
           "kGroupBy", g);
  }
}

} // namespace
} // namespace squid
