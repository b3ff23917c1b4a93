// The observability contract (DESIGN.md 4c): the per-query trace is a
// lossless superset of the legacy QueryStats accounting. For every engine
// configuration of the differential matrix, random queries must satisfy
//   derive_stats(*result.trace) == result.stats   (bit-identical)
// and tracing must never perturb the query itself: a traced system and an
// untraced twin produce identical stats on identical workloads.

#include <gtest/gtest.h>

#include <string>

#include "squid/core/system.hpp"
#include "squid/obs/trace.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using namespace testing_support;

class TraceDifferential : public ::testing::TestWithParam<EngineConfig> {};

/// live records traces, ref is its untraced twin.
TwinWorld make_traced_twin(const EngineConfig& engine) {
  TwinWorld world = make_letter_twin(engine, /*traced=*/false,
                                     {.network = 0x0b5, .data = 0xdead});
  world.live->set_tracing(true);
  return world;
}

void expect_stats_identical(const QueryStats& derived, const QueryStats& legacy,
                            const std::string& context) {
  EXPECT_EQ(derived.matches, legacy.matches) << context;
  EXPECT_EQ(derived.routing_nodes, legacy.routing_nodes) << context;
  EXPECT_EQ(derived.processing_nodes, legacy.processing_nodes) << context;
  EXPECT_EQ(derived.data_nodes, legacy.data_nodes) << context;
  EXPECT_EQ(derived.messages, legacy.messages) << context;
  EXPECT_EQ(derived.critical_path_hops, legacy.critical_path_hops) << context;
  EXPECT_EQ(derived.retries, legacy.retries) << context;
  EXPECT_EQ(derived.failed_clusters, legacy.failed_clusters) << context;
}

void expect_well_formed(const obs::Trace& trace, const std::string& context) {
  ASSERT_FALSE(trace.spans.empty()) << context;
  EXPECT_EQ(trace.spans.front().kind, obs::SpanKind::kQuery) << context;
  EXPECT_EQ(trace.spans.front().parent, -1) << context;
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const obs::Span& span = trace.spans[i];
    if (i > 0) {
      // Parents are recorded before their children, and only the first
      // span is a root: the spans form a single tree.
      ASSERT_GE(span.parent, 0) << context << " span " << i;
      ASSERT_LT(static_cast<std::size_t>(span.parent), i)
          << context << " span " << i;
    }
    EXPECT_LE(span.start, span.end) << context << " span " << i;
    EXPECT_LE(span.path_begin, span.path_end) << context << " span " << i;
    EXPECT_LE(span.path_end, trace.nodes.size()) << context << " span " << i;
    // Every span executes under a real timing event.
    EXPECT_GE(span.event, 0) << context << " span " << i;
  }
}

TEST_P(TraceDifferential, DerivedStatsAreBitIdentical) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  TwinWorld world = make_traced_twin(GetParam());
  ASSERT_TRUE(world.live->tracing());
  ASSERT_FALSE(world.ref->tracing());

  Rng rng(0x7ace);
  for (int trial = 0; trial < 40; ++trial) {
    const keyword::Query q = random_letter_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    const std::string context =
        keyword::to_string(q) + " trial " + std::to_string(trial);

    const auto traced = world.live->query(q, origin);
    ASSERT_NE(traced.trace, nullptr) << context;
    expect_well_formed(*traced.trace, context);
    expect_stats_identical(obs::derive_stats(*traced.trace), traced.stats,
                           context);

    // Tracing is observation, not interference: the untraced twin agrees
    // on every legacy aggregate and on the result set size.
    const auto plain = world.ref->query(q, origin);
    EXPECT_EQ(plain.trace, nullptr) << context;
    expect_stats_identical(plain.stats, traced.stats, context);
    EXPECT_EQ(plain.elements.size(), traced.elements.size()) << context;
  }
}

TEST_P(TraceDifferential, CentralizedDecompositionIsDerivableToo) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  TwinWorld world = make_traced_twin(GetParam());
  Rng rng(0xce27);
  for (int trial = 0; trial < 10; ++trial) {
    const keyword::Query q = random_letter_query(rng);
    const auto origin = world.live->ring().random_node(rng);
    const std::string context = keyword::to_string(q) + " [centralized]";
    const auto result = world.live->query_centralized(q, origin);
    ASSERT_NE(result.trace, nullptr) << context;
    expect_well_formed(*result.trace, context);
    expect_stats_identical(obs::derive_stats(*result.trace), result.stats,
                           context);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, TraceDifferential,
                         ::testing::ValuesIn(kEngineMatrix), config_name);

TEST(TraceLifecycle, PointQueriesCarryARouteAndAScan) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  SquidSystem sys(letter_space("abcde"));
  sys.set_tracing(true);
  Rng rng(42);
  sys.build_network(35, rng);
  sys.publish(DataElement{"hit", {"abc", "de"}});

  keyword::Query q;
  q.terms.push_back(keyword::Whole{"abc"});
  q.terms.push_back(keyword::Whole{"de"});
  const auto result = sys.query(q, sys.ring().random_node(rng));
  EXPECT_EQ(result.stats.matches, 1u);
  ASSERT_NE(result.trace, nullptr);
  const obs::Trace& trace = *result.trace;
  // Point queries skip refinement: root -> route hop -> local scan.
  bool routed = false, scanned = false;
  for (const obs::Span& span : trace.spans) {
    routed |= span.kind == obs::SpanKind::kRouteHop;
    scanned |= span.kind == obs::SpanKind::kLocalScan && span.matches == 1;
  }
  EXPECT_TRUE(routed);
  EXPECT_TRUE(scanned);
  expect_stats_identical(obs::derive_stats(trace), result.stats, "[point]");
}

TEST(TraceLifecycle, RuntimeToggleControlsRecording) {
  SquidSystem sys(letter_space("abcde"));
  Rng rng(43);
  sys.build_network(20, rng);
  sys.publish(DataElement{"x", {"ab", "cd"}});

  keyword::Query q;
  q.terms.push_back(keyword::Any{});
  q.terms.push_back(keyword::Any{});
  const auto origin = sys.ring().node_ids().front();

  // Off by default.
  EXPECT_FALSE(sys.tracing());
  EXPECT_EQ(sys.query(q, origin).trace, nullptr);

  sys.set_tracing(true);
  if (obs::kEnabled) {
    ASSERT_TRUE(sys.tracing());
    const auto traced = sys.query(q, origin);
    ASSERT_NE(traced.trace, nullptr);
    EXPECT_GT(traced.trace->spans.size(), 1u);
    // The root span covers the whole critical path on the virtual clock.
    EXPECT_EQ(traced.trace->spans.front().end,
              traced.stats.critical_path_hops);
  } else {
    // Compiled out: the toggle is inert and queries never carry a trace.
    EXPECT_FALSE(sys.tracing());
    EXPECT_EQ(sys.query(q, origin).trace, nullptr);
  }

  sys.set_tracing(false);
  EXPECT_FALSE(sys.tracing());
  EXPECT_EQ(sys.query(q, origin).trace, nullptr);
}

} // namespace
} // namespace squid::core
