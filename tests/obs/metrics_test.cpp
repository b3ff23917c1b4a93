// Metrics registry + exporter contracts (DESIGN.md 4c): registration is
// idempotent, handles survive reset(), snapshots are name-sorted, the
// subsystem publishing sites actually publish, and the exporters emit
// structurally sound CSV / JSON.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "squid/core/system.hpp"
#include "squid/obs/export.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/workload/corpus.hpp"

namespace squid::obs {
namespace {

TEST(Metrics, CounterAccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  if (kEnabled) {
    EXPECT_EQ(c.value(), 42u);
  } else {
    EXPECT_EQ(c.value(), 0u); // compiled out: increments are dead code
  }
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, HistogramSnapshotIsConsistent) {
  HistogramMetric h(0, 10, 5);
  h.observe(1.0);
  h.observe(3.0);
  h.observe(9.5);
  h.observe(25.0); // clamps into the last bucket
  const auto snap = h.snapshot();
  if (kEnabled) {
    EXPECT_EQ(snap.count, 4u);
    EXPECT_DOUBLE_EQ(snap.sum, 38.5);
    EXPECT_DOUBLE_EQ(snap.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.max, 25.0);
  } else {
    EXPECT_EQ(snap.count, 0u); // compiled out: observations are dead code
  }
  ASSERT_EQ(snap.buckets.size(), 5u);
  ASSERT_EQ(snap.bucket_lo.size(), 5u);
  std::uint64_t total = 0;
  for (const auto b : snap.buckets) total += b;
  EXPECT_EQ(total, snap.count); // buckets partition every observation
  EXPECT_DOUBLE_EQ(snap.bucket_lo.front(), 0.0);
  EXPECT_DOUBLE_EQ(snap.bucket_lo.back(), 8.0);

  h.reset();
  const auto zero = h.snapshot();
  EXPECT_EQ(zero.count, 0u);
  EXPECT_DOUBLE_EQ(zero.sum, 0.0);
}

TEST(Metrics, RegistrationIsIdempotent) {
  Registry registry;
  Counter& a = registry.counter("squid.test.counter");
  Counter& b = registry.counter("squid.test.counter");
  EXPECT_EQ(&a, &b); // same name -> same object, handles are cacheable
  Gauge& g1 = registry.gauge("squid.test.gauge");
  Gauge& g2 = registry.gauge("squid.test.gauge");
  EXPECT_EQ(&g1, &g2);
  // First registration's geometry wins; re-registration is a lookup.
  HistogramMetric& h1 = registry.histogram("squid.test.hist", 0, 10, 5);
  HistogramMetric& h2 = registry.histogram("squid.test.hist", 0, 999, 2);
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.snapshot().buckets.size(), 5u);
}

TEST(Metrics, ResetZeroesButKeepsHandlesValid) {
  Registry registry;
  Counter& c = registry.counter("squid.test.resettable");
  Gauge& g = registry.gauge("squid.test.level");
  c.add(7);
  g.set(3.5);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  c.add(1); // the handle still points at the live metric
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  if (kEnabled) EXPECT_EQ(snap.counters.front().value, 1u);
}

TEST(Metrics, SnapshotIsSortedByName) {
  Registry registry;
  registry.counter("squid.z.last");
  registry.counter("squid.a.first");
  registry.counter("squid.m.middle");
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "squid.a.first");
  EXPECT_EQ(snap.counters[1].name, "squid.m.middle");
  EXPECT_EQ(snap.counters[2].name, "squid.z.last");
}

TEST(Metrics, SubsystemsPublishIntoTheGlobalRegistry) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  Registry::global().reset();

  Rng rng(271);
  workload::KeywordCorpus corpus(2, 200, 0.9, rng);
  core::SquidSystem sys(corpus.make_space());
  sys.build_network(40, rng);
  sys.publish_batch(corpus.make_elements(500, rng));
  (void)sys.query(corpus.q1(0, true), sys.ring().random_node(rng));
  sys.stabilize(rng);

  auto& registry = Registry::global();
  EXPECT_GE(registry.counter("squid.system.publishes").value(), 500u);
  EXPECT_GE(registry.counter("squid.ring.joins").value(), 40u);
  EXPECT_GT(registry.counter("squid.ring.routes").value(), 0u);
  EXPECT_GT(registry.counter("squid.ring.stabilize_ops").value(), 0u);
  EXPECT_EQ(registry.counter("squid.query.count").value(), 1u);
  EXPECT_GT(registry.counter("squid.query.messages").value(), 0u);
  const auto hops =
      registry.histogram("squid.query.critical_path_hops", 0, 64, 16)
          .snapshot();
  EXPECT_EQ(hops.count, 1u);
}

TEST(Metrics, RingMergesCountMembershipFolds) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  Rng rng(314);
  overlay::ChordRing ring(32);
  ring.build(200, rng);
  Registry::global().reset();
  Counter& merges = Registry::global().counter("squid.ring.merges");

  // Failures tombstone until the pending count reaches the store's default
  // threshold; the failure that reaches it folds them all.
  const std::size_t threshold = util::store_merge_threshold(200, 0);
  for (std::size_t i = 0; i + 1 < threshold; ++i)
    ring.fail(ring.random_node(rng));
  EXPECT_EQ(merges.value(), 0u);
  ring.fail(ring.random_node(rng));
  EXPECT_EQ(merges.value(), 1u);

  // A fresh id waits in the delta tier until repair_all folds it.
  ring.add_node_exact(ring.random_free_id(rng));
  EXPECT_EQ(merges.value(), 1u);
  ring.repair_all();
  EXPECT_EQ(merges.value(), 2u);
  ring.repair_all(); // nothing pending: no fold
  EXPECT_EQ(merges.value(), 2u);
}

Registry::Snapshot sample_snapshot() {
  Registry registry;
  registry.counter("squid.test.requests").add(12);
  registry.gauge("squid.test.load").set(0.5);
  registry.histogram("squid.test.latency", 0, 100, 4).observe(42.0);
  return registry.snapshot();
}

TEST(Exporters, CsvRowsAreWellFormed) {
  std::ostringstream out;
  write_metrics_csv(sample_snapshot(), out);
  const std::string csv = out.str();
  std::istringstream lines(csv);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "kind,name,field,value");
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    // Every row has exactly four comma-separated fields.
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 3) << line;
  }
  EXPECT_GE(rows, 2u + 4u + 4u); // counter + gauge rows + hist stats+buckets
  if (kEnabled) {
    EXPECT_NE(csv.find("counter,squid.test.requests,value,12"),
              std::string::npos);
    EXPECT_NE(csv.find("histogram,squid.test.latency,count,1"),
              std::string::npos);
  }
  EXPECT_NE(csv.find("bucket_ge_"), std::string::npos);
}

void expect_balanced_json(const std::string& text) {
  // The emitters never put braces/brackets inside strings, so a balance
  // check is a meaningful structural test without a JSON parser.
  long braces = 0, brackets = 0;
  for (const char c : text) {
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Exporters, MetricsJsonIsBalancedAndNamed) {
  std::ostringstream out;
  write_metrics_json(sample_snapshot(), out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"squid.test.requests\""), std::string::npos);
  EXPECT_NE(json.find("\"squid.test.load\""), std::string::npos);
  EXPECT_NE(json.find("\"squid.test.latency\""), std::string::npos);
}

TEST(Exporters, DumpMetricsPicksFormatByExtension) {
  Registry registry;
  registry.counter("squid.test.dumped").add(3);
  const std::string base = ::testing::TempDir() + "squid_metrics_test";
  const std::string csv_path = base + ".csv";
  const std::string json_path = base + ".json";
  ASSERT_TRUE(dump_metrics(registry, csv_path));
  ASSERT_TRUE(dump_metrics(registry, json_path));
  std::ifstream csv(csv_path), json(json_path);
  std::stringstream csv_text, json_text;
  csv_text << csv.rdbuf();
  json_text << json.rdbuf();
  EXPECT_NE(csv_text.str().find("kind,name,field,value"), std::string::npos);
  EXPECT_EQ(json_text.str().front(), '{');
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
  EXPECT_FALSE(dump_metrics(registry, "/nonexistent-dir/metrics.csv"));
}

core::QueryResult traced_query() {
  Rng rng(272);
  workload::KeywordCorpus corpus(2, 150, 0.9, rng);
  core::SquidSystem sys(corpus.make_space());
  sys.set_tracing(true);
  sys.build_network(40, rng);
  sys.publish_batch(corpus.make_elements(600, rng));
  return sys.query(corpus.q1(0, true), sys.ring().random_node(rng));
}

TEST(Exporters, TraceJsonLoadsAsAnEventArray) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  const auto result = traced_query();
  ASSERT_NE(result.trace, nullptr);
  std::ostringstream out;
  write_trace_json(*result.trace, out);
  const std::string json = out.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos); // complete events
  EXPECT_NE(json.find("\"query\""), std::string::npos);    // the root span
  // One complete event per span.
  std::size_t events = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    ++events;
    pos += 1;
  }
  EXPECT_EQ(events, result.trace->spans.size());
}

TEST(Exporters, SpanTreePrintsEverySpanWithRollups) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  const auto result = traced_query();
  ASSERT_NE(result.trace, nullptr);
  std::ostringstream out;
  print_span_tree(*result.trace, out);
  const std::string tree = out.str();
  EXPECT_NE(tree.find("query"), std::string::npos);
  EXPECT_NE(tree.find("local-scan"), std::string::npos);
  // Every span renders exactly one line with its kind name.
  std::size_t lines = 0;
  for (const char c : tree) lines += c == '\n';
  EXPECT_GE(lines, result.trace->spans.size());
}

} // namespace
} // namespace squid::obs
