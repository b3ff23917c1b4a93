// Query-engine behavior under injected faults (docs/FAULT_MODEL.md):
// retry/backoff accounting, partial-result reporting, trace/derive_stats
// consistency on the fault path, failure detection through timeout reports,
// and recall recovering once faults clear and routing is repaired.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/obs/metrics.hpp" // defines the SQUID_OBS_ENABLED default
#include "squid/obs/trace.hpp"
#include "squid/sim/fault.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using namespace testing_support;

LetterWorld make_corpus(std::uint64_t seed, SquidConfig config = {}) {
  Rng rng(seed);
  return make_letter_world(
      rng, {.letters = "abcd", .nodes = 48, .elements = 600, .name = "doc"},
      std::move(config));
}

std::size_t oracle_matches(const LetterWorld& corpus,
                           const keyword::Query& q) {
  return oracle_names(corpus.sys->space(), corpus.all, q).size();
}

TEST(QueryFault, LossyNetworkYieldsPartialResultsWithHonestAccounting) {
  LetterWorld corpus = make_corpus(2003);
  sim::FaultPlan plan;
  plan.seed = 77;
  plan.drop_probability = 0.25;
  sim::FaultInjector injector(plan);
  corpus.sys->set_fault_injector(&injector);

  const keyword::Query q = corpus.sys->space().parse("a*, *");
  const std::size_t truth = oracle_matches(corpus, q);
  Rng pick(5);
  bool saw_incomplete = false;
  bool saw_retry = false;
  for (int round = 0; round < 12; ++round) {
    const QueryResult r =
        corpus.sys->query(q, corpus.sys->ring().random_node(pick));
    // Partial results are honest: completeness flag mirrors the abandoned
    // sub-query count, and a lossy run never invents elements.
    EXPECT_EQ(r.complete, r.stats.failed_clusters == 0);
    EXPECT_LE(r.stats.matches, truth);
    if (r.complete) EXPECT_EQ(r.stats.matches, truth);
    saw_incomplete |= !r.complete;
    saw_retry |= r.stats.retries > 0;
  }
  // With 25% loss and 3 retries per leg, both edges occur in 12 rounds.
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_incomplete);
  EXPECT_GT(injector.dropped(), 0u);
  // Exhausted legs raised suspicion for the maintenance pass to drain.
  EXPECT_GT(injector.pending_timeout_reports(), 0u);
}

TEST(QueryFault, ProcessTimeoutsDrainsReportsIntoRingRepair) {
  LetterWorld corpus = make_corpus(7);
  sim::FaultPlan plan;
  plan.seed = 13;
  plan.drop_probability = 0.35;
  sim::FaultInjector injector(plan);
  corpus.sys->set_fault_injector(&injector);

  const keyword::Query q = corpus.sys->space().parse("*, b*");
  Rng pick(3);
  for (int round = 0; round < 8; ++round)
    corpus.sys->query(q, corpus.sys->ring().random_node(pick));
  const std::size_t pending = injector.pending_timeout_reports();
  ASSERT_GT(pending, 0u);
  EXPECT_EQ(corpus.sys->process_timeouts(), pending);
  EXPECT_EQ(injector.pending_timeout_reports(), 0u);
  EXPECT_EQ(corpus.sys->process_timeouts(), 0u);

  // All suspicions here are false positives (nobody actually crashed), so
  // stabilization must re-converge the ring and queries must stay complete
  // once the network heals.
  corpus.sys->set_fault_injector(nullptr);
  Rng maint(11);
  corpus.sys->stabilize(maint, 4);
  EXPECT_TRUE(corpus.sys->ring().ring_consistent());
  const QueryResult healed =
      corpus.sys->query(q, corpus.sys->ring().random_node(pick));
  EXPECT_TRUE(healed.complete);
  EXPECT_EQ(healed.stats.matches, oracle_matches(corpus, q));
}

#if SQUID_OBS_ENABLED
TEST(QueryFault, TraceDerivedStatsMatchEngineStatsUnderFaults) {
  LetterWorld corpus = make_corpus(99);
  corpus.sys->set_tracing(true);
  sim::FaultPlan plan;
  plan.seed = 31;
  plan.drop_probability = 0.2;
  plan.delay_probability = 0.3;
  plan.max_delay = 4;
  plan.duplicate_probability = 0.1;
  sim::FaultInjector injector(plan);
  corpus.sys->set_fault_injector(&injector);

  Rng pick(17);
  std::size_t faulted_queries = 0;
  for (const char* text : {"a*, *", "*, b*", "ab, *", "b*, c*"}) {
    const keyword::Query q = corpus.sys->space().parse(text);
    for (int round = 0; round < 4; ++round) {
      const QueryResult r =
          corpus.sys->query(q, corpus.sys->ring().random_node(pick));
      ASSERT_TRUE(r.trace);
      const QueryStats derived = obs::derive_stats(*r.trace);
      EXPECT_EQ(derived.messages, r.stats.messages);
      EXPECT_EQ(derived.matches, r.stats.matches);
      EXPECT_EQ(derived.retries, r.stats.retries);
      EXPECT_EQ(derived.failed_clusters, r.stats.failed_clusters);
      EXPECT_EQ(derived.routing_nodes, r.stats.routing_nodes);
      EXPECT_EQ(derived.processing_nodes, r.stats.processing_nodes);
      EXPECT_EQ(derived.data_nodes, r.stats.data_nodes);
      EXPECT_EQ(derived.critical_path_hops, r.stats.critical_path_hops);
      faulted_queries += r.stats.retries > 0 || r.stats.failed_clusters > 0;
    }
  }
  // The plan is aggressive enough that the fault path was actually taken.
  EXPECT_GT(faulted_queries, 0u);
}
#endif

TEST(QueryFault, BackoffPenaltiesLengthenTheCriticalPath) {
  LetterWorld bare = make_corpus(42);
  SquidConfig config; // defaults; same as bare
  LetterWorld faulted = make_corpus(42, std::move(config));
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.drop_probability = 0.3;
  sim::FaultInjector injector(plan);
  faulted.sys->set_fault_injector(&injector);

  const keyword::Query q = bare.sys->space().parse("a*, b*");
  Rng pick_a(23), pick_b(23);
  std::size_t bare_total = 0, faulted_total = 0;
  for (int round = 0; round < 10; ++round) {
    const auto origin = bare.sys->ring().random_node(pick_a);
    ASSERT_EQ(origin, faulted.sys->ring().random_node(pick_b));
    bare_total += bare.sys->query(q, origin).stats.critical_path_hops;
    faulted_total += faulted.sys->query(q, origin).stats.critical_path_hops;
  }
  // Every resend waits out an exponential backoff on the critical path, so
  // aggregate latency under loss must strictly exceed the clean runs.
  EXPECT_GT(faulted_total, bare_total);
}

} // namespace
} // namespace squid::core
