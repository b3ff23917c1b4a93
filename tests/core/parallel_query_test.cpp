// Concurrency contract of the query engine (DESIGN.md 4b): with the owner
// cache off, query() and query_aggregate() are pure readers over the flat
// store and the ring — many threads may resolve queries at once, and each
// must get the exact single-threaded result. With the cache ON, concurrent
// queries write shared state; the engine must fail loudly (SQUID_REQUIRE)
// instead of racing. This suite carries the "sanitize" ctest label and is
// the primary TSan workload.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "squid/core/parallel.hpp"
#include "squid/core/system.hpp"
#include "squid/util/rng.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using overlay::NodeId;

using testing_support::LetterWorld;

LetterWorld make_loaded_world(bool cache, Rng& rng) {
  SquidConfig config;
  config.cache_cluster_owners = cache;
  return testing_support::make_letter_world(rng, {.nodes = 40}, config);
}

TEST(ParallelQuery, ConcurrentReadersMatchSingleThreadedResults) {
  Rng rng(0xc0c0);
  const LetterWorld world = make_loaded_world(/*cache=*/false, rng);
  const SquidSystem& sys = *world.sys;

  // Fixed workload: (query, origin) pairs with single-threaded reference
  // results, computed up front.
  struct Work {
    keyword::Query query;
    NodeId origin;
    QueryResult expected;
  };
  const std::vector<std::string> texts = {"(a*, *)", "(*, b*)", "(c, *)",
                                          "(*, *)",  "(ab*, c*)"};
  std::vector<Work> work;
  for (int i = 0; i < 40; ++i) {
    Work w;
    w.query = sys.space().parse(texts[i % texts.size()]);
    w.origin = sys.ring().random_node(rng);
    w.expected = sys.query(w.query, w.origin);
    work.push_back(std::move(w));
  }

  const unsigned threads =
      std::max(2u, std::min(8u, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      // Each thread sweeps the whole workload, offset so different items
      // run concurrently against each other.
      for (std::size_t i = 0; i < work.size(); ++i) {
        const Work& w = work[(i + t * 7) % work.size()];
        const QueryResult got = sys.query(w.query, w.origin);
        if (got.elements != w.expected.elements ||
            got.stats.messages != w.expected.stats.messages ||
            got.stats.matches != w.expected.stats.matches) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (sys.query_aggregate(w.query, {AggregateKind::kCount}, w.origin)
                .aggregate->count != w.expected.stats.matches)
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(ParallelQuery, CachedQueriesStillWorkSingleThreaded) {
  Rng rng(0xcafe);
  const LetterWorld world = make_loaded_world(/*cache=*/true, rng);
  const SquidSystem& sys = *world.sys;
  const keyword::Query q = sys.space().parse("(a*, *)");
  const NodeId origin = sys.ring().random_node(rng);
  const QueryResult first = sys.query(q, origin);
  // Sequential reuse is the supported cache mode; the guard must not trip.
  const QueryResult second = sys.query(q, origin);
  EXPECT_EQ(first.elements, second.elements);
  EXPECT_EQ(
      sys.query_aggregate(q, {AggregateKind::kCount}, origin).aggregate->count,
      first.stats.matches);
}

TEST(ParallelQuery, GuardTripsWhenCachedQueryOverlaps) {
  // Force an overlap deterministically: thread B starts a cached query while
  // thread A is mid-query, using a handshake through the corpus itself is
  // not possible — so hammer with enough concurrent cached queries that an
  // overlap is certain, and require at least one loud failure and zero
  // silent ones. (With the guard, every overlapping call throws.)
  Rng rng(0xdead);
  const LetterWorld world = make_loaded_world(/*cache=*/true, rng);
  const SquidSystem& sys = *world.sys;
  const keyword::Query q = sys.space().parse("(*, *)");
  const NodeId origin = sys.ring().random_node(rng);

  std::atomic<int> threw{0};
  std::atomic<int> completed{0};
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  // An overlap is near-certain but not guaranteed per hammer round (a loaded
  // scheduler can serialize the pool), so re-hammer a few times; every round
  // still requires loud-or-complete for every call.
  for (int round = 0; round < 10 && threw.load() == 0; ++round) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&] {
        ready.fetch_add(1, std::memory_order_relaxed);
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < kPerThread; ++i) {
          try {
            (void)sys.query(q, origin);
            completed.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::invalid_argument&) {
            threw.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    while (ready.load(std::memory_order_relaxed) < kThreads) {
    }
    go.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();
    EXPECT_EQ(threw.load() + completed.load(),
              (round + 1) * kThreads * kPerThread);
  }
  EXPECT_GT(threw.load(), 0) << "overlapping cached queries never collided; "
                                "the guard was not exercised";
  EXPECT_GT(completed.load(), 0);
}

TEST(ParallelQuery, MalformedQueryThrowsOnCallerThread) {
  // A query with more terms than the space has dimensions must fail the
  // same way in every entry point: query() throws, and query_parallel must
  // throw on the caller's thread before any shard worker starts (a throw
  // on a worker would terminate the process).
  Rng rng(0xbad);
  const LetterWorld world = make_loaded_world(/*cache=*/false, rng);
  const SquidSystem& sys = *world.sys;
  keyword::Query q = sys.space().parse("(a*, *)");
  q.terms.push_back(q.terms.front());
  const NodeId origin = sys.ring().random_node(rng);
  EXPECT_THROW((void)sys.query(q, origin), std::invalid_argument);

  std::vector<ParallelQuerySpec> specs(1);
  specs[0].query = q;
  specs[0].origin = origin;
  ParallelOptions opts;
  opts.shards = 2;
  EXPECT_THROW((void)sys.query_parallel(specs, opts), std::invalid_argument);
}

} // namespace
} // namespace squid::core
