// Interleaved async queries (DESIGN.md 4e): N queries in flight on ONE
// shared engine clock must produce exactly the results and stats of N
// sequential synchronous query() calls. Queries share no mutable state
// (the owner cache is off here — overlapping cached queries are refused by
// the ScopedCacheWriter guard), so interleaving their message deliveries
// is pure scheduling and must be invisible to every per-query answer.
// Also in the sanitizer sweep (-L sanitize): the async path must stay
// clean under TSan even though completion is engine-driven.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/obs/trace.hpp"
#include "squid/sim/engine.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using namespace testing_support;

struct World {
  std::unique_ptr<SquidSystem> sys;
  std::vector<keyword::Query> queries;
  std::vector<overlay::NodeId> origins;
};

World make_world(bool traced) {
  Rng rng(0xa57c);
  World world{make_letter_world(rng, {.nodes = 40, .elements = 500}).sys, {},
              {}};
  world.sys->set_tracing(traced);
  for (const char* text :
       {"a*, *", "*, b*", "ab, cd", "c*, d*", "*, *", "b*, a*", "de, *",
        "*, ce", "aa*, *", "*, bb*"}) {
    world.queries.push_back(world.sys->space().parse(text));
    world.origins.push_back(world.sys->ring().random_node(rng));
  }
  return world;
}

void expect_same_answer(const QueryResult& async_r, const QueryResult& sync_r,
                        const std::string& context) {
  // Interleaving may reorder scan arrivals between queries, so compare the
  // element *set*; every aggregate must be bit-equal.
  EXPECT_EQ(sorted_names(async_r.elements), sorted_names(sync_r.elements))
      << context;
  expect_same_stats(async_r, sync_r, context);
}

TEST(InterleavedQueries, ConcurrentInFlightEqualsSequentialSync) {
  World world = make_world(/*traced=*/false);

  std::vector<QueryResult> sync_results;
  for (std::size_t i = 0; i < world.queries.size(); ++i)
    sync_results.push_back(
        world.sys->query(world.queries[i], world.origins[i]));

  sim::Engine engine;
  std::vector<QueryHandle> handles;
  for (std::size_t i = 0; i < world.queries.size(); ++i)
    handles.push_back(
        world.sys->query_async(world.queries[i], world.origins[i], engine));
  for (const QueryHandle& h : handles) {
    ASSERT_TRUE(h.valid());
    EXPECT_FALSE(h.ready()); // nothing delivers until the engine runs
  }
  engine.run();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].ready()) << "query " << i;
    expect_same_answer(handles[i].result(), sync_results[i],
                       "query " + std::to_string(i));
  }
}

TEST(InterleavedQueries, StaggeredLaunchesKeepEveryAnswerIdentical) {
  World world = make_world(/*traced=*/false);

  std::vector<QueryResult> sync_results;
  for (std::size_t i = 0; i < world.queries.size(); ++i)
    sync_results.push_back(
        world.sys->query(world.queries[i], world.origins[i]));

  // Launch query i at virtual time 3*i from inside the engine itself, so
  // later launches overlap earlier queries mid-flight.
  sim::Engine engine;
  std::vector<QueryHandle> handles(world.queries.size());
  for (std::size_t i = 0; i < world.queries.size(); ++i) {
    engine.schedule(3 * i, [&world, &engine, &handles, i] {
      handles[i] =
          world.sys->query_async(world.queries[i], world.origins[i], engine);
    });
  }
  engine.run();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].ready()) << "query " << i;
    expect_same_answer(handles[i].result(), sync_results[i],
                       "staggered query " + std::to_string(i));
    EXPECT_EQ(handles[i].started_at(), 3 * i);
  }
}

TEST(InterleavedQueries, CompletionTimeIsTheCriticalPath) {
  World world = make_world(/*traced=*/false);
  sim::Engine engine;
  std::vector<QueryHandle> handles;
  for (std::size_t i = 0; i < world.queries.size(); ++i)
    handles.push_back(
        world.sys->query_async(world.queries[i], world.origins[i], engine));
  engine.run();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].ready());
    const QueryResult& r = handles[i].result();
    // Fault-free, the deepest timing event always delivers a message, so a
    // query's virtual completion time IS its critical path.
    EXPECT_EQ(handles[i].completed_at() - handles[i].started_at(),
              r.stats.critical_path_hops)
        << "query " << i;
  }
}

TEST(InterleavedQueries, AsyncQueriesCarryTracesToo) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  World world = make_world(/*traced=*/true);
  sim::Engine engine;
  std::vector<QueryHandle> handles;
  for (std::size_t i = 0; i < world.queries.size(); ++i)
    handles.push_back(
        world.sys->query_async(world.queries[i], world.origins[i], engine));
  engine.run();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].ready());
    const QueryResult& r = handles[i].result();
    ASSERT_NE(r.trace, nullptr) << "query " << i;
    const QueryStats derived = obs::derive_stats(*r.trace);
    EXPECT_EQ(derived.messages, r.stats.messages) << "query " << i;
    EXPECT_EQ(derived.matches, r.stats.matches) << "query " << i;
    EXPECT_EQ(derived.critical_path_hops, r.stats.critical_path_hops)
        << "query " << i;
  }
}

TEST(InterleavedQueries, ResultsBeforeTheEngineRunsAreRefused) {
  World world = make_world(/*traced=*/false);
  sim::Engine engine;
  QueryHandle handle =
      world.sys->query_async(world.queries[0], world.origins[0], engine);
  EXPECT_TRUE(handle.valid());
  EXPECT_FALSE(handle.ready());
  EXPECT_THROW(handle.result(), std::invalid_argument);
  EXPECT_THROW(handle.completed_at(), std::invalid_argument);
  engine.run();
  EXPECT_TRUE(handle.ready());
  EXPECT_NO_THROW(handle.result());

  QueryHandle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.ready());
  EXPECT_THROW(empty.started_at(), std::invalid_argument);
}

} // namespace
} // namespace squid::core
