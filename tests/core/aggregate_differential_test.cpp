// The aggregation-pushdown bit-identicality lock (DESIGN.md 4g).
//
// query_aggregate folds matching elements into partials at the scan sites
// and merges them up the cluster-dispatch tree. The contract under test:
// the finished aggregate must be BIT-EQUAL to the origin folding the
// ship-all element answer itself — for every aggregate kind, in every
// delivery mode (kLockstep / kVirtualTime / query_parallel at every
// worker count), faults off AND on. Because every merge operator is associative
// and commutative (ExactSum superaccumulator for kSum, bounded sorted
// lists for top-k and group-by), no mode, shard interleaving, or arrival
// order may change a single bit — including the kSum double.
//
// The reply-path accounting rides the same lock: bytes_shipped and
// reply_messages are sums of per-site/per-edge measured terms, so all
// three modes must report identical values.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "squid/core/aggregate.hpp"
#include "squid/core/parallel.hpp"
#include "squid/core/system.hpp"
#include "squid/sim/fault.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using namespace testing_support;

class AggregateDifferential : public ::testing::TestWithParam<EngineConfig> {};

/// live runs the aggregate pushdown, ref runs ship-all element queries.
/// String keyword dim + numeric attribute dim: the numeric kinds (sum, min,
/// max, top-k) need a NumericCodec payload to aggregate over.
TwinWorld make_world(const EngineConfig& engine) {
  const char letters[] = "abcde";
  const keyword::KeywordSpace space(
      {keyword::StringCodec(letters, 3),
       keyword::NumericCodec(0.0, 64.0, 6)});
  return make_twin(space, config_of(engine), 35, 0xa66 ^ std::get<1>(engine),
                   0xf01d, 400, [&letters](Rng& rng, std::size_t i) {
                     std::string word = random_word(rng, letters);
                     // Values off the bucket grid, with deliberate
                     // collisions (below(96)/1.5) so top-k exercises its
                     // name tie-break through the real system.
                     const double value =
                         static_cast<double>(rng.below(96)) / 1.5;
                     return DataElement{"e" + std::to_string(i),
                                        {std::move(word), value}};
                   });
}

keyword::Query random_query(Rng& rng) {
  const char letters[] = "abcde";
  keyword::Query q;
  const auto kind = rng.below(3);
  if (kind == 0) {
    q.terms.push_back(keyword::Any{});
  } else {
    std::string w;
    for (std::uint64_t j = rng.range(1, 2); j-- > 0;)
      w.push_back(letters[rng.below(5)]);
    if (kind == 1) {
      q.terms.push_back(keyword::Whole{w});
    } else {
      q.terms.push_back(keyword::Prefix{w});
    }
  }
  const double lo = static_cast<double>(rng.below(48));
  q.terms.push_back(keyword::NumRange{lo, lo + static_cast<double>(
                                              rng.range(4, 32))});
  return q;
}

std::vector<AggregateSpec> all_specs() {
  std::vector<AggregateSpec> specs;
  AggregateSpec s;
  s.kind = AggregateKind::kCount;
  specs.push_back(s);
  s.kind = AggregateKind::kSum;
  s.dim = 1;
  specs.push_back(s);
  s.kind = AggregateKind::kMin;
  specs.push_back(s);
  s.kind = AggregateKind::kGroupBy;
  s.dim = 0;
  specs.push_back(s);
  s.kind = AggregateKind::kTopK;
  s.dim = 1;
  s.k = 5;
  s.largest = true;
  specs.push_back(s);
  return specs;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The oracle: origin-side flat fold over the ship-all element answer, in
/// the order the elements arrived.
AggregatePartial origin_fold(const QueryResult& ref,
                             const AggregateSpec& spec) {
  AggregatePartial flat = make_partial(spec);
  for (const DataElement& e : ref.elements) flat.fold(e);
  return flat;
}

void expect_partial_equal(const AggregatePartial& got,
                          const AggregatePartial& want,
                          const std::string& context) {
  ASSERT_EQ(got.spec, want.spec) << context;
  EXPECT_EQ(got, want) << context; // every field, incl. ExactSum limbs
  // Belt and braces on the floating-point surfaces: identical bits, not
  // just operator== (which would accept -0.0 == 0.0).
  EXPECT_EQ(double_bits(got.sum.value()), double_bits(want.sum.value()))
      << context;
  if (got.has_extremes && want.has_extremes) {
    EXPECT_EQ(double_bits(got.min), double_bits(want.min)) << context;
    EXPECT_EQ(double_bits(got.max), double_bits(want.max)) << context;
  }
}

void expect_same_aggregate_run(const QueryResult& a, const QueryResult& b,
                               const std::string& context) {
  ASSERT_NE(a.aggregate, nullptr) << context;
  ASSERT_NE(b.aggregate, nullptr) << context;
  expect_partial_equal(*a.aggregate, *b.aggregate, context);
  EXPECT_EQ(a.complete, b.complete) << context;
  EXPECT_EQ(a.stats.messages, b.stats.messages) << context;
  EXPECT_EQ(a.stats.matches, b.stats.matches) << context;
  EXPECT_EQ(a.stats.bytes_shipped, b.stats.bytes_shipped) << context;
  EXPECT_EQ(a.stats.reply_messages, b.stats.reply_messages) << context;
  EXPECT_EQ(a.stats.processing_nodes, b.stats.processing_nodes) << context;
  EXPECT_EQ(a.stats.critical_path_hops, b.stats.critical_path_hops) << context;
}

TEST_P(AggregateDifferential, PushdownEqualsOriginFoldInEveryMode) {
  // Two twin worlds (four identical systems): one pair compares ship-all
  // elements against lockstep pushdown, the extra .live replays the SAME
  // query sequence under kVirtualTime. Each system sees one query per k in
  // the same order, so the owner cache (when on) evolves identically
  // everywhere — planning stays comparable across modes.
  TwinWorld world = make_world(GetParam());
  TwinWorld async_world = make_world(GetParam());
  Rng rng(0x51de);
  const std::vector<AggregateSpec> specs = all_specs();

  std::uint64_t total_matches = 0;
  std::vector<ParallelQuerySpec> batch;
  std::vector<QueryResult> lockstep;
  for (std::size_t k = 0; k < 25; ++k) {
    const keyword::Query query = random_query(rng);
    const overlay::NodeId origin = world.live->ring().random_node(rng);
    const AggregateSpec& spec = specs[k % specs.size()];
    const std::string context = "query " + std::to_string(k) + " " +
                                aggregate_kind_name(spec.kind);

    const QueryResult ref = world.ref->query(query, origin);
    total_matches += ref.elements.size();
    QueryResult agg = world.live->query_aggregate(query, spec, origin);
    ASSERT_NE(agg.aggregate, nullptr) << context;
    expect_partial_equal(*agg.aggregate, origin_fold(ref, spec), context);
    EXPECT_EQ(agg.complete, ref.complete) << context;
    // The pushdown is additive: planning — and therefore the request-side
    // message count — is untouched by the aggregate spec.
    EXPECT_EQ(agg.stats.messages, ref.stats.messages) << context;
    EXPECT_EQ(agg.stats.matches, ref.elements.size()) << context;

    // kVirtualTime: the same query on a caller-owned engine.
    sim::Engine engine(0);
    QueryHandle handle =
        async_world.live->query_aggregate_async(query, spec, origin, engine);
    while (engine.step()) {
    }
    ASSERT_TRUE(handle.ready()) << context;
    expect_same_aggregate_run(handle.result(), agg, context + " async");

    ParallelQuerySpec p;
    p.query = query;
    p.origin = origin;
    p.aggregate = spec;
    batch.push_back(std::move(p));
    lockstep.push_back(std::move(agg));
  }
  ASSERT_GT(total_matches, 0u) << "degenerate corpus: no query matched";
  for (const unsigned shards : kWorkerCounts) {
    ParallelOptions opts;
    opts.shards = shards;
    TwinWorld fresh = make_world(GetParam()); // cache-neutral twin
    const ParallelRun run = fresh.live->query_parallel(batch, opts);
    ASSERT_EQ(run.results.size(), lockstep.size());
    for (std::size_t i = 0; i < run.results.size(); ++i) {
      expect_same_aggregate_run(run.results[i], lockstep[i],
                                "S=" + std::to_string(shards) + " item " +
                                    std::to_string(i));
    }
  }
}

TEST_P(AggregateDifferential, PushdownEqualsOriginFoldUnderFaults) {
  sim::FaultPlan plan;
  plan.seed = 0xfa57;
  plan.drop_probability = 0.06;
  plan.delay_probability = 0.15;
  plan.max_delay = 3;
  plan.duplicate_probability = 0.08;

  TwinWorld world = make_world(GetParam());
  Rng rng(0xfade);
  const std::vector<AggregateSpec> specs = all_specs();

  std::vector<ParallelQuerySpec> batch;
  std::vector<QueryResult> lockstep;
  bool any_incomplete = false;
  for (std::size_t k = 0; k < 15; ++k) {
    const keyword::Query query = random_query(rng);
    const overlay::NodeId origin = world.live->ring().random_node(rng);
    const AggregateSpec& spec = specs[k % specs.size()];
    // Same fork for the oracle and the aggregate run: identical planning
    // consumes identical fault draws, so both see the same scans — the
    // aggregate over a PARTIAL answer still equals the origin fold over the
    // same partial element answer.
    sim::FaultInjector ref_injector(sim::fork_plan(plan, k));
    world.ref->set_fault_injector(&ref_injector);
    const QueryResult ref = world.ref->query(query, origin);
    world.ref->set_fault_injector(nullptr);

    sim::FaultInjector live_injector(sim::fork_plan(plan, k));
    world.live->set_fault_injector(&live_injector);
    QueryResult agg = world.live->query_aggregate(query, spec, origin);
    world.live->set_fault_injector(nullptr);

    const std::string context = "faulted " + std::to_string(k) + " " +
                                aggregate_kind_name(spec.kind);
    ASSERT_NE(agg.aggregate, nullptr) << context;
    expect_partial_equal(*agg.aggregate, origin_fold(ref, spec), context);
    EXPECT_EQ(agg.complete, ref.complete) << context;
    EXPECT_EQ(agg.stats.retries, ref.stats.retries) << context;
    EXPECT_EQ(agg.stats.failed_clusters, ref.stats.failed_clusters) << context;
    EXPECT_EQ(live_injector.rng_draws(), ref_injector.rng_draws()) << context;
    any_incomplete |= !agg.complete;

    ParallelQuerySpec p;
    p.query = query;
    p.origin = origin;
    p.aggregate = spec;
    batch.push_back(std::move(p));
    lockstep.push_back(std::move(agg));
  }
  (void)any_incomplete; // plan probabilities make losses likely, not certain

  for (const unsigned shards : kWorkerCounts) {
    ParallelOptions opts;
    opts.shards = shards;
    opts.faults = &plan;
    TwinWorld fresh = make_world(GetParam());
    const ParallelRun run = fresh.live->query_parallel(batch, opts);
    ASSERT_EQ(run.results.size(), lockstep.size());
    for (std::size_t i = 0; i < run.results.size(); ++i) {
      expect_same_aggregate_run(run.results[i], lockstep[i],
                                "S=" + std::to_string(shards) + " faulted " +
                                    std::to_string(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, AggregateDifferential,
                         ::testing::ValuesIn(kEngineMatrix), config_name);

// --- One spec per kind & spec validation ------------------------------------

/// The merged partial query_aggregate returns for `spec`.
AggregatePartial aggregate_of(const SquidSystem& sys, const keyword::Query& q,
                              const AggregateSpec& spec,
                              overlay::NodeId origin) {
  return *sys.query_aggregate(q, spec, origin).aggregate;
}

TEST(AggregateApiTest, WrappersAgreeWithTheOracle) {
  TwinWorld world = make_world(kEngineMatrix.front());
  Rng rng(0xca11);
  const keyword::Query q = world.live->space().parse("(*, 0-64)");
  const overlay::NodeId origin = world.live->ring().random_node(rng);
  const QueryResult ref = world.ref->query(q, origin);
  ASSERT_FALSE(ref.elements.empty());
  const SquidSystem& live = *world.live;

  EXPECT_EQ(aggregate_of(live, q, {AggregateKind::kCount}, origin).count,
            ref.elements.size());

  ExactSum expect_sum;
  double expect_min = 0, expect_max = 0;
  bool first = true;
  for (const DataElement& e : ref.elements) {
    const double v = std::get<double>(e.keys[1]);
    expect_sum.add(v);
    if (first || v < expect_min) expect_min = v;
    if (first || v > expect_max) expect_max = v;
    first = false;
  }
  EXPECT_EQ(double_bits(
                aggregate_of(live, q, {AggregateKind::kSum, 1}, origin)
                    .sum.value()),
            double_bits(expect_sum.value()));

  // One kMin query answers both extremes.
  const AggregatePartial extremes =
      aggregate_of(live, q, {AggregateKind::kMin, 1}, origin);
  ASSERT_TRUE(extremes.has_extremes);
  EXPECT_EQ(double_bits(extremes.min), double_bits(expect_min));
  EXPECT_EQ(double_bits(extremes.max), double_bits(expect_max));

  const std::vector<GroupCount> groups =
      aggregate_of(live, q, {AggregateKind::kGroupBy, 0}, origin).groups;
  std::uint64_t grouped = 0;
  for (const GroupCount& g : groups) grouped += g.count;
  EXPECT_EQ(grouped, ref.elements.size());

  const std::vector<TopEntry> top =
      aggregate_of(live, q, {AggregateKind::kTopK, 1, 3}, origin).top;
  ASSERT_EQ(top.size(), std::min<std::size_t>(3, ref.elements.size()));
  EXPECT_GE(top.front().value, top.back().value);
}

TEST(AggregateApiTest, EmptyMatchYieldsEmptyExtremes) {
  TwinWorld world = make_world(kEngineMatrix.front());
  Rng rng(0x3a);
  // Keyword "eee" paired with an impossible-to-miss range still matches
  // nothing if no element carries that exact keyword… use a range below
  // every published value instead: values are >= 0, query [0, 0) is empty.
  keyword::Query q;
  q.terms.push_back(keyword::Whole{"eee"});
  q.terms.push_back(keyword::NumRange{63.9, 64.0});
  const overlay::NodeId origin = world.live->ring().random_node(rng);
  const QueryResult ref = world.ref->query(q, origin);
  if (!ref.elements.empty()) GTEST_SKIP() << "corpus happens to match";
  const AggregatePartial extremes =
      aggregate_of(*world.live, q, {AggregateKind::kMin, 1}, origin);
  EXPECT_FALSE(extremes.has_extremes);
  EXPECT_EQ(
      aggregate_of(*world.live, q, {AggregateKind::kCount}, origin).count, 0u);
}

TEST(AggregateApiTest, InvalidSpecsFailLoudly) {
  TwinWorld world = make_world(kEngineMatrix.front());
  Rng rng(0xbad);
  const keyword::Query q = world.live->space().parse("(*, *)");
  const overlay::NodeId origin = world.live->ring().random_node(rng);

  AggregateSpec spec; // kind == kNone
  EXPECT_THROW(world.live->query_aggregate(q, spec, origin),
               std::invalid_argument);
  spec.kind = AggregateKind::kCount;
  spec.dim = 7; // out of range
  EXPECT_THROW(world.live->query_aggregate(q, spec, origin),
               std::invalid_argument);
  spec.kind = AggregateKind::kSum;
  spec.dim = 0; // string dimension: no numeric payload
  EXPECT_THROW(world.live->query_aggregate(q, spec, origin),
               std::invalid_argument);
  spec.kind = AggregateKind::kTopK;
  spec.dim = 1;
  spec.k = 0;
  EXPECT_THROW(world.live->query_aggregate(q, spec, origin),
               std::invalid_argument);
}

} // namespace
} // namespace squid::core
