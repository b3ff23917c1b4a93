// Micro-benchmarks: the key store's data plane — corpus loading, contiguous
// segment scans, routed update batches, and the rank queries behind load
// probes and balancing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/core/update.hpp"
#include "squid/workload/corpus.hpp"

namespace {

using namespace squid;

struct StoreFixture {
  std::unique_ptr<workload::KeywordCorpus> corpus;
  std::unique_ptr<core::SquidSystem> sys;
  /// The raw corpus draw, in publish order (duplicate keys included).
  std::vector<core::DataElement> elements;
  std::vector<core::SquidSystem::NodeId> probe_nodes;
};

/// Build a system holding `keys` distinct keys over `nodes` peers, plus the
/// element sequence that produced it (for the publish benches).
const StoreFixture& store_fixture(std::size_t keys, std::size_t nodes) {
  static std::map<std::pair<std::size_t, std::size_t>, StoreFixture> cache;
  auto& fx = cache[{keys, nodes}];
  if (fx.sys) return fx;
  Rng rng(2003);
  fx.corpus = std::make_unique<workload::KeywordCorpus>(2, 2500, 0.8, rng);
  fx.sys = std::make_unique<core::SquidSystem>(fx.corpus->make_space());
  std::set<u128> seen;
  while (seen.size() < keys) {
    fx.elements.push_back(fx.corpus->make_element(rng));
    seen.insert(
        fx.sys->curve().index_of(fx.sys->space().encode(fx.elements.back().keys)));
  }
  for (const auto& e : fx.elements) fx.sys->publish(e);
  fx.sys->build_network(nodes, rng);
  for (int i = 0; i < 4096; ++i)
    fx.probe_nodes.push_back(fx.sys->ring().random_node(rng));
  return fx;
}

/// Sequential per-element publish of the whole corpus draw (the seed path
/// every fixture used before publish_batch).
void BM_PublishSequential(benchmark::State& state) {
  const auto& fx =
      store_fixture(static_cast<std::size_t>(state.range(0)), 1000);
  for (auto _ : state) {
    core::SquidSystem sys(fx.corpus->make_space());
    for (const auto& e : fx.elements) sys.publish(e);
    benchmark::DoNotOptimize(sys.key_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.elements.size()));
}

/// Bulk sort-merge load of the same corpus draw (the fixture path).
void BM_PublishBatch(benchmark::State& state) {
  const auto& fx =
      store_fixture(static_cast<std::size_t>(state.range(0)), 1000);
  for (auto _ : state) {
    core::SquidSystem sys(fx.corpus->make_space());
    sys.publish_batch(fx.elements);
    benchmark::DoNotOptimize(sys.key_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.elements.size()));
}

/// Contiguous scan over every stored key (the whole-space segment scan).
void BM_SegmentScan(benchmark::State& state) {
  const auto& fx =
      store_fixture(static_cast<std::size_t>(state.range(0)), 1000);
  for (auto _ : state) {
    std::size_t total = 0;
    fx.sys->for_each_key([&](u128, const sfc::Point&,
                             const std::vector<core::DataElement>& elements) {
      total += elements.size();
    });
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.sys->key_count()));
}

/// Per-node key counts in ring order (Figs 18-19's load metric).
void BM_NodeLoads(benchmark::State& state) {
  const auto& fx =
      store_fixture(static_cast<std::size_t>(state.range(0)), 5400);
  for (auto _ : state) {
    auto loads = fx.sys->node_loads();
    benchmark::DoNotOptimize(loads.data());
  }
}

/// Rank query: keys owned by one node (the join-probe load report).
void BM_LoadRank(benchmark::State& state) {
  const auto& fx =
      store_fixture(static_cast<std::size_t>(state.range(0)), 5400);
  std::size_t i = 0, acc = 0;
  for (auto _ : state)
    acc += fx.sys->load_of(fx.probe_nodes[i++ % fx.probe_nodes.size()]);
  benchmark::DoNotOptimize(acc);
}

/// Single-key publish -> retract cycle against a loaded store (DESIGN.md
/// 4j): Arg0 = resident keys K, Arg1 = store_delta_cap. Cap 1 forces a
/// merge on every mutation — the PR-2 flat store's O(K) memmove, the
/// "before" arm. Cap 0 is the tiered sqrt policy: the publish lands in the
/// delta tier and the retract removes it there, O(log K + |delta|)
/// amortized. The fresh probe key keeps the resident set at K across
/// iterations in both arms.
void BM_SingleKeyUpdate(benchmark::State& state) {
  const auto& fx =
      store_fixture(static_cast<std::size_t>(state.range(0)), 1000);
  core::SquidConfig config;
  config.store_delta_cap = static_cast<std::size_t>(state.range(1));
  core::SquidSystem sys(fx.corpus->make_space(), config);
  sys.publish_batch(fx.elements);
  // A probe element whose key is not already resident, so publish inserts a
  // key and retract removes it (the mutating path both arms must pay).
  Rng rng(777);
  core::DataElement probe;
  const auto resident = sys.key_indices();
  for (;;) {
    probe = fx.corpus->make_element(rng);
    const u128 index = sys.curve().index_of(sys.space().encode(probe.keys));
    if (!std::binary_search(resident.begin(), resident.end(), index)) break;
  }
  for (auto _ : state) {
    sys.publish(probe);
    sys.unpublish(probe);
  }
  state.SetItemsProcessed(state.iterations() * 2); // one publish, one retract
}

/// One routed update batch on the caller's thread (DESIGN.md 4j): Arg0 =
/// resident keys K, Arg1 = ops per batch. A batch retracts and republishes
/// stored elements, so the resident key set stays at K; a one-op batch
/// alternates a retract and a republish of one element. The commit takes
/// the store's in-place path while the batch's distinct keys stay under
/// the merge threshold (4*sqrt(K): 565 at 20k, 1264 at 100k) and one fold
/// above it.
void BM_UpdateBatch(benchmark::State& state) {
  const auto& fx =
      store_fixture(static_cast<std::size_t>(state.range(0)), 1000);
  const auto ops = static_cast<std::size_t>(state.range(1));
  core::SquidSystem sys(fx.corpus->make_space());
  sys.publish_batch(fx.elements);
  Rng rng(4242);
  sys.build_network(1000, rng);
  std::vector<core::UpdateOp> batches[2];
  for (std::size_t i = 0; batches[0].size() < ops; ++i) {
    const core::DataElement& e = fx.elements[i * 7919 % fx.elements.size()];
    const auto origin = sys.ring().random_node(rng);
    batches[0].push_back(core::UpdateOp::retract(e, origin));
    (ops == 1 ? batches[1] : batches[0])
        .push_back(core::UpdateOp::publish(e, origin));
  }
  batches[0].resize(ops);
  if (ops > 1) batches[1] = batches[0];
  std::size_t round = 0;
  for (auto _ : state) {
    const core::UpdateRun run = core::apply_updates(sys, batches[round++ % 2]);
    benchmark::DoNotOptimize(run.applied);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ops));
}

/// Median-split identifier of one node's key arc (balancing split point).
void BM_MedianSplit(benchmark::State& state) {
  const auto& fx =
      store_fixture(static_cast<std::size_t>(state.range(0)), 5400);
  std::size_t i = 0, hits = 0;
  for (auto _ : state) {
    const auto id =
        fx.sys->median_split_id(fx.probe_nodes[i++ % fx.probe_nodes.size()]);
    hits += id.has_value();
  }
  benchmark::DoNotOptimize(hits);
}

} // namespace

BENCHMARK(BM_PublishSequential)
    ->Arg(20000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PublishBatch)
    ->Arg(20000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SegmentScan)->Arg(20000)->Arg(100000)->Unit(benchmark::kMicrosecond);
// {keys, store_delta_cap}: cap 1 = flat-store "before" arm (linear in keys),
// cap 0 = tiered sqrt policy (log). Compare columns at fixed cap across the
// two key scales.
BENCHMARK(BM_SingleKeyUpdate)
    ->Args({20000, 1})
    ->Args({100000, 1})
    ->Args({20000, 0})
    ->Args({100000, 0});
// {keys, ops per batch}: one op, a batch under the merge threshold, and a
// geo-motion-sized tick.
BENCHMARK(BM_UpdateBatch)
    ->Args({20000, 1})
    ->Args({20000, 2000})
    ->Args({20000, 40000})
    ->Args({100000, 1})
    ->Args({100000, 2000})
    ->Args({100000, 40000})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_NodeLoads)->Arg(100000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LoadRank)->Arg(100000);
BENCHMARK(BM_MedianSplit)->Arg(100000);
