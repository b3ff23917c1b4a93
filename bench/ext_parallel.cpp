// Parallel execution panels (DESIGN.md 4f).
//
//   1. Host: core count + measurement protocol, so recorded JSON is
//      interpretable (thread scaling on a 1-core container is honest noise,
//      not a regression).
//   2. Thread scaling of independent client queries: SquidSystem::query is
//      a pure reader (owner cache off), so N threads run N private lockstep
//      engines. The classic embarrassingly-parallel ceiling.
//   3. Worker scaling of ONE batch through query_parallel: S worker
//      threads claim whole queries from a shared counter and run each in
//      lockstep on a private engine. Same answers at every S (the
//      differential suite locks that); this measures the wall-clock.
//   4. Concurrent in-flight queries on one engine clock (query_async):
//      single-threaded message runtime; the virtual completion-time
//      distribution is the honest overlap.
//
// Measurement protocol (every timed row): one untimed warmup pass, then
// kRuns timed passes, report the MEDIAN rate. On quiet multi-core hosts the
// spread is small; on shared 1-core CI containers the median shields the
// recorded numbers from scheduler spikes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/fixture.hpp"
#include "common/query_sets.hpp"
#include "squid/core/parallel.hpp"
#include "squid/sim/engine.hpp"
#include "squid/stats/summary.hpp"

namespace {

constexpr int kRuns = 3; // timed passes per row; median reported

/// One untimed warmup, then kRuns timed passes of `body` (which reports the
/// number of queries it resolved); returns the median queries/second.
template <typename Body>
double median_rate(Body&& body) {
  (void)body(); // warmup: touch every cache line the timed passes will
  std::vector<double> rates;
  rates.reserve(kRuns);
  for (int r = 0; r < kRuns; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t queries = body();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    rates.push_back(static_cast<double>(queries) / seconds);
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

} // namespace

int main(int argc, char** argv) {
  using namespace squid;
  using namespace squid::bench;
  const Flags flags = Flags::parse(argc, argv);
  const ScalePoint scale = paper_scales(flags)[1]; // 2000 nodes / 4e4 keys

  KeywordFixture fx = build_keyword_fixture(2, scale, flags.seed);
  const auto queries = q1_queries(fx);

  // --- Host / protocol metadata --------------------------------------------
  Table host({"host_cores", "median_runs", "warmup_runs"});
  host.add_row({Table::cell(std::uint64_t{std::thread::hardware_concurrency()}),
                Table::cell(std::uint64_t{kRuns}),
                Table::cell(std::uint64_t{1})});
  emit("Host and measurement protocol", host, flags);

  // Sweep to at least 4 threads/shards even on small machines:
  // oversubscribed rows still measure contention honestly (speedup < 1),
  // and the concurrent paths get exercised on every host (the TSan smoke
  // relies on this).
  const unsigned hw = std::max(4u, std::thread::hardware_concurrency());

  // --- Independent client queries across threads ---------------------------
  Table table({"threads", "queries/s", "speedup"});
  double base_rate = 0;
  for (unsigned threads = 1; threads <= hw; threads *= 2) {
    constexpr int kPerThread = 40;
    // Keeps the per-query result live so the compiler cannot drop the work.
    std::atomic<std::size_t> benchmark_sink{0};
    const double rate = median_rate([&] {
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          // splitmix64 decorrelates the per-thread streams; a plain xor
          // left thread 0 running on the unmixed base seed.
          std::uint64_t mix = flags.seed + t;
          Rng rng(splitmix64(mix));
          for (int i = 0; i < kPerThread; ++i) {
            const auto& nq = queries[rng.below(queries.size())];
            const auto result =
                fx.sys->query(nq.query, fx.sys->ring().random_node(rng));
            benchmark_sink.fetch_add(result.stats.matches,
                                     std::memory_order_relaxed);
          }
        });
      }
      for (auto& th : pool) th.join();
      return static_cast<std::size_t>(threads) * kPerThread;
    });
    if (threads == 1) base_rate = rate;
    table.add_row({Table::cell(std::uint64_t{threads}), Table::cell(rate),
                   Table::cell(rate / base_rate)});
  }
  emit("Parallel query throughput (read-only engine, owner cache off)",
       table, flags);

  // --- Worker pool: one batch across S worker threads ----------------------
  constexpr std::size_t kBatch = 96;
  std::vector<core::ParallelQuerySpec> specs;
  {
    std::uint64_t mix = flags.seed + 0x54a2d;
    Rng rng(splitmix64(mix));
    specs.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      core::ParallelQuerySpec spec;
      spec.query = queries[rng.below(queries.size())].query;
      spec.origin = fx.sys->ring().random_node(rng);
      specs.push_back(std::move(spec));
    }
  }
  Table shard_table({"shards", "queries/s", "speedup"});
  double shard_base = 0;
  for (unsigned shards = 1; shards <= hw; shards *= 2) {
    std::atomic<std::size_t> benchmark_sink{0};
    const double rate = median_rate([&] {
      core::ParallelOptions opts;
      opts.shards = shards;
      const core::ParallelRun run = fx.sys->query_parallel(specs, opts);
      for (const auto& r : run.results)
        benchmark_sink.fetch_add(r.stats.matches, std::memory_order_relaxed);
      return specs.size();
    });
    if (shards == 1) shard_base = rate;
    shard_table.add_row({Table::cell(std::uint64_t{shards}), Table::cell(rate),
                         Table::cell(rate / shard_base)});
  }
  emit("Worker pool scaling (query_parallel, one batch)", shard_table,
       flags);

  // --- Concurrent in-flight queries on one engine clock --------------------
  constexpr int kTotalAsync = 192; // divisible by every in_flight level
  Table async_table({"in_flight", "queries/s", "virt_min", "virt_mean",
                     "virt_p95", "virt_max"});
  for (const std::size_t in_flight : {1u, 4u, 16u, 64u}) {
    Summary virt; // deterministic across passes; kept from the last one
    std::size_t sink = 0;
    const double rate = median_rate([&] {
      std::uint64_t mix = flags.seed + 0xa51c;
      Rng rng(splitmix64(mix));
      virt = Summary();
      for (int launched = 0; launched < kTotalAsync;
           launched += static_cast<int>(in_flight)) {
        sim::Engine engine;
        std::vector<core::QueryHandle> handles;
        handles.reserve(in_flight);
        for (std::size_t i = 0; i < in_flight; ++i) {
          const auto& nq = queries[rng.below(queries.size())];
          handles.push_back(fx.sys->query_async(
              nq.query, fx.sys->ring().random_node(rng), engine));
        }
        engine.run();
        for (const core::QueryHandle& h : handles) {
          virt.add(static_cast<double>(h.completed_at() - h.started_at()));
          sink += h.result().stats.matches;
        }
      }
      return static_cast<std::size_t>(kTotalAsync);
    });
    if (sink == static_cast<std::size_t>(-1)) return 1; // keep results live
    async_table.add_row({Table::cell(std::uint64_t{in_flight}),
                         Table::cell(rate), Table::cell(virt.min()),
                         Table::cell(virt.mean()),
                         Table::cell(virt.percentile(95)),
                         Table::cell(virt.max())});
  }
  emit("Concurrent in-flight queries (query_async, one engine clock)",
       async_table, flags);
  maybe_dump_metrics(flags);
  return 0;
}
