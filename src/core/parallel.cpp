// Batch execution on worker threads (core/parallel.hpp, DESIGN.md 4f).

#include "squid/core/parallel.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "squid/core/system.hpp"
#include "squid/util/require.hpp"

namespace squid::core {

void for_each_index(unsigned workers, std::size_t count,
                    const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex failure_mu;
  std::exception_ptr failure; // the first exception fn threw, if any
  const auto drain = [&] {
    try {
      for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
           k < count; k = next.fetch_add(1, std::memory_order_relaxed))
        fn(k);
    } catch (...) {
      next.store(count, std::memory_order_relaxed); // stop every worker
      const std::lock_guard<std::mutex> lock(failure_mu);
      if (!failure) failure = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  try {
    for (unsigned w = 1; w < workers && w < count; ++w)
      pool.emplace_back(drain);
  } catch (const std::system_error&) {
    // No thread to be had: the workers already running finish the batch.
  }
  drain();
  for (std::thread& t : pool) t.join(); // join: happens-before every result
  if (failure) std::rethrow_exception(failure);
}

ParallelRun SquidSystem::query_parallel(
    const std::vector<ParallelQuerySpec>& specs,
    const ParallelOptions& opts) const {
  SQUID_REQUIRE(opts.shards >= 1, "query_parallel needs at least one worker");
  // Validate on the caller's thread: a bad origin, query, or aggregate spec
  // throws here, not out of a worker.
  for (const ParallelQuerySpec& spec : specs) {
    SQUID_REQUIRE(ring_.contains(spec.origin),
                  "query_parallel origin is not a live node");
    (void)query_rect(spec.query);
    if (spec.aggregate.has_value()) validate_aggregate(*spec.aggregate);
  }
  ParallelRun out;
  out.results.resize(specs.size());
  if (opts.faults != nullptr) out.faults.resize(specs.size());
  // The owner cache couples consecutive queries: one worker, submit order.
  const unsigned workers = config_.cache_cluster_owners ? 1 : opts.shards;
  for_each_index(workers, specs.size(), [&](std::size_t k) {
    const ParallelQuerySpec& spec = specs[k];
    const AggregateSpec* aggregate =
        spec.aggregate.has_value() ? &*spec.aggregate : nullptr;
    if (opts.faults == nullptr) {
      out.results[k] = run_lockstep(spec.query, spec.origin, aggregate,
                                    /*fault=*/nullptr);
      return;
    }
    sim::FaultInjector injector(sim::fork_plan(*opts.faults, k));
    out.results[k] = run_lockstep(spec.query, spec.origin, aggregate,
                                  &injector);
    out.faults[k] = {injector.rng_draws(), injector.dropped(),
                     injector.delayed(), injector.duplicated()};
  });
  return out;
}

} // namespace squid::core
