// Sharded multi-core message runtime (core/parallel.hpp, DESIGN.md 4f).
//
// Thread/ownership discipline, at a glance:
//
//   * Every ParallelQueryState and every ScanBuffer slot is created on the
//     query's HOME shard thread during planning; the slot address is stable
//     (deque) and ships to the executing shard inside a ShardJob through a
//     mailbox (mutex = happens-before for the slot and the scan payload).
//   * An executing shard writes ONLY its private ScanBuffer plus the
//     query's atomics. The release/acquire chain on scans_outstanding
//     orders every buffer write before the merge at finalize.
//   * The home shard is the only thread that touches QueryExec after
//     launch (planning drain, planning-finished hook, finalize) — the
//     finalize job is routed back to the home inbox.
//
// Determinism (why the answers are bit-equal to kLockstep): planning for
// one query runs single-threaded on its home engine at delay 0, so the
// engine FIFO replays the lockstep delivery order exactly — same routing,
// same timing DAG, same fault verdicts (per-query forked injector), same
// non-scan spans, same scan post order. Scans are pure store sweeps that
// never feed back into planning, so merging their buffers in post order
// reconstructs the lockstep element order and stats no matter which shard
// ran them when.

#include "squid/core/parallel.hpp"

#include <thread>
#include <utility>

#include "squid/core/system.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/util/require.hpp"

namespace squid::core {

namespace {

/// Registry handles for the shard runtime, resolved once (DESIGN.md 4c:
/// static-handle pattern; every call site folds to nothing when the obs
/// layer is compiled out).
struct ShardMetrics {
  obs::Counter& delivered;      ///< jobs + planning deliveries executed
  obs::Counter& handoffs;       ///< jobs staged for a different shard
  obs::Counter& idle_polls;     ///< times a shard worker went to sleep
  obs::HistogramMetric& batch;  ///< jobs per mailbox drain

  static ShardMetrics& get() {
    auto& r = obs::Registry::global();
    static ShardMetrics m{
        r.counter("squid.runtime.shard.messages_delivered"),
        r.counter("squid.runtime.shard.handoffs"),
        r.counter("squid.runtime.shard.idle_polls"),
        r.histogram("squid.runtime.shard.handoff_batch", 1.0, 257.0, 32)};
    return m;
  }
};

} // namespace

// --- ShardMailbox -----------------------------------------------------------

void ShardMailbox::push(ShardJob job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ShardMailbox::push_batch(std::vector<ShardJob>& batch) {
  if (batch.empty()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    jobs_.insert(jobs_.end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
  }
  cv_.notify_one();
  batch.clear();
}

std::vector<ShardJob> ShardMailbox::drain_wait(std::uint64_t* idle_waits) {
  std::unique_lock<std::mutex> lk(mu_);
  while (jobs_.empty() && !closed_) {
    if (idle_waits != nullptr) ++*idle_waits;
    cv_.wait(lk);
  }
  std::vector<ShardJob> out;
  out.swap(jobs_); // whole-queue drain: one lock round-trip per batch
  return out;      // empty only when closed
}

std::size_t ShardMailbox::try_drain(std::vector<ShardJob>& out) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t taken = jobs_.size();
  if (taken > 0) {
    out.insert(out.end(), std::make_move_iterator(jobs_.begin()),
               std::make_move_iterator(jobs_.end()));
    jobs_.clear();
  }
  return taken;
}

void ShardMailbox::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

// --- HandoffStager ----------------------------------------------------------

HandoffStager::HandoffStager(std::vector<ShardMailbox>& inboxes, unsigned self,
                             std::size_t batch_limit)
    : inboxes_(&inboxes), staging_(inboxes.size()), self_(self),
      limit_(batch_limit > 0 ? batch_limit : 1) {}

void HandoffStager::stage(overlay::NodeId dest, ShardJob job) {
  const unsigned shard =
      shard_of_node(dest, static_cast<unsigned>(staging_.size()));
  if (shard != self_) ++handoffs_;
  std::vector<ShardJob>& bucket = staging_[shard];
  bucket.push_back(std::move(job));
  if (bucket.size() >= limit_) (*inboxes_)[shard].push_batch(bucket);
}

void HandoffStager::flush() {
  for (std::size_t s = 0; s < staging_.size(); ++s)
    (*inboxes_)[s].push_batch(staging_[s]);
}

// --- ParallelExecutor -------------------------------------------------------

/// One shard's thread-private world: engine, outbound staging, tallies.
struct ParallelExecutor::Shard {
  sim::Engine engine;
  HandoffStager stager;
  std::uint64_t delivered = 0;
  std::uint64_t idle_waits = 0;

  Shard(std::vector<ShardMailbox>& inboxes, unsigned self, std::size_t limit)
      : stager(inboxes, self, limit) {}
};

ParallelExecutor::ParallelExecutor(const SquidSystem& sys, ParallelOptions opts)
    : sys_(&sys), opts_(opts),
      serialize_planning_(sys.config().cache_cluster_owners) {
  SQUID_REQUIRE(opts_.shards >= 1, "query_parallel needs at least one shard");
}

ParallelExecutor::~ParallelExecutor() = default;

ParallelRun ParallelExecutor::run(const std::vector<ParallelQuerySpec>& specs) {
  ParallelRun out;
  if (specs.empty()) return out;
  // Validate on the caller's thread: a bad origin, query, or aggregate spec
  // should throw here, not terminate() out of a worker.
  for (const ParallelQuerySpec& spec : specs) {
    SQUID_REQUIRE(sys_->ring().contains(spec.origin),
                  "query_parallel origin is not a live node");
    (void)sys_->query_rect(spec.query);
    if (spec.aggregate.has_value()) sys_->validate_aggregate(*spec.aggregate);
  }

  specs_ = &specs;
  const unsigned shards = opts_.shards;
  inboxes_ = std::vector<ShardMailbox>(shards);
  shards_.clear();
  shards_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s)
    shards_.push_back(
        std::make_unique<Shard>(inboxes_, s, opts_.handoff_batch));

  states_.clear();
  for (std::size_t k = 0; k < specs.size(); ++k) {
    states_.emplace_back();
    ParallelQueryState& q = states_.back();
    q.index = k;
    q.home = shard_of_node(specs[k].origin, shards);
    q.executor = this;
    if (opts_.faults != nullptr)
      q.injector.emplace(sim::fork_plan(*opts_.faults, k));
  }
  remaining_.store(specs.size(), std::memory_order_relaxed);

  std::vector<std::thread> threads;
  threads.reserve(shards);
  for (unsigned s = 0; s < shards; ++s)
    threads.emplace_back([this, s] { worker(s); });

  // Stage the launches. With the owner cache on, consecutive queries couple
  // through it, so planning must run in submit order: only query 0 launches
  // now and each planning-finished hook launches the next (scans of earlier
  // queries still overlap later planning). Otherwise all launches go out up
  // front and plannings of different home shards run concurrently.
  const std::size_t first_wave = serialize_planning_ ? 1 : specs.size();
  for (std::size_t k = 0; k < first_wave; ++k) {
    ShardJob job;
    job.kind = ShardJob::Kind::kLaunch;
    job.query = &states_[k];
    inboxes_[states_[k].home].push(std::move(job));
  }

  {
    std::unique_lock<std::mutex> lk(done_mu_);
    done_cv_.wait(lk, [this] {
      return remaining_.load(std::memory_order_acquire) == 0;
    });
  }
  for (ShardMailbox& inbox : inboxes_) inbox.close();
  for (std::thread& t : threads) t.join();

  out.results.reserve(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k)
    out.results.push_back(std::move(states_[k].exec->result));
  if (opts_.faults != nullptr) {
    out.faults.reserve(specs.size());
    for (const ParallelQueryState& q : states_) {
      ParallelFaultTallies t;
      t.rng_draws = q.injector->rng_draws();
      t.dropped = q.injector->dropped();
      t.delayed = q.injector->delayed();
      t.duplicated = q.injector->duplicated();
      out.faults.push_back(t);
    }
  }
  return out;
}

void ParallelExecutor::worker(unsigned shard) {
  Shard& sh = *shards_[shard];
  ShardMetrics& metrics = ShardMetrics::get();
  for (;;) {
    std::vector<ShardJob> batch = inboxes_[shard].drain_wait(&sh.idle_waits);
    if (batch.empty()) break; // closed
    metrics.batch.observe(static_cast<double>(batch.size()));
    for (ShardJob& job : batch) execute(sh, job);
    // Safe point: everything this batch staged goes out together.
    sh.stager.flush();
  }
  metrics.delivered.add(sh.delivered);
  metrics.handoffs.add(sh.stager.handoffs());
  metrics.idle_polls.add(sh.idle_waits);
}

void ParallelExecutor::execute(Shard& sh, ShardJob& job) {
  switch (job.kind) {
  case ShardJob::Kind::kLaunch:
    launch(sh, *job.query);
    break;
  case ShardJob::Kind::kScan: {
    ParallelQueryState& q = *job.query;
    sys_->sweep_scan(*q.exec, job.scan, *job.buffer);
    ++sh.delivered;
    // acq_rel: the release half publishes this buffer's writes down the
    // counter chain; the acquire half picks up every earlier scan's, so
    // whichever thread stages the finalize has the full set ordered
    // before the merge.
    if (q.scans_outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        q.planning_done.load(std::memory_order_acquire))
      stage_finalize(q);
    break;
  }
  case ShardJob::Kind::kFinalize:
    finalize(*job.query);
    break;
  }
}

void ParallelExecutor::launch(Shard& sh, ParallelQueryState& q) {
  const ParallelQuerySpec& spec = (*specs_)[q.index];
  q.exec = sys_->start_exec(
      sh.engine, DeliveryMode::kParallel, spec.query, spec.origin,
      spec.aggregate.has_value() ? &*spec.aggregate : nullptr);
  q.exec->par = &q;
  // The forked injector rides the home engine only for this query's
  // planning drain; Engine::admit stays the single choke point per shard.
  if (q.injector.has_value()) sh.engine.set_fault_injector(&*q.injector);
  sys_->begin_resolution(q.exec);
  std::uint64_t steps = 0;
  while (sh.engine.step()) ++steps;
  sh.delivered += steps;
  sh.engine.set_fault_injector(nullptr);
}

void ParallelExecutor::finalize(ParallelQueryState& q) {
  QueryExec& ex = *q.exec;
  // Absorb in deque order == scan post order == the order lockstep executed
  // the scans — this is what reconstructs the element order bit-exactly.
  // Running here on the home shard keeps QueryExec (and its telemetry
  // scratch) single-threaded.
  for (ScanBuffer& b : q.scans) ex.absorb_scan(b);
  ex.reply_posted = true;
  sys_->finalize_query(ex);
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Lock-then-notify so the run() thread cannot slip between its
    // predicate check and the wait.
    std::lock_guard<std::mutex> lk(done_mu_);
    done_cv_.notify_all();
  }
}

void ParallelExecutor::stage_finalize(ParallelQueryState& q) {
  // Planning-done hook and last-scan completion can race here; exactly one
  // wins. Direct push (not staged): progress must not wait for a batch.
  if (q.finalize_staged.exchange(true, std::memory_order_acq_rel)) return;
  ShardJob job;
  job.kind = ShardJob::Kind::kFinalize;
  job.query = &q;
  inboxes_[q.home].push(std::move(job));
}

// --- NodeRuntime seams (called from src/core/runtime.cpp) -------------------

void parallel_post_scan(QueryExec& ex, msg::ScanRequest scan) {
  ParallelQueryState* q = ex.par;
  SQUID_REQUIRE(q != nullptr, "kParallel exec without executor state");
  const overlay::NodeId dest = scan.at;
  q->scans.emplace_back(); // stable slot (deque): filled by the executing
  ScanBuffer* buffer = &q->scans.back(); // shard, merged at finalize
  q->scans_outstanding.fetch_add(1, std::memory_order_relaxed);
  ShardJob job;
  job.kind = ShardJob::Kind::kScan;
  job.query = q;
  job.buffer = buffer;
  job.scan = std::move(scan);
  q->executor->shards_[q->home]->stager.stage(dest, std::move(job));
}

void parallel_planning_finished(const std::shared_ptr<QueryExec>& exec) {
  QueryExec& ex = *exec;
  ParallelQueryState* q = ex.par;
  SQUID_REQUIRE(q != nullptr, "kParallel exec without executor state");
  // maybe_complete runs after every delivery; outstanding can only hit zero
  // once planning is fully drained, but guard against the launch-time call
  // for a query that completed at launch re-entering via a later delivery.
  if (q->planning_hook_ran) return;
  q->planning_hook_ran = true;
  ParallelExecutor* executor = q->executor;
  // The owner cache is only touched during planning: release the guard now
  // (not at finalize) so serialized plannings never overlap guards.
  ex.cache_guard.reset();
  // Every scan this query will ever post is staged by now; flush so the
  // scans_outstanding count below can only go down.
  executor->shards_[q->home]->stager.flush();
  q->planning_done.store(true, std::memory_order_release);
  if (q->scans_outstanding.load(std::memory_order_acquire) == 0)
    executor->stage_finalize(*q);
  if (executor->serialize_planning_ &&
      q->index + 1 < executor->specs_->size()) {
    ParallelQueryState& next = executor->states_[q->index + 1];
    ShardJob job;
    job.kind = ShardJob::Kind::kLaunch;
    job.query = &next;
    executor->inboxes_[next.home].push(std::move(job));
  }
}

// --- SquidSystem entry point ------------------------------------------------

ParallelRun SquidSystem::query_parallel(
    const std::vector<ParallelQuerySpec>& specs,
    const ParallelOptions& opts) const {
  ParallelExecutor executor(*this, opts);
  return executor.run(specs);
}

} // namespace squid::core
