// Geo moving-objects panel (DESIGN.md 4j, EXPERIMENTS.md): the update-heavy
// workload the mutable key plane exists for.
//
//   1. Host: core count + measurement protocol (thread rows on a 1-core
//      container are honest noise, not speedup).
//   2. Update throughput: one motion tick = objects × (retract + publish)
//      through the routed update plane (core/update.hpp), timed per
//      worker count — sequential (the caller's thread), then pools of
//      S ∈ {2, 4} planning threads — with the overlay cost columns
//      (hops/op, frames/op, bytes/op).
//   3. Recall under motion: after every tick, random bbox queries from
//      random origins are checked against the workload's exact ground
//      truth. Commits are synchronous, so recall must be 1.0 — this panel
//      is the bench-level completeness check of the mutable plane — and
//      k-nearest answers must equal a brute-force scan of the truth.
//   4. Churn + faults: the same tick stream with a lossy fault plan and
//      nodes leaving/joining between ticks. Lost retracts strand stale
//      positions and lost publishes hide objects, so recall degrades
//      honestly with the drop rate; the panel records delivered/lost and
//      the measured recall floor.
//
// Writes BENCH_geo.json. Protocol per timed row: one untimed warmup tick,
// then kRuns timed ticks, median rate reported.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fixture.hpp"
#include "squid/core/update.hpp"
#include "squid/sim/fault.hpp"
#include "squid/workload/geo.hpp"

namespace {

using namespace squid;
using namespace squid::bench;

constexpr int kRuns = 3; // timed passes per row; median reported

struct GeoFixture {
  workload::GeoConfig world;
  std::unique_ptr<workload::GeoMovingObjectsWorkload> objects;
  std::unique_ptr<core::SquidSystem> sys;
};

GeoFixture build_geo(const Flags& flags, std::size_t nodes,
                     std::size_t objects) {
  GeoFixture fx;
  fx.world.objects = objects;
  Rng rng(flags.seed);
  fx.objects =
      std::make_unique<workload::GeoMovingObjectsWorkload>(fx.world, rng);
  fx.sys = std::make_unique<core::SquidSystem>(fx.objects->make_space(),
                                               balanced_config());
  fx.sys->publish_batch(fx.objects->elements());
  fx.sys->build_network(nodes, rng);
  return fx;
}

/// One motion tick: every object retracts its old position and publishes
/// the new one, batched through one apply_updates run.
core::UpdateRun tick(GeoFixture& fx, Rng& rng, const core::UpdateOptions& opts) {
  std::vector<core::UpdateOp> ops;
  ops.reserve(2 * fx.objects->size());
  for (std::size_t i = 0; i < fx.objects->size(); ++i)
    fx.objects->step(i, fx.sys->ring().random_node(rng), ops, rng);
  return core::apply_updates(*fx.sys, ops, opts);
}

struct ThroughputRow {
  std::string mode;
  double ops_per_sec = 0;
  double hops_per_op = 0;
  double frames_per_op = 0;
  double bytes_per_op = 0;
};

ThroughputRow measure_workers(const Flags& flags, std::size_t nodes,
                              std::size_t objects, unsigned shards) {
  // Fresh fixture per row: every worker count pays the same store history.
  GeoFixture fx = build_geo(flags, nodes, objects);
  Rng rng(flags.seed + 17);
  core::UpdateOptions opts;
  opts.shards = shards;
  (void)tick(fx, rng, opts); // warmup
  std::vector<double> rates;
  double hops = 0, frames = 0, bytes = 0, ops = 0;
  for (int r = 0; r < kRuns; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const core::UpdateRun run = tick(fx, rng, opts);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    rates.push_back(static_cast<double>(run.results.size()) / seconds);
    ops += static_cast<double>(run.results.size());
    frames += static_cast<double>(run.messages);
    bytes += static_cast<double>(run.bytes);
    for (const core::UpdateResult& res : run.results)
      hops += static_cast<double>(res.hops);
  }
  std::sort(rates.begin(), rates.end());
  ThroughputRow row;
  row.mode =
      shards == 1 ? "sequential" : "parallel-S" + std::to_string(shards);
  row.ops_per_sec = rates[rates.size() / 2];
  row.hops_per_op = hops / ops;
  row.frames_per_op = frames / ops;
  row.bytes_per_op = bytes / ops;
  return row;
}

/// Recall of one bbox query against the workload's exact ground truth:
/// |found ∩ truth| / |truth| (1.0 when the truth set is empty).
double bbox_recall(const core::SquidSystem& sys,
                   const workload::GeoMovingObjectsWorkload& objects,
                   double xlo, double xhi, double ylo, double yhi,
                   overlay::NodeId origin) {
  const auto truth = objects.inside(xlo, xhi, ylo, yhi);
  if (truth.empty()) return 1.0;
  const auto result = sys.query(workload::bbox_query(xlo, xhi, ylo, yhi),
                                origin);
  std::set<std::string> found;
  for (const auto& e : result.elements) found.insert(e.name);
  std::size_t hit = 0;
  for (const auto& name : truth) hit += found.count(name);
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

/// Brute-force k-nearest over the workload truth, the oracle for
/// workload::k_nearest.
std::vector<workload::GeoNeighbor>
brute_nearest(const workload::GeoMovingObjectsWorkload& objects, double x,
              double y, std::size_t k) {
  std::vector<workload::GeoNeighbor> all;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const auto& o = objects.object(i);
    const double dx = o.x - x, dy = o.y - y;
    all.push_back({o.name, o.x, o.y, dx * dx + dy * dy});
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) {
              return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.name < b.name;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

} // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const double shrink = flags.shrink();
  const std::size_t nodes =
      std::max<std::size_t>(64, static_cast<std::size_t>(1000 * shrink));
  const std::size_t objects =
      std::max<std::size_t>(256, static_cast<std::size_t>(20000 * shrink));
  const std::size_t probe_queries =
      std::max<std::size_t>(4, static_cast<std::size_t>(32 * shrink));

  // --- Host / protocol metadata --------------------------------------------
  Table host({"host_cores", "median_runs", "warmup_runs", "nodes", "objects"});
  host.add_row({Table::cell(std::uint64_t{std::thread::hardware_concurrency()}),
                Table::cell(std::uint64_t{kRuns}), Table::cell(std::uint64_t{1}),
                Table::cell(std::uint64_t{nodes}),
                Table::cell(std::uint64_t{objects})});
  emit("Host and measurement protocol", host, flags);

  // --- Update throughput per worker count ----------------------------------
  std::vector<ThroughputRow> rows;
  for (unsigned s : {1u, 2u, 4u})
    rows.push_back(measure_workers(flags, nodes, objects, s));
  Table thr({"mode", "updates/s", "hops/op", "frames/op", "bytes/op"});
  for (const ThroughputRow& r : rows)
    thr.add_row({r.mode, Table::cell(r.ops_per_sec),
                 Table::cell(r.hops_per_op), Table::cell(r.frames_per_op),
                 Table::cell(r.bytes_per_op)});
  emit("Moving-object update throughput (retract+publish per tick)", thr,
       flags);

  // --- Recall under motion (fault-free: must be exact) ---------------------
  constexpr std::size_t kMotionTicks = 6;
  double min_recall = 1.0;
  std::size_t knn_exact = 0, knn_total = 0;
  {
    GeoFixture fx = build_geo(flags, nodes, objects);
    Rng rng(flags.seed + 31);
    core::UpdateOptions opts; // sequential
    for (std::size_t t = 0; t < kMotionTicks; ++t) {
      (void)tick(fx, rng, opts);
      for (std::size_t q = 0; q < probe_queries; ++q) {
        const double w = 32 + rng.uniform() * 96;
        const double x = rng.uniform() * (fx.world.width - w);
        const double y = rng.uniform() * (fx.world.height - w);
        min_recall = std::min(
            min_recall, bbox_recall(*fx.sys, *fx.objects, x, x + w, y, y + w,
                                    fx.sys->ring().random_node(rng)));
      }
      // k-nearest spot checks against the brute-force oracle.
      for (std::size_t q = 0; q < 4; ++q) {
        const double x = rng.uniform() * fx.world.width;
        const double y = rng.uniform() * fx.world.height;
        const auto got = workload::k_nearest(*fx.sys, fx.world, x, y, 8,
                                             fx.sys->ring().random_node(rng));
        knn_exact += got == brute_nearest(*fx.objects, x, y, 8) ? 1 : 0;
        ++knn_total;
      }
    }
  }
  Table recall({"ticks", "bbox_probes", "min_recall", "knn_exact", "knn_total"});
  recall.add_row({Table::cell(std::uint64_t{kMotionTicks}),
                  Table::cell(std::uint64_t{kMotionTicks * probe_queries}),
                  Table::cell(min_recall), Table::cell(std::uint64_t{knn_exact}),
                  Table::cell(std::uint64_t{knn_total})});
  emit("Recall under motion (fault-free)", recall, flags);

  // --- Churn + faults ------------------------------------------------------
  // A lossy plan: updates that lose every retry strand stale positions
  // (lost retract) or hide objects (lost publish); recall measured against
  // the workload truth reports the honest damage.
  double fault_recall = 1.0;
  core::UpdateRun fault_totals;
  std::size_t churn_moves = 0;
  {
    GeoFixture fx = build_geo(flags, nodes, objects);
    Rng rng(flags.seed + 47);
    sim::FaultPlan plan;
    plan.seed = flags.seed;
    plan.drop_probability = 0.05;
    core::UpdateOptions opts;
    opts.faults = &plan;
    for (std::size_t t = 0; t < kMotionTicks; ++t) {
      // Churn between ticks: one peer leaves, one joins.
      fx.sys->leave_node(fx.sys->ring().random_node(rng));
      fx.sys->join_node(rng);
      churn_moves += 2;
      const core::UpdateRun run = tick(fx, rng, opts);
      fault_totals.delivered += run.delivered;
      fault_totals.applied += run.applied;
      fault_totals.lost += run.lost;
      fault_totals.messages += run.messages;
      fault_totals.retries += run.retries;
      for (std::size_t q = 0; q < probe_queries; ++q) {
        const double w = 32 + rng.uniform() * 96;
        const double x = rng.uniform() * (fx.world.width - w);
        const double y = rng.uniform() * (fx.world.height - w);
        fault_recall = std::min(
            fault_recall, bbox_recall(*fx.sys, *fx.objects, x, x + w, y, y + w,
                                      fx.sys->ring().random_node(rng)));
      }
    }
  }
  Table faults({"drop_p", "churn_events", "delivered", "lost", "retries",
                "min_recall"});
  faults.add_row({Table::cell(0.05), Table::cell(std::uint64_t{churn_moves}),
                  Table::cell(std::uint64_t{fault_totals.delivered}),
                  Table::cell(std::uint64_t{fault_totals.lost}),
                  Table::cell(std::uint64_t{fault_totals.retries}),
                  Table::cell(fault_recall)});
  emit("Update stream under churn + message loss", faults, flags);

  // --- BENCH_geo.json ------------------------------------------------------
  std::string json = "{\n";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "  \"scale\": \"%s\",\n  \"host_cores\": %u,\n"
                "  \"nodes\": %zu,\n  \"objects\": %zu,\n",
                flags.scale.c_str(), std::thread::hardware_concurrency(),
                nodes, objects);
  json += buf;
  json += "  \"throughput\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"mode\": \"%s\", \"updates_per_sec\": %.0f, "
                  "\"hops_per_op\": %.2f, \"frames_per_op\": %.2f, "
                  "\"bytes_per_op\": %.1f}",
                  i ? "," : "", rows[i].mode.c_str(), rows[i].ops_per_sec,
                  rows[i].hops_per_op, rows[i].frames_per_op,
                  rows[i].bytes_per_op);
    json += buf;
  }
  json += "\n  ],\n";
  std::snprintf(buf, sizeof buf,
                "  \"motion_ticks\": %zu,\n  \"bbox_min_recall\": %.4f,\n"
                "  \"knn_exact\": %zu,\n  \"knn_total\": %zu,\n",
                kMotionTicks, min_recall, knn_exact, knn_total);
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"faults\": {\"drop_p\": 0.05, \"churn_events\": %zu, "
                "\"delivered\": %zu, \"lost\": %zu, \"retries\": %zu, "
                "\"min_recall\": %.4f}\n}\n",
                churn_moves, fault_totals.delivered, fault_totals.lost,
                fault_totals.retries, fault_recall);
  json += buf;

  const std::string out = "BENCH_geo.json";
  if (FILE* f = std::fopen(out.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  maybe_dump_metrics(flags);
  return 0;
}
