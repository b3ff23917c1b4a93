// Flash-crowd hotspot panel (DESIGN.md 4h/4i, EXPERIMENTS.md): attach the
// virtual-time telemetry pipeline to a paper-scale fixture, drive an
// adversarial workload through it, and measure both halves of the hotspot
// loop:
//
//   detection — per-epoch load imbalance (Gini over the ring-space heatmap)
//   and the online detector's latency from workload onset to its first
//   hotspot.onset event (the PR 8 panel);
//
//   reaction — the same run with the ReactionController closing the loop
//   (median-key splits, hot-cluster replication on cold peers with
//   invalidation on republish; docs/LOAD_BALANCING.md), reported as
//   before/after-onset Gini and critical-path latency percentiles, for all
//   three query paths (query() in kLockstep, query_async in kVirtualTime,
//   query_parallel on a worker pool).
//
// Flags (before the common bench flags):
//   --react / --no-react   run the reaction comparison (default on; off
//                          reproduces the detection-only panel, lockstep)
//   --scenario=flash|diurnal|skew
//       flash    one suddenly popular keyword prefix (default)
//       diurnal  the popularity focus relocates every few epochs
//       skew     concentrated publishes invalidating a served replica
//
// The detector's absolute floor is calibrated on the pre-onset hum via
// obs::calibrated_min_load with SquidConfig::hotspot_min_load_factor — the
// same documented rule `squid_cli heatmap` applies, so CLI and bench agree.
// Writes BENCH_hotspot.json (detection fields plus one reaction row per
// mode × controller arm).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/fixture.hpp"
#include "squid/core/parallel.hpp"
#include "squid/core/reaction.hpp"
#include "squid/obs/export.hpp"
#include "squid/obs/hotspot.hpp"
#include "squid/obs/telemetry.hpp"
#include "squid/sim/engine.hpp"
#include "squid/stats/summary.hpp"

namespace {

using namespace squid;
using namespace squid::bench;

constexpr sim::Time kEpochTicks = 256; // lockstep queries fit well inside
constexpr std::uint64_t kEpochs = 24;
constexpr std::size_t kQueriesPerEpoch = 32;
constexpr std::size_t kCrowdMultiplier = 3;    // a flash crowd ADDS traffic
constexpr std::size_t kPublishesPerEpoch = 16; // skew scenario only
constexpr unsigned kParallelShards = 4;

enum class Mode { kLockstep, kVirtual, kParallel };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kLockstep: return "lockstep";
    case Mode::kVirtual: return "virtual";
    case Mode::kParallel: return "parallel";
  }
  return "?";
}

/// The fixed per-epoch request stream, precomputed once so every mode and
/// both controller arms replay byte-identical queries and publishes.
struct EpochPlan {
  std::vector<keyword::Query> queries;
  std::vector<core::DataElement> publishes;
};

struct Scenario {
  std::string name;
  std::uint64_t onset = 8; ///< first adversarial epoch (calibration window end)
  std::uint64_t end = 16;  ///< first calm epoch again (flash only; else kEpochs)
  std::vector<EpochPlan> plan;
};

Scenario build_scenario(const std::string& name,
                        const workload::KeywordCorpus& corpus,
                        std::uint64_t seed) {
  Scenario sc;
  sc.name = name;
  sc.plan.resize(kEpochs);
  Rng rng(seed ^ 0x5ce7a110);
  if (name == "flash") {
    workload::FlashCrowdConfig crowd;
    crowd.onset_epoch = 8;
    crowd.end_epoch = 16;
    sc.onset = crowd.onset_epoch;
    sc.end = crowd.end_epoch;
    const workload::FlashCrowdWorkload wl(corpus, crowd);
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      // A flash crowd multiplies request volume, it does not merely re-mix
      // the baseline stream — the extra draws carry the crowd/baseline mix
      // the workload already models for that epoch.
      const bool crowded = e >= sc.onset && e < sc.end;
      const std::size_t n = kQueriesPerEpoch * (crowded ? kCrowdMultiplier : 1);
      for (std::size_t q = 0; q < n; ++q)
        sc.plan[e].queries.push_back(wl.draw(e, rng));
    }
  } else if (name == "diurnal") {
    workload::DiurnalShiftConfig cfg; // focus relocates every period_epochs
    const workload::DiurnalShiftWorkload wl(corpus, cfg);
    // Night first: the calibration window draws the same stream with the
    // focus turned off, so the detector's floor measures the diffuse hum —
    // calibrating on already-focused traffic would put 2x its own p95 above
    // every later peak and the relocations could never register as surges.
    workload::DiurnalShiftConfig diffuse = cfg;
    diffuse.focus_fraction = 0.0;
    const workload::DiurnalShiftWorkload night(corpus, diffuse);
    sc.onset = cfg.period_epochs; // daybreak: the focus switches on here
    sc.end = kEpochs;             // and then relocates every period
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      const workload::DiurnalShiftWorkload& src = e < sc.onset ? night : wl;
      for (std::size_t q = 0; q < kQueriesPerEpoch; ++q)
        sc.plan[e].queries.push_back(src.draw(e, rng));
    }
  } else if (name == "skew") {
    const workload::SkewedPublisherWorkload wl(corpus, {});
    sc.onset = 8;
    sc.end = kEpochs;
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      const bool hot = e >= sc.onset;
      for (std::size_t q = 0; q < kQueriesPerEpoch; ++q) {
        if (hot && rng.chance(0.6))
          sc.plan[e].queries.push_back(wl.hot_query());
        else
          sc.plan[e].queries.push_back(wl.draw(rng));
      }
      if (hot)
        for (std::size_t p = 0; p < kPublishesPerEpoch; ++p)
          sc.plan[e].publishes.push_back(wl.make_element(rng));
    }
  } else {
    std::fprintf(stderr, "unknown --scenario=%s (flash|diurnal|skew)\n",
                 name.c_str());
    std::exit(2);
  }
  return sc;
}

struct ArmOutcome {
  obs::LoadSeries series;
  std::vector<obs::ImbalanceRow> imbalance;
  Summary lat_pre;    ///< critical-path hops, epochs before onset
  Summary lat_during; ///< critical-path hops, [onset, end)
  Summary lat_after;  ///< critical-path hops, [end, kEpochs)
  core::ReactionReport totals;
  std::optional<std::uint64_t> detection_latency;
  std::vector<obs::HotspotDetector::HotNode> top_hot;
  std::size_t events = 0;
  std::size_t active_at_end = 0;
  std::size_t nodes_end = 0;
  double min_load = 0; ///< the calibrated detector floor actually used
};

/// Mean Gini over the epoch window [lo, hi), computed over the nodes active
/// *within that window*. Restricting the node set matters for the reaction
/// arms: derive_imbalance over the full series would charge nodes created by
/// mid-run splits as zero-load rows to epochs before they existed, inflating
/// early-window inequality retroactively.
double windowed_gini(const obs::LoadSeries& series, std::uint64_t lo,
                     std::uint64_t hi) {
  obs::LoadSeries window;
  window.epoch_ticks = series.epoch_ticks;
  window.id_bits = series.id_bits;
  for (const auto& sample : series.epochs)
    if (sample.epoch >= lo && sample.epoch < hi)
      window.epochs.push_back(sample);
  const auto rows = obs::derive_imbalance(window);
  double sum = 0;
  for (const auto& row : rows) sum += row.gini;
  return rows.empty() ? 0.0 : sum / static_cast<double>(rows.size());
}

/// One full run of the scenario in one delivery mode, controller on or off
/// (off = detection only, the PR 8 behavior). Fresh fixture per arm: the
/// controller mutates the overlay, so arms must not share topology.
ArmOutcome run_arm(const Scenario& sc, Mode mode, const Flags& flags,
                   bool react) {
  const ScalePoint scale = paper_scales(flags)[0];
  KeywordFixture fx = build_keyword_fixture(2, scale, flags.seed);

  obs::EpochSampler sampler(kEpochTicks);
  fx.sys->set_telemetry(&sampler);

  ArmOutcome out;
  Rng origin_rng(flags.seed ^ 0x40075);
  std::unique_ptr<core::ReactionController> controller;

  for (std::uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    for (const auto& element : sc.plan[epoch].publishes)
      fx.sys->publish(element);

    const auto& queries = sc.plan[epoch].queries;
    Summary& lat = epoch < sc.onset
                       ? out.lat_pre
                       : (epoch < sc.end ? out.lat_during : out.lat_after);
    switch (mode) {
      case Mode::kLockstep:
        for (const auto& query : queries) {
          const auto result =
              fx.sys->query(query, fx.sys->ring().random_node(origin_rng));
          lat.add(static_cast<double>(result.stats.critical_path_hops));
        }
        break;
      case Mode::kVirtual: {
        sim::Engine engine;
        std::vector<core::QueryHandle> handles;
        handles.reserve(queries.size());
        for (const auto& query : queries)
          handles.push_back(fx.sys->query_async(
              query, fx.sys->ring().random_node(origin_rng), engine));
        engine.run();
        for (const auto& h : handles)
          lat.add(static_cast<double>(h.result().stats.critical_path_hops));
        break;
      }
      case Mode::kParallel: {
        std::vector<core::ParallelQuerySpec> specs;
        specs.reserve(queries.size());
        for (const auto& query : queries) {
          core::ParallelQuerySpec spec;
          spec.query = query;
          spec.origin = fx.sys->ring().random_node(origin_rng);
          specs.push_back(std::move(spec));
        }
        core::ParallelOptions opts;
        opts.shards = kParallelShards;
        const core::ParallelRun run = fx.sys->query_parallel(specs, opts);
        for (const auto& r : run.results)
          lat.add(static_cast<double>(r.stats.critical_path_hops));
        break;
      }
    }

    // Epoch close: a safe point in every mode — no query in flight.
    sampler.advance_to(static_cast<sim::Time>(epoch + 1) * kEpochTicks);
    const obs::LoadSeries so_far = sampler.finish();
    if (epoch + 1 == sc.onset) {
      // Calibrate the detector's absolute floor on the pre-onset hum, then
      // bring the controller online and replay the calibration window so
      // its EWMA baselines match an always-on detector.
      obs::HotspotConfig hcfg;
      hcfg.min_load =
          obs::calibrated_min_load(hcfg.min_load, so_far, sc.onset,
                                   fx.sys->config().hotspot_min_load_factor);
      out.min_load = hcfg.min_load;
      core::ReactionConfig rcfg;
      rcfg.enabled = react;
      controller = std::make_unique<core::ReactionController>(
          *fx.sys, hcfg, rcfg, flags.seed ^ 0xbead);
      for (std::uint64_t i = 0; i <= epoch && i < so_far.epochs.size(); ++i)
        controller->on_epoch(so_far.epochs[i]);
    } else if (controller && epoch < so_far.epochs.size()) {
      const auto r = controller->on_epoch(so_far.epochs[epoch]);
      if (std::getenv("SQUID_REACT_TRACE") && mode == Mode::kLockstep &&
          react) {
        const auto& sample = so_far.epochs[epoch];
        std::vector<std::uint64_t> loads;
        const obs::LoadVector* top = nullptr;
        for (const auto& [node, lv] : sample.nodes) {
          loads.push_back(lv.total());
          if (top == nullptr || lv.total() > top->total()) top = &lv;
        }
        std::sort(loads.rbegin(), loads.rend());
        if (top != nullptr)
          std::fprintf(stderr,
                       "  top1: scan=%llu routes=%llu pub=%llu cache=%llu "
                       "replies=%llu\n",
                       static_cast<unsigned long long>(top->scan_hits),
                       static_cast<unsigned long long>(top->routes_through),
                       static_cast<unsigned long long>(top->publishes),
                       static_cast<unsigned long long>(top->cache_hits),
                       static_cast<unsigned long long>(top->replies_forwarded));
        std::fprintf(stderr,
                     "epoch %llu: onsets=%zu clears=%zu repl=%zu drops=%zu "
                     "gini=%.3f top5=",
                     static_cast<unsigned long long>(epoch), r.onsets,
                     r.clears, r.replications, r.drops,
                     windowed_gini(so_far, epoch, epoch + 1));
        for (std::size_t i = 0; i < loads.size() && i < 5; ++i)
          std::fprintf(stderr, "%llu ",
                       static_cast<unsigned long long>(loads[i]));
        std::fprintf(stderr, "n=%zu\n", sample.nodes.size());
      }
    }
  }
  fx.sys->set_telemetry(nullptr);

  out.series = sampler.finish();
  out.imbalance = obs::derive_imbalance(out.series);
  if (controller) {
    out.totals = controller->totals();
    out.detection_latency = controller->detector().detection_latency(sc.onset);
    out.top_hot = controller->detector().top_hot(3);
    out.events = controller->detector().events().size();
    out.active_at_end = controller->detector().active();
  }
  out.nodes_end = fx.sys->ring().size();
  return out;
}

std::string keyword_label(const core::SquidSystem& sys,
                          overlay::NodeId node) {
  std::string label;
  for (const auto& t : sys.space().decode(sys.curve().point_of(node))) {
    if (!label.empty()) label += ",";
    label += keyword::to_string(t);
  }
  return label;
}

} // namespace

int main(int argc, char** argv) {
  // Strip this bench's own flags before the common parser (which rejects
  // unknown flags) sees the command line.
  bool react = true;
  std::string scenario = "flash";
  std::vector<char*> pass{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--react") {
      react = true;
    } else if (arg == "--no-react") {
      react = false;
    } else if (arg.rfind("--scenario=", 0) == 0) {
      scenario = arg.substr(std::string("--scenario=").size());
    } else {
      pass.push_back(argv[i]);
    }
  }
  const Flags flags = Flags::parse(static_cast<int>(pass.size()), pass.data());
  if constexpr (!obs::kEnabled) {
    std::printf("ext_hotspot: observability compiled out (SQUID_OBS=OFF); "
                "nothing to measure\n");
    return 0;
  }

  // The corpus only feeds schedule construction here; every arm builds its
  // own identical fixture (same seed) so queries stay valid across them.
  const ScalePoint scale = paper_scales(flags)[0];
  KeywordFixture fx = build_keyword_fixture(2, scale, flags.seed);
  const Scenario sc = build_scenario(scenario, *fx.corpus, flags.seed);

  // --- Detection panel (lockstep, controller off) --------------------------
  const ArmOutcome detect = run_arm(sc, Mode::kLockstep, flags, false);
  const double gini_before = windowed_gini(detect.series, 0, sc.onset);
  const double gini_during = windowed_gini(detect.series, sc.onset, sc.end);
  const double gini_after = windowed_gini(detect.series, sc.end, kEpochs);

  Table table({"phase", "epochs", "mean gini"});
  table.add_row({"before", "0-" + std::to_string(sc.onset - 1),
                 Table::cell(gini_before)});
  table.add_row({"during",
                 std::to_string(sc.onset) + "-" + std::to_string(sc.end - 1),
                 Table::cell(gini_during)});
  table.add_row({"after", std::to_string(sc.end) + "-", Table::cell(gini_after)});
  emit("Scenario '" + sc.name + "': ring-space load imbalance by phase",
       table, flags);

  std::printf("calibrated min_load: %.1f (factor %.1f, pre-onset p95)\n",
              detect.min_load, fx.sys->config().hotspot_min_load_factor);
  std::printf("detection latency: ");
  if (detect.detection_latency.has_value())
    std::printf("%llu epoch(s) after onset\n",
                static_cast<unsigned long long>(*detect.detection_latency));
  else
    std::printf("workload shift not detected\n");
  std::printf("hotspot events: %zu (onsets+clears), active at end: %zu\n",
              detect.events, detect.active_at_end);

  // Top hot nodes with keyword attribution: a node's stored region starts
  // at its own ring position, so decoding that position names the keyword
  // prefix the crowd converged on.
  for (const auto& hot : detect.top_hot)
    std::printf("  hot node load=%.0f baseline=%.1f keywords~(%s)%s\n",
                hot.load, hot.baseline,
                keyword_label(*fx.sys, hot.node).c_str(),
                hot.hot ? " [hot]" : "");

  // --- Reaction panel (three modes × controller off/on) --------------------
  struct ReactionRow {
    Mode mode;
    bool react;
    ArmOutcome arm;
  };
  std::vector<ReactionRow> rows;
  if (react) {
    Table rt({"mode", "controller", "gini pre", "gini during", "gini after",
              "p99 pre", "p99 during", "p99 after", "splits", "repl",
              "drops", "nodes"});
    for (const Mode mode :
         {Mode::kLockstep, Mode::kVirtual, Mode::kParallel}) {
      for (const bool on : {false, true}) {
        ArmOutcome arm = (mode == Mode::kLockstep && !on)
                             ? detect // already measured above
                             : run_arm(sc, mode, flags, on);
        rt.add_row({mode_name(mode), on ? "react" : "detect",
                    Table::cell(windowed_gini(arm.series, 0, sc.onset)),
                    Table::cell(windowed_gini(arm.series, sc.onset, sc.end)),
                    Table::cell(windowed_gini(arm.series, sc.end, kEpochs)),
                    Table::cell(arm.lat_pre.percentile(99)),
                    Table::cell(arm.lat_during.percentile(99)),
                    Table::cell(arm.lat_after.percentile(99)),
                    Table::cell(std::uint64_t{arm.totals.splits}),
                    Table::cell(std::uint64_t{arm.totals.replications}),
                    Table::cell(std::uint64_t{arm.totals.drops}),
                    Table::cell(std::uint64_t{arm.nodes_end})});
        rows.push_back({mode, on, std::move(arm)});
      }
    }
    emit("Reaction: detector-driven split/replicate vs detection only", rt,
         flags);
  }

  // --- BENCH_hotspot.json --------------------------------------------------
  char buf[256];
  std::string json = "{\n";
  json += "  \"scenario\": \"" + sc.name + "\",\n";
  json += "  \"onset_epoch\": " + std::to_string(sc.onset) + ",\n";
  json += "  \"end_epoch\": " + std::to_string(sc.end) + ",\n";
  std::snprintf(buf, sizeof buf, "  \"calibrated_min_load\": %.2f,\n",
                detect.min_load);
  json += buf;
  json += "  \"detection_latency_epochs\": " +
          (detect.detection_latency.has_value()
               ? std::to_string(*detect.detection_latency)
               : std::string("null")) +
          ",\n";
  json += "  \"hotspot_events\": " + std::to_string(detect.events) + ",\n";
  json += "  \"active_at_end\": " + std::to_string(detect.active_at_end) +
          ",\n";
  std::snprintf(buf, sizeof buf,
                "  \"gini_before\": %.4f,\n  \"gini_during\": %.4f,\n"
                "  \"gini_after\": %.4f,\n",
                gini_before, gini_during, gini_after);
  json += buf;
  json += "  \"gini_series\": [";
  for (std::size_t i = 0; i < detect.imbalance.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.4f", i ? ", " : "",
                  detect.imbalance[i].gini);
    json += buf;
  }
  json += "],\n";
  json += "  \"reaction\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ReactionRow& row = rows[i];
    const ArmOutcome& arm = row.arm;
    json += i ? ",\n    " : "\n    ";
    std::snprintf(
        buf, sizeof buf,
        "{\"mode\": \"%s\", \"controller\": %s, "
        "\"gini_pre\": %.4f, \"gini_during\": %.4f, \"gini_after\": %.4f, ",
        mode_name(row.mode), row.react ? "true" : "false",
        windowed_gini(arm.series, 0, sc.onset),
        windowed_gini(arm.series, sc.onset, sc.end),
        windowed_gini(arm.series, sc.end, kEpochs));
    json += buf;
    std::snprintf(buf, sizeof buf,
                  "\"p50_pre\": %.1f, \"p99_pre\": %.1f, "
                  "\"p50_during\": %.1f, \"p99_during\": %.1f, "
                  "\"p50_after\": %.1f, \"p99_after\": %.1f, ",
                  arm.lat_pre.percentile(50), arm.lat_pre.percentile(99),
                  arm.lat_during.percentile(50), arm.lat_during.percentile(99),
                  arm.lat_after.count() ? arm.lat_after.percentile(50) : 0.0,
                  arm.lat_after.count() ? arm.lat_after.percentile(99) : 0.0);
    json += buf;
    std::snprintf(buf, sizeof buf,
                  "\"onsets\": %zu, \"splits\": %zu, \"replications\": %zu, "
                  "\"refreshes\": %zu, \"drops\": %zu, \"nodes_end\": %zu}",
                  arm.totals.onsets, arm.totals.splits,
                  arm.totals.replications, arm.totals.refreshes,
                  arm.totals.drops, arm.nodes_end);
    json += buf;
  }
  json += rows.empty() ? "]\n}\n" : "\n  ]\n}\n";

  const std::string out = "BENCH_hotspot.json";
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
