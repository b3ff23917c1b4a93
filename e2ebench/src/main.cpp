// squid_e2e: end-to-end benchmark of Squid's public query and update paths.
//
//   squid_e2e --workload kw-crowd|q3-range|geo-motion --seed N --seconds S
//             --trace 0|1 [--spans-out FILE] [--commit ID]
//
// Prints a human-readable table (every metric with its unit and whether it
// is an exact count or a wall-clock/memory measurement), then, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the traced
// run's per-layer set, and the benchmark's own spans go to --spans-out.
// Exits 1 when any answer or update fails its oracle or a self-check fails,
// 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "squid/obs/metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

/// The metric names the JSON line carries, in BENCHMARK.json order.
const std::vector<std::string> kEndToEnd = {
    "setup_s",         "peak_rss_mb",      "queries_per_s",
    "query_p50_us",    "query_p99_us",     "updates_per_s",
    "msgs_per_query",  "bytes_per_query",  "critical_hops_per_query",
    "hops_per_update", "bytes_per_update"};

const std::vector<std::string> kPerLayer = {
    "keyword.to_rect_us",
    "sfc.refine_descends_per_query",
    "sfc.prunes_per_query",
    "sfc.decompose_us",
    "sfc.segments_per_query",
    "overlay.route_hops_per_query",
    "overlay.route_ns",
    "store.keys_scanned_per_query",
    "store.keys_matched_per_query",
    "store.match_ratio",
    "store.sweep_ns_per_key",
    "store.merges_per_round",
    "store.delta_size",
    "codec.wire_size_us_per_query",
    "codec.encode_ns_per_byte",
    "codec.decode_ns_per_byte",
    "runtime.dispatches_per_query",
    "runtime.merges_per_query",
    "runtime.clusters_per_dispatch",
    "runtime.engine_ns_per_event",
    "update.frames_per_op",
    "update.retries",
    "reaction.splits",
    "reaction.replications",
    "reaction.replica_serves_per_query",
    "reaction.stale_skips",
    "reaction.on_epoch_us",
    "obs.epoch_close_us",
    "obs.trace_overhead_frac",
    "unattributed_frac"};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload kw-crowd|q3-range|geo-motion --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE] [--commit ID]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& commit) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage(argv[0]);
        opts.trace = value == "1";
      } else if (arg == "--spans-out") {
        opts.spans_out = value;
      } else if (arg == "--commit") {
        commit = value;
      } else {
        usage(argv[0]);
      }
    } catch (const std::exception&) {
      usage(argv[0]);
    }
  }
  if (!have_workload || !(opts.seconds > 0)) usage(argv[0]);
  return opts;
}

/// Full-precision number for the JSON line (the value as measured).
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

} // namespace

int main(int argc, char** argv) {
  std::string commit = "unknown";
  const Options opts = parse(argc, argv, commit);

  Report (*run)(const Options&, SpanLog&) = nullptr;
  if (opts.workload == "kw-crowd") run = run_kw_crowd;
  else if (opts.workload == "q3-range") run = run_q3_range;
  else if (opts.workload == "geo-motion") run = run_geo_motion;
  else usage(argv[0]);

  if (opts.trace && !obs::kEnabled) {
    std::fprintf(stderr, "traced run needs the observability layer "
                         "(built with SQUID_OBS_ENABLED=0)\n");
    return 2;
  }

  std::printf("squid_e2e workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  std::printf("  host_cores: %u\n  build: %s\n  commit: %s\n",
              std::thread::hardware_concurrency(), E2E_BUILD_TYPE,
              commit.c_str());
  std::printf("  protocol: 1 client thread, kLockstep, closed loop, untimed "
              "warm-up, timers around query()/apply_updates() only\n");
  std::fflush(stdout);

  SpanLog spans;
  Report rep;
  try {
    rep = run(opts, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "squid_e2e: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const auto& [key, value] : rep.info)
    std::printf("  %s: %s\n", key.c_str(), value.c_str());
  if (opts.trace) {
    std::printf("  spans: %zu kept, %zu dropped over the cap\n", spans.size(),
                spans.dropped());
    if (!opts.spans_out.empty()) {
      if (spans.write(opts.spans_out, "squid_e2e " + opts.workload))
        std::printf("  spans written: %s\n", opts.spans_out.c_str());
      else
        std::fprintf(stderr, "cannot write spans to %s\n",
                     opts.spans_out.c_str());
    }
  }
  std::printf("\n%-34s %16s  %-6s %-6s %s\n", "metric", "value", "unit", "kind",
              "note");
  for (const Metric& m : rep.metrics)
    std::printf("%-34s %16.6g  %-6s %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), kind_name(m.kind), m.note.c_str());
  for (const std::string& error : rep.errors)
    std::printf("FAILED: %s\n", error.c_str());
  std::printf("ops attempted: %llu, failed: %llu\n\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));

  std::string json = "{\"correct\": ";
  json += rep.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : opts.trace ? kPerLayer : kEndToEnd) {
    const Metric* found = nullptr;
    for (const Metric& m : rep.metrics)
      if (m.name == name) found = &m;
    if (found == nullptr) {
      std::fprintf(stderr, "squid_e2e: metric %s was not measured\n",
                   name.c_str());
      return 1;
    }
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            number(found->value) + ", \"unit\": \"" + found->unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return rep.correct ? 0 : 1;
}
