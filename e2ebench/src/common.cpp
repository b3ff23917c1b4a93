#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "workloads.hpp"

namespace e2e {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

const char* kind_name(Kind kind) {
  switch (kind) {
  case Kind::kExact: return "exact";
  case Kind::kWall: return "wall";
  case Kind::kMemory: return "memory";
  }
  return "?";
}

void Report::add(std::string name, double value, std::string unit, Kind kind,
                 std::string note) {
  metrics.push_back(
      {std::move(name), value, std::move(unit), kind, std::move(note)});
}

void Report::note(std::string key, std::string value) {
  info.emplace_back(std::move(key), std::move(value));
}

void Report::fail(const std::string& what) {
  ++failed;
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

// --- Oracle -----------------------------------------------------------------

namespace {

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

} // namespace

std::uint64_t element_hash(const core::DataElement& element) {
  std::uint64_t h = fnv1a(element.name);
  for (const keyword::Token& token : element.keys) {
    if (const auto* word = std::get_if<std::string>(&token)) {
      h = fnv1a(*word, mix(h ^ 0x57));
    } else {
      std::uint64_t bits = 0;
      const double value = std::get<double>(token);
      std::memcpy(&bits, &value, sizeof bits);
      h = mix(h ^ bits ^ 0xd0);
    }
  }
  return mix(h);
}

Fingerprint fingerprint(const std::vector<core::DataElement>& elements) {
  Fingerprint fp;
  for (const core::DataElement& e : elements) fp.add_hash(element_hash(e));
  return fp;
}

Oracle::Oracle(const keyword::KeywordSpace& space,
               const std::vector<core::DataElement>& elements) {
  points_.reserve(elements.size());
  hashes_.reserve(elements.size());
  for (const core::DataElement& e : elements) {
    points_.push_back(space.encode(e.keys));
    hashes_.push_back(element_hash(e));
  }
}

Fingerprint Oracle::expect(const sfc::Rect& rect) const {
  Fingerprint fp;
  for (std::size_t i = 0; i < points_.size(); ++i)
    if (rect.contains(points_[i])) fp.add_hash(hashes_[i]);
  return fp;
}

bool check_answer(const core::QueryResult& result, const Fingerprint& expected,
                  const char* workload, std::uint64_t op, Report& report) {
  const auto what = [&] {
    return std::string(workload) + " query #" + std::to_string(op);
  };
  if (!result.complete) {
    report.fail(what() + ": incomplete answer");
    return false;
  }
  const Fingerprint got = fingerprint(result.elements);
  if (got == expected) return true;
  report.fail(what() + ": answer has " + std::to_string(got.count) +
              " elements, oracle expects " + std::to_string(expected.count) +
              (got.count == expected.count ? " (contents differ)" : ""));
  return false;
}

void oracle_self_test(const core::QueryResult& result,
                      const Fingerprint& expected, Report& report) {
  if (result.elements.empty()) {
    report.fail("oracle self-test needs a non-empty answer");
    return;
  }
  core::QueryResult damaged;
  damaged.elements = result.elements;
  damaged.elements.erase(damaged.elements.begin() +
                         static_cast<std::ptrdiff_t>(damaged.elements.size() / 2));
  Report ignored;
  const bool accepted = check_answer(damaged, expected, "self-test", 0, ignored);
  report.note("oracle_self_test",
              accepted ? "FAILED (dropped element not caught)"
                       : "ok (dropped element caught)");
  if (accepted) report.fail("oracle accepted an answer with a dropped element");
}

// --- Exact costs --------------------------------------------------------------

void ExactTotals::add_query(const core::QueryStats& stats) {
  ++queries;
  messages += stats.messages;
  bytes += stats.bytes_shipped;
  critical_hops += stats.critical_path_hops;
}

void ExactTotals::add_updates(const core::UpdateRun& run) {
  updates += run.results.size();
  for (const core::UpdateResult& r : run.results) update_hops += r.hops;
  update_bytes += run.bytes;
  update_frames += run.messages;
  update_retries += run.retries;
}

ExactTotals& ExactTotals::operator+=(const ExactTotals& o) {
  queries += o.queries;
  messages += o.messages;
  bytes += o.bytes;
  critical_hops += o.critical_hops;
  updates += o.updates;
  update_hops += o.update_hops;
  update_bytes += o.update_bytes;
  update_frames += o.update_frames;
  update_retries += o.update_retries;
  return *this;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB -> MB
  }
  return 0;
}

namespace {

/// "min / q1 / median / q3 / max" of a sample, for the run log.
std::string five_numbers(std::vector<double> v) {
  if (v.empty()) return "-";
  std::sort(v.begin(), v.end());
  const auto at = [&](double f) {
    return v[static_cast<std::size_t>(f * static_cast<double>(v.size() - 1))];
  };
  char buf[160];
  std::snprintf(buf, sizeof buf, "%.6g / %.6g / %.6g / %.6g / %.6g", v.front(),
                at(0.25), at(0.5), at(0.75), v.back());
  return buf;
}

} // namespace

void BestTimes::add(std::size_t position, double ns) {
  if (position >= best_.size()) best_.resize(position + 1, ns);
  best_[position] = std::min(best_[position], ns);
}

double BestTimes::total_ns() const {
  double total = 0;
  for (const double ns : best_) total += ns;
  return total;
}

void add_end_to_end(Report& report, const WallSamples& wall,
                    const ExactTotals& exact) {
  const auto per = [](std::uint64_t total, std::uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n);
  };
  report.note("round queries/s (min/q1/med/q3/max)", five_numbers(wall.round_qps));
  report.note("setup s (min/q1/med/q3/max)", five_numbers(wall.setup_s));
  report.add("setup_s", median(wall.setup_s), "s", Kind::kWall,
             "median of " + std::to_string(wall.setup_s.size()) +
                 " fixture builds");
  report.add("peak_rss_mb", peak_rss_mb(), "MB", Kind::kMemory, "VmHWM");
  const std::vector<double>& q = wall.query.ns();
  report.add("queries_per_s",
             static_cast<double>(q.size()) / (wall.query.total_ns() * 1e-9),
             "1/s", Kind::kWall,
             std::to_string(q.size()) + " queries at their best replay");
  const std::string positions =
      std::to_string(q.size()) + " per-query best times";
  report.add("query_p50_us", percentile(q, 50) / 1e3, "us", Kind::kWall,
             positions);
  report.add("query_p99_us", percentile(q, 99) / 1e3, "us", Kind::kWall,
             positions + ", " +
                 std::to_string(q.size() - static_cast<std::size_t>(std::ceil(
                                               0.99 * static_cast<double>(
                                                          q.size())))) +
                 " beyond p99");
  report.add("updates_per_s",
             static_cast<double>(wall.update_ops) /
                 (wall.update.total_ns() * 1e-9),
             "1/s", Kind::kWall,
             std::to_string(wall.update.ns().size()) +
                 " apply_updates batches at their best replay");
  report.add("msgs_per_query", per(exact.messages, exact.queries), "count",
             Kind::kExact);
  report.add("bytes_per_query", per(exact.bytes, exact.queries), "bytes",
             Kind::kExact);
  report.add("critical_hops_per_query", per(exact.critical_hops, exact.queries),
             "count", Kind::kExact);
  report.add("hops_per_update", per(exact.update_hops, exact.updates), "count",
             Kind::kExact);
  report.add("bytes_per_update", per(exact.update_bytes, exact.updates),
             "bytes", Kind::kExact);
  report.add("failed_op_frac", per(report.failed, report.attempted), "ratio",
             Kind::kExact, "printed only; 0 on a healthy run");
}

// --- Fixtures -----------------------------------------------------------------

core::SquidConfig balanced_config() {
  core::SquidConfig config;
  config.join_samples = 8;
  return config;
}

void grow_network(core::SquidSystem& sys, std::size_t nodes, Rng& rng) {
  sys.build_network(1, rng);
  for (std::size_t i = 1; i < nodes; ++i) (void)sys.join_node(rng);
  for (int sweep = 0; sweep < 6; ++sweep)
    (void)sys.runtime_balance_sweep(1.3);
  sys.repair_routing();
}

u128 element_index(const core::SquidSystem& sys,
                   const core::DataElement& element) {
  return sys.curve().index_of(sys.space().encode(element.keys));
}

UpdateProbe::UpdateProbe(std::unique_ptr<core::SquidSystem> sys,
                         const std::vector<core::DataElement>& pool,
                         std::uint64_t seed, const char* workload, Report& rep)
    : sys_(std::move(sys)), workload_(workload) {
  Rng rng(seed);
  std::vector<std::size_t> picks(pool.size());
  for (std::size_t i = 0; i < picks.size(); ++i) picks[i] = i;
  rng.shuffle(picks);
  picks.resize(std::min(kElements, picks.size()));
  ops_.reserve(2 * picks.size());
  for (const std::size_t i : picks) {
    const overlay::NodeId origin = sys_->ring().random_node(rng);
    ops_.push_back(core::UpdateOp::retract(pool[i], origin));
    ops_.push_back(core::UpdateOp::publish(pool[i], origin));
  }
  batch(nullptr, nullptr, nullptr, rep); // untimed warm-up
}

void UpdateProbe::round(WallSamples* wall, ExactTotals& exact,
                        LayerProbe* probe, Report& rep) {
  for (int b = 0; b < kBatchesPerRound; ++b) batch(wall, &exact, probe, rep);
}

void UpdateProbe::batch(WallSamples* wall, ExactTotals* exact,
                        LayerProbe* probe, Report& rep) {
  const std::int64_t t0 = now_ns();
  const core::UpdateRun run = core::apply_updates(*sys_, ops_);
  const std::int64_t t1 = now_ns();
  rep.attempted += ops_.size();
  for (const core::UpdateResult& r : run.results)
    if (!r.delivered || !r.applied)
      rep.fail(std::string(workload_) + ": update not delivered and applied");
  if (wall) {
    wall->update.add(0, static_cast<double>(t1 - t0));
    wall->update_ops = ops_.size();
  }
  if (exact) exact->add_updates(run);
  if (probe) probe->on_updates(*sys_, ops_, run, t0, t1);
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

} // namespace e2e
