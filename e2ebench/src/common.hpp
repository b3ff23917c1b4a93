// Shared scaffolding of the end-to-end benchmark (squid_e2e): run options,
// the report every workload fills, wall-clock helpers, the answer oracle,
// the exact-cost tallies and the fixture helpers the three workloads share.
//
// Measurement protocol (README.md in this directory):
//   * one client thread, kLockstep delivery, closed loop — the next
//     operation is issued when the previous call returns;
//   * every input is generated before the call that consumes it, and
//     timers wrap only the public call (SquidSystem::query,
//     core::apply_updates); oracle checks, trace work and replays run
//     outside the timed window;
//   * an untimed warm-up precedes the measured rounds, and every round
//     replays identical work, so each operation's wall-clock cost is its
//     fastest replay (BestTimes); set-up time is the median of several
//     fixture builds.

#pragma once

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/core/update.hpp"
#include "squid/util/rng.hpp"

namespace e2e {

using namespace squid;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out; ///< traced run: span log destination ("" = none)
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> values);
/// Nearest-rank percentile (p in (0, 100]) of an unsorted sample.
double percentile(std::vector<double> values, double p);

/// How a metric is obtained (ROADMAP's exact-vs-noisy rule): an exact count
/// repeats bit-for-bit for a given seed; wall-clock and memory figures are
/// measurements and carry host noise.
enum class Kind { kExact, kWall, kMemory };
const char* kind_name(Kind kind);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Kind kind = Kind::kWall;
  std::string note; ///< how the value was obtained when not obvious
};

/// Everything one invocation prints: metrics plus the op/failure tally.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors; ///< first few failures, for the log

  void add(std::string name, double value, std::string unit, Kind kind,
           std::string note = {});
  void note(std::string key, std::string value);
  /// One failed op (oracle rejection, incomplete answer, undelivered
  /// update) or failed self-check.
  void fail(const std::string& what);
};

// --- Oracle -----------------------------------------------------------------

/// Order-independent multiset fingerprint: element count plus the
/// wrap-around sum of a mixed 64-bit hash of each element's name and
/// tokens. Identical answers always agree; a dropped, extra, duplicated or
/// altered element changes it (barring a 2^-64 collision).
struct Fingerprint {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void add_hash(std::uint64_t h) {
    ++count;
    sum += h;
  }
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

std::uint64_t element_hash(const core::DataElement& element);
Fingerprint fingerprint(const std::vector<core::DataElement>& elements);

/// Linear-scan oracle over a fixed published set: the expected answer of a
/// query is every element whose encoded point lies in space().to_rect(q).
class Oracle {
public:
  Oracle(const keyword::KeywordSpace& space,
         const std::vector<core::DataElement>& elements);
  Fingerprint expect(const sfc::Rect& rect) const;

private:
  std::vector<sfc::Point> points_;
  std::vector<std::uint64_t> hashes_;
};

/// Check one timed answer outside the timed window: complete, and equal to
/// the oracle's fingerprint. Records a failure in `report` otherwise.
bool check_answer(const core::QueryResult& result, const Fingerprint& expected,
                  const char* workload, std::uint64_t op, Report& report);

/// Oracle self-test, run once per invocation on a real answer: the same
/// answer with one element dropped must be rejected.
void oracle_self_test(const core::QueryResult& result,
                      const Fingerprint& expected, Report& report);

// --- Exact costs and wall samples -------------------------------------------

/// Integer totals of the deterministic per-op costs. Rounds with identical
/// content produce identical totals, which the self-check compares.
struct ExactTotals {
  std::uint64_t queries = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t critical_hops = 0;
  std::uint64_t updates = 0;
  std::uint64_t update_hops = 0;
  std::uint64_t update_bytes = 0;
  std::uint64_t update_frames = 0;
  std::uint64_t update_retries = 0;

  void add_query(const core::QueryStats& stats);
  void add_updates(const core::UpdateRun& run);
  ExactTotals& operator+=(const ExactTotals& o);
  friend bool operator==(const ExactTotals&, const ExactTotals&) = default;
};

/// Per-position minimum time over identical replays. Every round of a
/// workload replays the same operations on the same state, so the fastest
/// replay of each operation is its cost with the least interference from
/// other tenants of the host (whose load slows whole stretches of a run by
/// up to 40% on a shared machine); medians and pooled samples inherit that
/// interference, minima of identical work do not.
class BestTimes {
public:
  void add(std::size_t position, double ns);
  const std::vector<double>& ns() const noexcept { return best_; }
  double total_ns() const;

private:
  std::vector<double> best_;
};

struct WallSamples {
  std::vector<double> setup_s;   ///< one per fixture build (median reported)
  BestTimes query;               ///< per query position in a round
  BestTimes update;              ///< per apply_updates batch in a round
  std::uint64_t update_ops = 0;  ///< routed ops per round, all batches
  std::vector<double> round_qps; ///< per round, for the run log only
};

/// Peak resident set (VmHWM) of this process in MB; 0 when unavailable.
double peak_rss_mb();

/// The end-to-end metrics of an untraced run, in BENCHMARK.json order,
/// plus the failed-op fraction (printed only: it is 0 on a healthy run).
/// Rates and latencies come from the per-position best times.
void add_end_to_end(Report& report, const WallSamples& wall,
                    const ExactTotals& exact);

// --- Fixtures -----------------------------------------------------------------

/// The paper's deployed configuration: load-balancing join with 8 probes.
core::SquidConfig balanced_config();

/// Draw corpus elements until `keys` distinct keys exist (the element
/// sequence bench/common's fill_keys publishes). Input generation: not part
/// of any timed set-up.
template <typename Corpus>
std::vector<core::DataElement> draw_corpus(const Corpus& corpus,
                                           const core::SquidSystem& geometry,
                                           std::size_t keys, Rng& rng) {
  std::vector<core::DataElement> elements;
  std::set<u128> distinct;
  const std::size_t attempt_cap = keys * 40 + 1000;
  std::size_t attempts = 0;
  while (distinct.size() < keys && attempts++ < attempt_cap) {
    elements.push_back(corpus.make_element(rng));
    distinct.insert(geometry.curve().index_of(
        geometry.space().encode(elements.back().keys)));
  }
  return elements;
}

/// Grow a network by load-balancing joins, sweep runtime balancing and
/// repair routing exactly (the figure benches' fixture recipe).
void grow_network(core::SquidSystem& sys, std::size_t nodes, Rng& rng);

/// Curve index of an element's key (route target of its update frames).
u128 element_index(const core::SquidSystem& sys,
                   const core::DataElement& element);

/// 64-bit FNV-1a, chained through `h`, for input-stream fingerprints.
std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t h = 1469598103934665603ull);
std::string hex64(std::uint64_t v);

} // namespace e2e
