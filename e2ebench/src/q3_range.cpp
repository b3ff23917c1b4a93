// q3-range: the 3-d grid-resource fixture at the paper's largest scale
// (5400 nodes, 10^5 keys) replaying one fixed list of Q3 queries every
// round. Three in four are (range, range, range) with each side 5-40% of
// its domain; the rest are (keyword, range, *) on a storage value some
// resource really has; side lengths come from a stratified grid (a Latin
// hypercube over [5%, 40%]). No sampler is attached and the store is
// static: numeric ranges build the widest refinement trees and the most
// dispatches, so this workload loads sfc refinement, routing and runtime
// dispatch, and skips telemetry, reaction and the store's delta tier.
//
// The deployment (corpus, overlay) and the query list come from a fixed
// seed, like the figure benches' fixed query sets: the corpus clusters on
// storage and bandwidth tiers, so a box's answer size depends on which
// tiers it straddles and a seed-drawn list would move bytes per query by a
// third between seeds. --seed draws each query's origin, the replay order
// and the update probe.

#include <optional>
#include <variant>

#include "squid/workload/corpus.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

constexpr const char* kName = "q3-range";
constexpr std::size_t kNodes = 5400;
constexpr std::size_t kKeys = 100000;
constexpr std::size_t kQueries = 1024;
constexpr int kSetups = 3;
constexpr int kMinRounds = 3;
constexpr std::size_t kProbeVerifyQueries = 64;
/// An extra, discarded fixture build every kSetupEvery rounds spreads the
/// set-up samples over the run instead of its first second.
constexpr int kSetupEvery = 3;
constexpr double kSideLo = 0.05;
constexpr double kSideHi = 0.40;
constexpr std::uint64_t kDeploymentSeed = 2003;

struct Inputs {
  workload::ResourceCorpus corpus;
  std::vector<core::DataElement> elements;
  std::vector<keyword::Query> queries;
  std::vector<Fingerprint> expected;
  std::uint64_t net_seed = 0;
  std::uint64_t origin_seed = 0;
  std::uint64_t probe_seed = 0;
  std::uint64_t stream_hash = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  Rng deployment(kDeploymentSeed);
  const core::SquidSystem geometry(in.corpus.make_space(), balanced_config());
  in.elements = draw_corpus(in.corpus, geometry, kKeys, deployment);
  in.net_seed = deployment();
  Rng stream(deployment());
  constexpr double kExtent[3] = {4096, 10000, 1000}; // ResourceCorpus domains
  std::vector<double> sides[3];
  for (auto& dim : sides) {
    for (std::size_t i = 0; i < kQueries; ++i)
      dim.push_back(kSideLo + (kSideHi - kSideLo) *
                                  (static_cast<double>(i) + stream.uniform()) /
                                  static_cast<double>(kQueries));
    stream.shuffle(dim);
  }
  const auto place = [&](unsigned dim, std::size_t i) {
    const double width = sides[dim][i] * kExtent[dim];
    const double lo = stream.uniform() * (kExtent[dim] - width);
    return std::pair{lo, lo + width};
  };
  for (std::size_t i = 0; i < kQueries; ++i) {
    if (i % 4 == 3) {
      const core::DataElement& pick =
          in.elements[stream.below(in.elements.size())];
      const auto [bw_lo, bw_hi] = place(1, i);
      in.queries.push_back(in.corpus.q3_keyword_range(
          std::get<double>(pick.keys[0]), bw_lo, bw_hi));
    } else {
      const auto [st_lo, st_hi] = place(0, i);
      const auto [bw_lo, bw_hi] = place(1, i);
      const auto [c_lo, c_hi] = place(2, i);
      in.queries.push_back(
          in.corpus.q3_all_ranges(st_lo, st_hi, bw_lo, bw_hi, c_lo, c_hi));
    }
  }

  Rng rng(seed);
  in.origin_seed = rng();
  in.probe_seed = rng();
  rng.shuffle(in.queries);
  const Oracle oracle(geometry.space(), in.elements);
  in.stream_hash = fnv1a(std::to_string(in.origin_seed));
  for (const keyword::Query& q : in.queries) {
    in.stream_hash = fnv1a(keyword::to_string(q), in.stream_hash);
    in.expected.push_back(oracle.expect(geometry.space().to_rect(q)));
  }
  return in;
}

std::unique_ptr<core::SquidSystem> build(const Inputs& in) {
  auto sys = std::make_unique<core::SquidSystem>(in.corpus.make_space(),
                                                 balanced_config());
  sys->publish_batch(in.elements);
  Rng net(in.net_seed);
  grow_network(*sys, kNodes, net);
  return sys;
}

struct Round {
  std::vector<double> query_ns;
  double query_total_ns = 0;
  ExactTotals exact;
};

Round run_round(core::SquidSystem& sys, const Inputs& in,
                const std::vector<overlay::NodeId>& origins, LayerProbe* probe,
                Report& rep, bool self_test) {
  Round round;
  sys.set_tracing(probe != nullptr);
  if (probe) probe->begin_round(sys);
  for (std::size_t i = 0; i < in.queries.size(); ++i) {
    const std::int64_t t0 = now_ns();
    const core::QueryResult result = sys.query(in.queries[i], origins[i]);
    const std::int64_t t1 = now_ns();
    round.query_ns.push_back(static_cast<double>(t1 - t0));
    round.query_total_ns += static_cast<double>(t1 - t0);
    ++rep.attempted;
    check_answer(result, in.expected[i], kName, i, rep);
    if (self_test && !result.elements.empty()) {
      oracle_self_test(result, in.expected[i], rep);
      self_test = false;
    }
    round.exact.add_query(result.stats);
    if (probe) probe->on_query(sys, in.queries[i], result, t0, t1);
  }
  if (probe) {
    probe->replay_epoch(sys);
    probe->end_round(sys);
  }
  sys.set_tracing(false);
  return round;
}

} // namespace

Report run_q3_range(const Options& opts, SpanLog& spans) {
  Report rep;
  const Inputs in = make_inputs(opts.seed);
  rep.note("fixture", "3-d resources, " + std::to_string(kNodes) + " nodes, " +
                          std::to_string(in.elements.size()) + " elements, " +
                          std::to_string(kQueries) + " queries per round");
  rep.note("stream_hash", hex64(in.stream_hash));

  // kSetups identical builds: the last serves the queries, the one before
  // it becomes the update probe's fixture.
  WallSamples wall;
  std::unique_ptr<core::SquidSystem> sys;
  std::unique_ptr<core::SquidSystem> spare;
  const auto timed_build = [&] {
    const std::int64_t s0 = now_ns();
    auto built = build(in);
    wall.setup_s.push_back(seconds_since(s0));
    return built;
  };
  for (int i = 0; i < kSetups; ++i) {
    spare = std::move(sys);
    sys = timed_build();
  }
  Rng origin_rng(in.origin_seed);
  std::vector<overlay::NodeId> origins;
  for (std::size_t i = 0; i < kQueries; ++i)
    origins.push_back(sys->ring().random_node(origin_rng));
  UpdateProbe updates(std::move(spare), in.elements, in.probe_seed, kName, rep);

  // Untimed warm-up round (answers still checked).
  (void)run_round(*sys, in, origins, nullptr, rep, /*self_test=*/true);

  const std::int64_t start = now_ns();
  ExactTotals exact;
  std::optional<ExactTotals> first;
  const auto keep = [&](const Round& r) {
    if (!first) first = r.exact;
    else if (!(r.exact == *first))
      rep.fail("exact counts differ between identical rounds");
    exact += r.exact;
  };
  // Every probe batch restores the content: the probe fixture must still
  // answer the start of the list correctly.
  const auto verify_probe = [&] {
    for (std::size_t i = 0; i < kProbeVerifyQueries; ++i) {
      ++rep.attempted;
      check_answer(updates.system().query(in.queries[i], origins[i]),
                   in.expected[i], kName, i, rep);
    }
  };

  if (!opts.trace) {
    for (int n = 0; n < kMinRounds || seconds_since(start) < opts.seconds; ++n) {
      const Round r = run_round(*sys, in, origins, nullptr, rep, false);
      for (std::size_t i = 0; i < r.query_ns.size(); ++i)
        wall.query.add(i, r.query_ns[i]);
      wall.round_qps.push_back(static_cast<double>(r.query_ns.size()) /
                               (r.query_total_ns * 1e-9));
      keep(r);
      updates.round(&wall, exact, nullptr, rep);
      if (n % kSetupEvery == kSetupEvery - 1) (void)timed_build();
    }
    rep.note("rounds", std::to_string(wall.round_qps.size()));
    verify_probe();
    add_end_to_end(rep, wall, exact);
    return rep;
  }

  // Traced run: untraced rounds for a third of the time, then as many
  // traced rounds of the same list; the ratio of their best-replay query
  // time is the tracing overhead.
  BestTimes untraced;
  int rounds = 0;
  for (; rounds < kMinRounds || seconds_since(start) < opts.seconds / 3;
       ++rounds) {
    const Round r = run_round(*sys, in, origins, nullptr, rep, false);
    for (std::size_t i = 0; i < r.query_ns.size(); ++i)
      untraced.add(i, r.query_ns[i]);
    keep(r);
  }
  LayerProbe probe(spans);
  probe.enable_epoch_replay();
  BestTimes traced;
  for (int n = 0; n < rounds; ++n) {
    const Round r = run_round(*sys, in, origins, &probe, rep, false);
    for (std::size_t i = 0; i < r.query_ns.size(); ++i)
      traced.add(i, r.query_ns[i]);
    keep(r);
    updates.round(nullptr, exact, &probe, rep);
  }
  rep.note("rounds", std::to_string(rounds) + " untraced + " +
                         std::to_string(rounds) + " traced");
  verify_probe();
  probe.report(rep, traced.total_ns() / untraced.total_ns() - 1.0,
               "replayed: private EpochSampler fed from traced spans, one "
               "epoch per round, detection-only controller");
  return rep;
}

} // namespace e2e
