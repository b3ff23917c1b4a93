// kw-crowd: the 2-d keyword fixture at the paper's first scale point
// (1000 nodes, 2·10^4 keys, load-balancing joins) replaying bench/ext_hotspot's
// flash stream — 24 epochs of 32 Q1/Q2 queries, tripled in epochs 8-15 with
// 80% of them on one partial keyword — with an EpochSampler attached and a
// ReactionController calibrated at onset exactly as ext_hotspot does it.
// One round is one 24-epoch cycle on a freshly built fixture, because the
// controller's splits and replicas carry state across a cycle.
//
// The deployment (vocabulary, corpus, overlay) comes from a fixed seed, as
// the figure benches' fixtures do: the vocabulary decides which word the
// crowd converges on, and letting it vary would make per-query costs swing
// by a third between seeds. --seed draws the query stream, the origins,
// the controller's choices and the update probe.

#include <map>
#include <memory>
#include <optional>

#include "squid/core/reaction.hpp"
#include "squid/obs/hotspot.hpp"
#include "squid/obs/telemetry.hpp"
#include "squid/workload/corpus.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

constexpr const char* kName = "kw-crowd";
constexpr std::size_t kNodes = 1000;
constexpr std::size_t kKeys = 20000;
constexpr sim::Time kEpochTicks = 256;
constexpr std::uint64_t kEpochs = 24;
constexpr std::uint64_t kOnset = 8;
constexpr std::uint64_t kEnd = 16;
constexpr std::size_t kQueriesPerEpoch = 32;
constexpr std::size_t kCrowdMultiplier = 3;
constexpr std::uint64_t kWarmupEpochs = 2;
constexpr int kMinRounds = 3;
constexpr std::uint64_t kDeploymentSeed = 2003;

struct Inputs {
  std::unique_ptr<workload::KeywordCorpus> corpus;
  std::vector<core::DataElement> elements;
  std::vector<std::vector<keyword::Query>> epochs; ///< the cycle's stream
  std::vector<Fingerprint> expected;               ///< per stream position
  std::uint64_t net_seed = 0;
  std::uint64_t origin_seed = 0;
  std::uint64_t controller_seed = 0;
  std::uint64_t probe_seed = 0;
  std::uint64_t stream_hash = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  Rng deployment(kDeploymentSeed);
  in.corpus =
      std::make_unique<workload::KeywordCorpus>(2, 2500, 0.8, deployment);
  const core::SquidSystem geometry(in.corpus->make_space(), balanced_config());
  in.elements = draw_corpus(*in.corpus, geometry, kKeys, deployment);
  in.net_seed = deployment();
  Rng rng(seed);
  in.origin_seed = rng();
  in.controller_seed = rng();
  in.probe_seed = rng();

  workload::FlashCrowdConfig crowd;
  crowd.onset_epoch = kOnset;
  crowd.end_epoch = kEnd;
  const workload::FlashCrowdWorkload flash(*in.corpus, crowd);
  Rng stream(rng());
  const Oracle oracle(geometry.space(), in.elements);
  std::map<std::string, Fingerprint> cache;
  in.stream_hash = fnv1a(std::to_string(in.elements.size()));
  in.epochs.resize(kEpochs);
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    const bool crowded = e >= kOnset && e < kEnd;
    const std::size_t n = kQueriesPerEpoch * (crowded ? kCrowdMultiplier : 1);
    for (std::size_t q = 0; q < n; ++q) {
      in.epochs[e].push_back(flash.draw(e, stream));
      const std::string text = keyword::to_string(in.epochs[e].back());
      in.stream_hash = fnv1a(text, in.stream_hash);
      auto it = cache.find(text);
      if (it == cache.end())
        it = cache
                 .emplace(text, oracle.expect(geometry.space().to_rect(
                                    in.epochs[e].back())))
                 .first;
      in.expected.push_back(it->second);
    }
  }
  return in;
}

std::unique_ptr<core::SquidSystem> build_fixture(const Inputs& in) {
  auto sys = std::make_unique<core::SquidSystem>(in.corpus->make_space(),
                                                 balanced_config());
  sys->publish_batch(in.elements);
  Rng net(in.net_seed);
  grow_network(*sys, kNodes, net);
  return sys;
}

struct Cycle {
  double setup_s = 0;
  std::vector<double> query_ns;
  double query_total_ns = 0;
  ExactTotals exact;
};

/// Build a fresh fixture (timed: the set-up sample) and run the first
/// `epochs` epochs of the cycle through it.
Cycle run_cycle(const Inputs& in, std::uint64_t epochs, LayerProbe* probe,
                Report& rep, bool self_test) {
  Cycle c;
  const std::int64_t s0 = now_ns();
  const std::unique_ptr<core::SquidSystem> sys = build_fixture(in);
  c.setup_s = seconds_since(s0);

  obs::EpochSampler sampler(kEpochTicks);
  sys->set_telemetry(&sampler);
  sys->set_tracing(probe != nullptr);
  if (probe) probe->begin_round(*sys);
  std::unique_ptr<core::ReactionController> controller;
  Rng origins(in.origin_seed);
  const auto on_epoch = [&](const obs::EpochSample& sample) {
    const std::int64_t a = now_ns();
    (void)controller->on_epoch(sample);
    if (probe) probe->add_on_epoch(a, now_ns());
  };

  std::size_t pos = 0;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    for (const keyword::Query& query : in.epochs[e]) {
      const overlay::NodeId origin = sys->ring().random_node(origins);
      const std::int64_t t0 = now_ns();
      const core::QueryResult result = sys->query(query, origin);
      const std::int64_t t1 = now_ns();
      c.query_ns.push_back(static_cast<double>(t1 - t0));
      c.query_total_ns += static_cast<double>(t1 - t0);
      ++rep.attempted;
      check_answer(result, in.expected[pos], kName, pos, rep);
      if (self_test && !result.elements.empty()) {
        oracle_self_test(result, in.expected[pos], rep);
        self_test = false;
      }
      c.exact.add_query(result.stats);
      if (probe) probe->on_query(*sys, query, result, t0, t1);
      ++pos;
    }

    // Epoch close: a safe point, no query in flight.
    const std::int64_t a = now_ns();
    sampler.advance_to(static_cast<sim::Time>(e + 1) * kEpochTicks);
    const obs::LoadSeries so_far = sampler.finish();
    if (probe) probe->add_epoch_close(a, now_ns());
    if (e + 1 == kOnset) {
      // Calibrate the detector floor on the pre-onset hum, bring the
      // controller online and replay the calibration window.
      obs::HotspotConfig hcfg;
      hcfg.min_load = obs::calibrated_min_load(
          hcfg.min_load, so_far, kOnset, sys->config().hotspot_min_load_factor);
      controller = std::make_unique<core::ReactionController>(
          *sys, hcfg, core::ReactionConfig{}, in.controller_seed);
      for (std::uint64_t i = 0; i <= e && i < so_far.epochs.size(); ++i)
        on_epoch(so_far.epochs[i]);
    } else if (controller && e < so_far.epochs.size()) {
      on_epoch(so_far.epochs[e]);
    }
  }
  sys->set_telemetry(nullptr);
  sys->set_tracing(false);
  if (probe) {
    probe->end_round(*sys);
    LayerProbe::Reaction r;
    if (controller) {
      r.splits = controller->totals().splits;
      r.replications = controller->totals().replications;
    }
    const auto rs = sys->replica_stats();
    r.replica_serves = rs.serves;
    r.stale_skips = rs.stale_skips;
    probe->add_reaction(r);
  }
  return c;
}

/// Every probe batch restores the content: the probe fixture must still
/// answer the first epoch's queries correctly.
void verify_probe(const core::SquidSystem& sys, const Inputs& in, Report& rep) {
  Rng origins(in.origin_seed);
  for (std::size_t pos = 0; pos < in.epochs[0].size(); ++pos) {
    ++rep.attempted;
    check_answer(sys.query(in.epochs[0][pos], sys.ring().random_node(origins)),
                 in.expected[pos], kName, pos, rep);
  }
}

} // namespace

Report run_kw_crowd(const Options& opts, SpanLog& spans) {
  Report rep;
  const Inputs in = make_inputs(opts.seed);
  rep.note("fixture", "2-d keywords, " + std::to_string(kNodes) + " nodes, " +
                          std::to_string(in.elements.size()) + " elements");
  rep.note("stream_hash", hex64(in.stream_hash));

  // Untimed warm-up: a partial cycle on a throwaway fixture.
  (void)run_cycle(in, kWarmupEpochs, nullptr, rep, /*self_test=*/true);
  UpdateProbe updates(build_fixture(in), in.elements, in.probe_seed, kName, rep);

  const std::int64_t start = now_ns();
  WallSamples wall;
  ExactTotals exact;
  std::optional<ExactTotals> first;
  const auto keep = [&](const Cycle& c) {
    if (!first) first = c.exact;
    else if (!(c.exact == *first))
      rep.fail("exact counts differ between identical cycles");
    exact += c.exact;
  };

  if (!opts.trace) {
    for (int round = 0; round < kMinRounds || seconds_since(start) < opts.seconds;
         ++round) {
      const Cycle c = run_cycle(in, kEpochs, nullptr, rep, false);
      wall.setup_s.push_back(c.setup_s);
      for (std::size_t i = 0; i < c.query_ns.size(); ++i)
        wall.query.add(i, c.query_ns[i]);
      wall.round_qps.push_back(static_cast<double>(c.query_ns.size()) /
                               (c.query_total_ns * 1e-9));
      keep(c);
      updates.round(&wall, exact, nullptr, rep);
    }
    rep.note("rounds", std::to_string(wall.round_qps.size()));
    verify_probe(updates.system(), in, rep);
    add_end_to_end(rep, wall, exact);
    return rep;
  }

  // Traced run: untraced cycles for a third of the time, then as many
  // traced cycles on identical inputs; the ratio of their best-replay query
  // time is the tracing overhead.
  BestTimes untraced;
  int rounds = 0;
  for (; rounds < kMinRounds || seconds_since(start) < opts.seconds / 3;
       ++rounds) {
    const Cycle c = run_cycle(in, kEpochs, nullptr, rep, false);
    for (std::size_t i = 0; i < c.query_ns.size(); ++i)
      untraced.add(i, c.query_ns[i]);
    keep(c);
  }
  LayerProbe probe(spans);
  BestTimes traced;
  for (int i = 0; i < rounds; ++i) {
    const Cycle c = run_cycle(in, kEpochs, &probe, rep, false);
    for (std::size_t j = 0; j < c.query_ns.size(); ++j)
      traced.add(j, c.query_ns[j]);
    keep(c);
    updates.round(nullptr, exact, &probe, rep);
  }
  rep.note("rounds", std::to_string(rounds) + " untraced + " +
                         std::to_string(rounds) + " traced");
  verify_probe(updates.system(), in, rep);
  probe.report(rep, traced.total_ns() / untraced.total_ns() - 1.0,
               "the attached EpochSampler / ReactionController, per epoch");
  return rep;
}

} // namespace e2e
