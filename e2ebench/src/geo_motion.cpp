// geo-motion: GeoMovingObjectsWorkload with 20 000 objects on 1000 nodes
// (bench/ext_geo's scale) and the default store_delta_cap. A tick is every
// object's retract+publish — 40 000 routed ops in one lockstep
// apply_updates call — followed by bbox queries from random origins. One
// round rebuilds the world from the seed and runs kTicks ticks, so every
// round replays identical work. Writes sit beside reads: per-op routing,
// update-frame encoding and the tiered store's delta/merge path dominate
// the tick, and queries read a store with a live delta tier.
//
// Oracle: each bbox answer must equal the objects whose current (truth)
// position encodes into the query rectangle; GeoMovingObjectsWorkload::
// inside() must be a subset of that set; two k_nearest probes per tick
// must equal brute force; every update op must be delivered and applied.

#include <algorithm>
#include <optional>

#include "squid/workload/geo.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

constexpr const char* kName = "geo-motion";
constexpr std::size_t kNodes = 1000;
constexpr std::size_t kObjects = 20000;
constexpr std::size_t kTicks = 4;
constexpr std::size_t kQueriesPerTick = 256;
constexpr std::size_t kKnnPerTick = 2;
constexpr std::size_t kKnnK = 8;
constexpr int kMinRounds = 3;

/// The world plus its index, rebuilt from the seed at the start of every
/// round (the build is the round's set-up sample).
struct World {
  workload::GeoConfig config;
  std::unique_ptr<workload::GeoMovingObjectsWorkload> objects;
  std::unique_ptr<core::SquidSystem> sys;
  Rng stream{0};
  double setup_s = 0;
};

World make_world(std::uint64_t seed) {
  World w;
  w.config.objects = kObjects;
  Rng rng(seed);
  w.objects = std::make_unique<workload::GeoMovingObjectsWorkload>(w.config, rng);
  const std::vector<core::DataElement> initial = w.objects->elements();
  const std::uint64_t net_seed = rng();
  w.stream = Rng(rng());
  const std::int64_t s0 = now_ns();
  w.sys = std::make_unique<core::SquidSystem>(w.objects->make_space(),
                                              balanced_config());
  w.sys->publish_batch(initial);
  Rng net(net_seed);
  w.sys->build_network(kNodes, net);
  w.setup_s = seconds_since(s0);
  return w;
}

std::vector<workload::GeoNeighbor>
brute_nearest(const workload::GeoMovingObjectsWorkload& objects, double x,
              double y, std::size_t k) {
  std::vector<workload::GeoNeighbor> all;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const auto& o = objects.object(i);
    const double dx = o.x - x, dy = o.y - y;
    all.push_back({o.name, o.x, o.y, dx * dx + dy * dy});
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.name < b.name;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

struct Round {
  double setup_s = 0;
  std::vector<double> query_ns; ///< per query position (tick-major)
  std::vector<double> tick_ns;  ///< per tick: time in apply_updates
  std::uint64_t ops = 0;
  double query_total_ns = 0;
  ExactTotals exact;
  std::uint64_t stream_hash = 0;
};

/// One tick: motion, then queries and k-nearest probes. Generation
/// (step(), boxes, origins) and every check run outside the timed calls.
void run_tick(World& w, LayerProbe* probe, Report& rep, bool& self_test,
              Round& round) {
  core::SquidSystem& sys = *w.sys;
  if (probe) probe->begin_round(sys);

  std::vector<core::UpdateOp> ops;
  ops.reserve(2 * w.objects->size());
  for (std::size_t i = 0; i < w.objects->size(); ++i)
    w.objects->step(i, sys.ring().random_node(w.stream), ops, w.stream);
  std::int64_t t0 = now_ns();
  const core::UpdateRun run = core::apply_updates(sys, ops);
  std::int64_t t1 = now_ns();
  round.tick_ns.push_back(static_cast<double>(t1 - t0));
  round.ops += ops.size();
  rep.attempted += ops.size();
  for (const core::UpdateResult& r : run.results)
    if (!r.delivered || !r.applied)
      rep.fail(std::string(kName) + ": update not delivered and applied");
  round.exact.add_updates(run);
  if (probe) probe->on_updates(sys, ops, run, t0, t1);

  // Truth after the tick, for the bbox oracle.
  const keyword::KeywordSpace& space = sys.space();
  std::vector<sfc::Point> points;
  std::vector<std::uint64_t> hashes;
  points.reserve(w.objects->size());
  hashes.reserve(w.objects->size());
  for (std::size_t i = 0; i < w.objects->size(); ++i) {
    const core::DataElement e = w.objects->element_of(i);
    points.push_back(space.encode(e.keys));
    hashes.push_back(element_hash(e));
  }

  sys.set_tracing(probe != nullptr);
  for (std::size_t q = 0; q < kQueriesPerTick; ++q) {
    const double side = 32 + w.stream.uniform() * 96;
    const double x = w.stream.uniform() * (w.config.width - side);
    const double y = w.stream.uniform() * (w.config.height - side);
    const overlay::NodeId origin = sys.ring().random_node(w.stream);
    const keyword::Query query = workload::bbox_query(x, x + side, y, y + side);
    round.stream_hash = fnv1a(keyword::to_string(query), round.stream_hash);

    t0 = now_ns();
    const core::QueryResult result = sys.query(query, origin);
    t1 = now_ns();
    round.query_ns.push_back(static_cast<double>(t1 - t0));
    round.query_total_ns += static_cast<double>(t1 - t0);
    ++rep.attempted;

    const sfc::Rect rect = space.to_rect(query);
    Fingerprint expected;
    bool inside_ok = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const bool in_rect = rect.contains(points[i]);
      if (in_rect) expected.add_hash(hashes[i]);
      const auto& o = w.objects->object(i);
      if (!in_rect && o.x >= x && o.x <= x + side && o.y >= y && o.y <= y + side)
        inside_ok = false;
    }
    if (!inside_ok)
      rep.fail(std::string(kName) + ": inside() object outside the rectangle");
    check_answer(result, expected, kName, round.query_ns.size() - 1, rep);
    if (self_test && !result.elements.empty()) {
      oracle_self_test(result, expected, rep);
      self_test = false;
    }
    round.exact.add_query(result.stats);
    if (probe) probe->on_query(sys, query, result, t0, t1);
  }
  sys.set_tracing(false);

  for (std::size_t k = 0; k < kKnnPerTick; ++k) {
    const double x = w.stream.uniform() * w.config.width;
    const double y = w.stream.uniform() * w.config.height;
    ++rep.attempted;
    if (workload::k_nearest(sys, w.config, x, y, kKnnK,
                            sys.ring().random_node(w.stream)) !=
        brute_nearest(*w.objects, x, y, kKnnK))
      rep.fail(std::string(kName) + ": k_nearest differs from brute force");
  }

  if (probe) {
    probe->replay_epoch(sys);
    probe->end_round(sys);
  }
}

Round run_round(std::uint64_t seed, std::size_t ticks, LayerProbe* probe,
                Report& rep, bool self_test) {
  World w = make_world(seed);
  // A fresh world per round: restart the epoch replay so its controller is
  // bound to this round's system, never to a destroyed one.
  if (probe) probe->enable_epoch_replay();
  Round round;
  round.setup_s = w.setup_s;
  round.stream_hash = fnv1a(std::to_string(seed));
  for (std::size_t t = 0; t < ticks; ++t)
    run_tick(w, probe, rep, self_test, round);
  return round;
}

} // namespace

Report run_geo_motion(const Options& opts, SpanLog& spans) {
  Report rep;
  rep.note("fixture", "geo, " + std::to_string(kNodes) + " nodes, " +
                          std::to_string(kObjects) + " objects, " +
                          std::to_string(kTicks) + " ticks of " +
                          std::to_string(2 * kObjects) + " updates + " +
                          std::to_string(kQueriesPerTick) +
                          " bbox queries per round");
  // Untimed warm-up: one tick of a throwaway world (answers still checked).
  (void)run_round(opts.seed, 1, nullptr, rep, /*self_test=*/true);

  const std::int64_t start = now_ns();
  WallSamples wall;
  ExactTotals exact;
  std::optional<Round> first;
  const auto keep = [&](const Round& r) {
    if (!first) {
      first = r;
      rep.note("stream_hash", hex64(r.stream_hash));
    } else if (!(r.exact == first->exact) || r.stream_hash != first->stream_hash) {
      rep.fail("exact counts or inputs differ between identical rounds");
    }
    exact += r.exact;
  };

  if (!opts.trace) {
    for (int n = 0; n < kMinRounds || seconds_since(start) < opts.seconds; ++n) {
      const Round r = run_round(opts.seed, kTicks, nullptr, rep, false);
      wall.setup_s.push_back(r.setup_s);
      for (std::size_t i = 0; i < r.query_ns.size(); ++i)
        wall.query.add(i, r.query_ns[i]);
      for (std::size_t t = 0; t < r.tick_ns.size(); ++t)
        wall.update.add(t, r.tick_ns[t]);
      wall.update_ops = r.ops;
      wall.round_qps.push_back(static_cast<double>(r.query_ns.size()) /
                               (r.query_total_ns * 1e-9));
      keep(r);
    }
    rep.note("rounds", std::to_string(wall.round_qps.size()));
    add_end_to_end(rep, wall, exact);
    return rep;
  }

  // Traced run: untraced rounds for a third of the time, then as many
  // traced rounds (identical inputs); the ratio of their best-replay query
  // time is the tracing overhead.
  BestTimes untraced;
  int rounds = 0;
  for (; rounds < kMinRounds || seconds_since(start) < opts.seconds / 3;
       ++rounds) {
    const Round r = run_round(opts.seed, kTicks, nullptr, rep, false);
    for (std::size_t i = 0; i < r.query_ns.size(); ++i)
      untraced.add(i, r.query_ns[i]);
    keep(r);
  }
  LayerProbe probe(spans);
  BestTimes traced;
  for (int n = 0; n < rounds; ++n) {
    const Round r = run_round(opts.seed, kTicks, &probe, rep, false);
    for (std::size_t i = 0; i < r.query_ns.size(); ++i)
      traced.add(i, r.query_ns[i]);
    keep(r);
  }
  rep.note("rounds", std::to_string(rounds) + " untraced + " +
                         std::to_string(rounds) + " traced");
  probe.report(rep, traced.total_ns() / untraced.total_ns() - 1.0,
               "replayed: private EpochSampler fed from traced spans, one "
               "epoch per tick, detection-only controller");
  return rep;
}

} // namespace e2e
