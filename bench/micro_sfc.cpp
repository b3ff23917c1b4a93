// Micro-benchmarks: SFC mapping throughput (forward and inverse),
// rectangle decomposition across curve families and geometries, and the
// distributed planner's breadth-first cursor order on the end-to-end
// workloads' geometries.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "squid/sfc/cursor.hpp"
#include "squid/sfc/hilbert.hpp"
#include "squid/sfc/refine.hpp"
#include "squid/sfc/zorder.hpp"
#include "squid/util/rng.hpp"
#include "squid/workload/corpus.hpp"

namespace {

using namespace squid;
using namespace squid::sfc;

std::vector<Point> random_points(const Curve& curve, std::size_t count) {
  Rng rng(1);
  std::vector<Point> points(count);
  for (auto& p : points) {
    p.resize(curve.dims());
    for (auto& c : p)
      c = curve.bits_per_dim() >= 64 ? rng()
                                     : rng.below(curve.max_coord() + 1);
  }
  return points;
}

template <typename CurveT>
void BM_IndexOf(benchmark::State& state) {
  const CurveT curve(static_cast<unsigned>(state.range(0)),
                     static_cast<unsigned>(state.range(1)));
  const auto points = random_points(curve, 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.index_of(points[i++ & 1023]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename CurveT>
void BM_PointOf(benchmark::State& state) {
  const CurveT curve(static_cast<unsigned>(state.range(0)),
                     static_cast<unsigned>(state.range(1)));
  Rng rng(2);
  std::vector<u128> indices(1024);
  for (auto& h : indices) h = rng.next128() & curve.max_index();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.point_of(indices[i++ & 1023]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_HilbertDecompose(benchmark::State& state) {
  const HilbertCurve curve(2, static_cast<unsigned>(state.range(0)));
  const ClusterRefiner refiner(curve);
  Rng rng(3);
  std::vector<Rect> rects;
  for (int i = 0; i < 64; ++i) {
    Rect r;
    for (int d = 0; d < 2; ++d) {
      const auto a = rng.below(curve.max_coord() + 1);
      const auto b = rng.below(curve.max_coord() + 1);
      r.dims.push_back({std::min(a, b), std::max(a, b)});
    }
    rects.push_back(std::move(r));
  }
  std::size_t i = 0;
  std::size_t segments = 0;
  for (auto _ : state) {
    segments += refiner.decompose(rects[i++ & 63], 8).size();
  }
  benchmark::DoNotOptimize(segments);
}

/// A query geometry for the planning replay: the curve, a ring of node ids
/// with an equal share of the corpus' keys each (what the balanced
/// deployments converge to), and query rectangles from the workload's mix.
struct PlanningFixture {
  std::unique_ptr<Curve> curve;
  std::vector<u128> ring; ///< sorted; node i owns (ring[i-1], ring[i]]
  std::vector<Rect> rects;
};

template <typename Corpus>
std::vector<u128> balanced_ring(const Corpus& corpus,
                                const keyword::KeywordSpace& space,
                                const Curve& curve, std::size_t nodes,
                                std::size_t keys_per_node, Rng& rng) {
  std::vector<u128> keys;
  for (const auto& element : corpus.make_elements(nodes * keys_per_node, rng))
    keys.push_back(curve.index_of(space.encode(element.keys)));
  std::sort(keys.begin(), keys.end());
  std::vector<u128> ring;
  for (std::size_t i = keys_per_node - 1; i < keys.size(); i += keys_per_node)
    ring.push_back(keys[i]);
  ring.erase(std::unique(ring.begin(), ring.end()), ring.end());
  return ring;
}

/// kw-crowd's geometry: 2-d keywords on a Hilbert curve, 1000 nodes, the
/// flash-crowd Q1/Q2 mix before, during and after the crowd.
PlanningFixture keyword_fixture() {
  Rng rng(11);
  const workload::KeywordCorpus corpus(2, 2500, 0.8, rng);
  const keyword::KeywordSpace space = corpus.make_space();
  PlanningFixture f;
  f.curve = make_curve("hilbert", space.dims(), space.bits_per_dim());
  f.ring = balanced_ring(corpus, space, *f.curve, 1000, 20, rng);
  const workload::FlashCrowdWorkload flash(corpus);
  for (std::uint64_t epoch = 0; epoch < 24; ++epoch)
    for (int q = 0; q < 16; ++q)
      f.rects.push_back(space.to_rect(flash.draw(epoch, rng)));
  return f;
}

/// q3-range's geometry: 3-d numeric resources, 5400 nodes, boxes with
/// sides of 5-40% of each domain.
PlanningFixture resource_fixture() {
  Rng rng(12);
  const workload::ResourceCorpus corpus;
  const keyword::KeywordSpace space = corpus.make_space();
  PlanningFixture f;
  f.curve = make_curve("hilbert", space.dims(), space.bits_per_dim());
  f.ring = balanced_ring(corpus, space, *f.curve, 5400, 18, rng);
  constexpr double kExtent[3] = {4096, 10000, 1000};
  const auto place = [&](unsigned dim) {
    const double width = (0.05 + 0.35 * rng.uniform()) * kExtent[dim];
    const double lo = rng.uniform() * (kExtent[dim] - width);
    return std::pair{lo, lo + width};
  };
  for (int q = 0; q < 256; ++q) {
    const auto [st_lo, st_hi] = place(0);
    const auto [bw_lo, bw_hi] = place(1);
    const auto [c_lo, c_hi] = place(2);
    f.rects.push_back(space.to_rect(
        corpus.q3_all_ranges(st_lo, st_hi, bw_lo, bw_hi, c_lo, c_hi)));
  }
  return f;
}

/// Replay the planner's cursor traffic for one query (SquidSystem::
/// handle_resolve): each node reached expands its clusters breadth-first on
/// a fresh cursor, keeps children whose segment starts in its own range and
/// ships the rest, grouped by owner in curve order, as the next nodes' work.
/// Covered and entirely-local clusters stop, as they do in the planner.
/// Returns the clusters popped.
std::size_t replay_planning(const PlanningFixture& f, const Rect& rect,
                            std::size_t origin) {
  const Curve& curve = *f.curve;
  const unsigned dims = curve.dims();
  const unsigned bits = curve.bits_per_dim();
  const auto owner_of = [&](u128 key) {
    const auto it = std::lower_bound(f.ring.begin(), f.ring.end(), key);
    return it == f.ring.end() ? std::size_t{0}
                              : static_cast<std::size_t>(it - f.ring.begin());
  };
  struct Resolve {
    std::size_t node;
    std::vector<ClusterNode> clusters;
  };
  struct WorkItem {
    ClusterNode node;
    CellRelation relation;
    bool classified;
  };
  std::deque<Resolve> resolves;
  resolves.push_back({origin, {ClusterNode{0, 0}}});
  std::size_t popped = 0;
  std::vector<WorkItem> work;
  std::vector<std::pair<u128, ClusterNode>> remote;
  while (!resolves.empty()) {
    const Resolve r = std::move(resolves.front());
    resolves.pop_front();
    const u128 at = f.ring[r.node];
    RefineCursor cursor(curve);
    work.clear();
    remote.clear();
    for (const ClusterNode& c : r.clusters) work.push_back({c, {}, false});
    for (std::size_t next = 0; next < work.size(); ++next, ++popped) {
      const WorkItem item = work[next];
      CellRelation relation = item.relation;
      if (!item.classified) {
        cursor.seek(item.node.prefix, item.node.level);
        relation = cursor.relation_to(rect);
      }
      if (relation != CellRelation::partial) continue;
      const unsigned shift = (bits - item.node.level) * dims;
      const u128 lo = shift >= 128 ? 0 : item.node.prefix << shift;
      const u128 hi = lo + low_mask(shift);
      if (owner_of(lo) == r.node && (at >= hi || at < lo)) continue;
      cursor.seek(item.node.prefix, item.node.level);
      for (u128 w = 0; w < cursor.fanout(); ++w) {
        const CellRelation rel = cursor.classify_child(w, rect);
        if (rel == CellRelation::disjoint) continue;
        const ClusterNode child{(item.node.prefix << dims) | w,
                                item.node.level + 1};
        const u128 child_lo = lo | (w << (shift - dims));
        if (owner_of(child_lo) == r.node) {
          work.push_back({child, rel, true});
        } else {
          remote.emplace_back(child_lo, child);
        }
      }
    }
    std::sort(remote.begin(), remote.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const std::size_t first_dispatch = resolves.size();
    for (const auto& [lo, child] : remote) {
      const std::size_t owner = owner_of(lo);
      if (resolves.size() == first_dispatch || resolves.back().node != owner)
        resolves.push_back({owner, {}});
      resolves.back().clusters.push_back(child);
    }
  }
  return popped;
}

/// Time per cluster the planner pops, on kw-crowd's (arg 0) and q3-range's
/// (arg 1) geometry. The cursor's seeks follow the planner's FIFO order,
/// where consecutive clusters are siblings or cousins.
void BM_SeekPlanningOrder(benchmark::State& state) {
  const PlanningFixture f =
      state.range(0) == 0 ? keyword_fixture() : resource_fixture();
  std::size_t i = 0;
  std::size_t clusters = 0;
  for (auto _ : state) {
    clusters += replay_planning(f, f.rects[i % f.rects.size()],
                                (i * 7919) % f.ring.size());
    ++i;
  }
  state.counters["clusters_per_query"] = benchmark::Counter(
      static_cast<double>(clusters), benchmark::Counter::kAvgIterations);
  benchmark::DoNotOptimize(clusters);
  // Time per popped cluster, printed with a unit (e.g. "240ns").
  state.counters["per_cluster"] = benchmark::Counter(
      static_cast<double>(clusters),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

} // namespace

BENCHMARK(BM_IndexOf<HilbertCurve>)
    ->Args({2, 24})
    ->Args({3, 40})
    ->Args({8, 16});
BENCHMARK(BM_PointOf<HilbertCurve>)
    ->Args({2, 24})
    ->Args({3, 40})
    ->Args({8, 16});
BENCHMARK(BM_IndexOf<ZOrderCurve>)->Args({2, 24})->Args({3, 40});
BENCHMARK(BM_PointOf<ZOrderCurve>)->Args({2, 24})->Args({3, 40});
BENCHMARK(BM_HilbertDecompose)->Arg(8)->Arg(16)->Arg(24);
BENCHMARK(BM_SeekPlanningOrder)->Arg(0)->Arg(1);
