// Differential lock for the tiered mutable key plane (DESIGN.md 4j): any
// interleaving of publishes and retracts — direct calls or routed update
// frames, at every worker count, with faults off or on — must leave a
// store that is query-bit-identical to a from-scratch publish_batch build
// of the surviving elements. The matrix sweeps curve family, finger base,
// aggregation, and owner caching so the equivalence is pinned across every
// query-plane configuration, not just the paper default. A brute-force
// per-op model (support/differential.hpp) checks the sorted batch commit
// on hostile batches directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/core/update.hpp"
#include "squid/obs/telemetry.hpp"
#include "squid/sfc/refine.hpp"
#include "squid/sim/fault.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using overlay::NodeId;

using namespace testing_support;

keyword::KeywordSpace two_dim_space() { return letter_space("abcde"); }

DataElement random_element(Rng& rng, int serial) {
  return random_letter_element(rng, "abcde", "e" + std::to_string(serial));
}

/// The update-plane worker count and fault switch each row of kEngineMatrix
/// exercises. Together the nine rows cover all three curve families, finger
/// bases {2, 4, 8, 16}, aggregation and caching on/off, every worker count,
/// and faults off/on.
struct UpdatePlane {
  unsigned shards;
  bool faults;
};

const UpdatePlane kUpdatePlane[] = {{1, false}, {1, false}, {2, false},
                                    {4, false}, {1, true},  {1, true},
                                    {2, true},  {1, true},  {4, true}};

/// Assert the two systems expose bit-identical stores and answer queries
/// identically from the same origins.
void expect_twin_equal(SquidSystem& lhs, SquidSystem& rhs, Rng& origins) {
  ASSERT_EQ(lhs.key_count(), rhs.key_count());
  ASSERT_EQ(lhs.element_count(), rhs.element_count());
  ASSERT_EQ(lhs.key_indices(), rhs.key_indices());
  std::vector<std::vector<DataElement>> mine;
  lhs.for_each_key([&](u128, const sfc::Point&,
                       const std::vector<DataElement>& es) {
    mine.push_back(es);
  });
  std::size_t at = 0;
  rhs.for_each_key([&](u128, const sfc::Point&,
                       const std::vector<DataElement>& es) {
    ASSERT_LT(at, mine.size());
    EXPECT_EQ(es, mine[at]); // element identity AND arrival order
    ++at;
  });
  EXPECT_EQ(at, mine.size());

  for (const char* text : {"(*, *)", "(a*, *)", "(*, b*)", "(c*, d*)"}) {
    const keyword::Query q = lhs.space().parse(text);
    const NodeId origin = lhs.ring().random_node(origins);
    const QueryResult rl = lhs.query(q, origin);
    const QueryResult rr = rhs.query(q, origin);
    EXPECT_EQ(rl.elements, rr.elements) << text;
    EXPECT_EQ(rl.stats.matches, rr.stats.matches) << text;
    const AggregateSpec count{AggregateKind::kCount};
    EXPECT_EQ(lhs.query_aggregate(q, count, origin).aggregate->count,
              rhs.query_aggregate(q, count, origin).aggregate->count)
        << text;
  }
}

TEST(StoreDifferential, InterleavingsMatchFromScratchBatchBuild) {
  // Direct publish/unpublish interleavings on the tiered store, one system
  // per matrix row. The survivors, batch-loaded into a fresh twin, must
  // reproduce the store and its query answers exactly.
  for (const EngineConfig& engine : kEngineMatrix) {
    SCOPED_TRACE(config_label(engine));
    Rng rng(0xd1ff);
    SquidSystem sys(two_dim_space(), config_of(engine));
    Rng net(77);
    sys.build_network(20, net);

    std::vector<DataElement> live; // arrival order of survivors
    for (int step = 0; step < 400; ++step) {
      if (!live.empty() && rng.below(3) == 0) {
        const std::size_t pick = rng.below(live.size());
        ASSERT_TRUE(sys.unpublish(live[pick]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const DataElement e = random_element(rng, step);
        sys.publish(e);
        live.push_back(e);
      }
    }

    SquidSystem twin(two_dim_space(), config_of(engine));
    Rng twin_net(77);
    twin.build_network(20, twin_net);
    twin.publish_batch(live);

    Rng origins(0x0409);
    expect_twin_equal(sys, twin, origins);
  }
}

TEST(StoreDifferential, UpdatePlaneMatchesBatchBuildAcrossMatrix) {
  // The same lock through the routed update plane: per-row worker count
  // and fault switch. The oracle follows each op's `applied`
  // verdict, so with faults on the twin holds exactly the delivered subset.
  sim::FaultPlan plan;
  plan.seed = 0xfa11;
  plan.drop_probability = 0.08;
  plan.delay_probability = 0.1;
  plan.duplicate_probability = 0.05;

  ASSERT_EQ(std::size(kUpdatePlane), kEngineMatrix.size());
  for (std::size_t row = 0; row < kEngineMatrix.size(); ++row) {
    const EngineConfig& engine = kEngineMatrix[row];
    const UpdatePlane& p = kUpdatePlane[row];
    SCOPED_TRACE(config_label(engine) + "/S" + std::to_string(p.shards) +
                 (p.faults ? "/faults" : "/clean"));
    Rng rng(0x09d3);
    SquidSystem sys(two_dim_space(), config_of(engine));
    Rng net(31);
    sys.build_network(24, net);

    UpdateOptions opts;
    opts.shards = p.shards;
    opts.faults = p.faults ? &plan : nullptr;

    std::vector<DataElement> live; // applied survivors, arrival order
    int serial = 0;
    for (int chunk = 0; chunk < 5; ++chunk) {
      std::vector<UpdateOp> ops;
      std::vector<DataElement> chunk_live = live;
      for (int i = 0; i < 60; ++i) {
        const NodeId origin = sys.ring().random_node(rng);
        if (!chunk_live.empty() && rng.below(3) == 0) {
          // Retract a survivor not already retracted this chunk, so every
          // delivered retract is applied and the oracle stays exact.
          const std::size_t pick = rng.below(chunk_live.size());
          ops.push_back(UpdateOp::retract(chunk_live[pick], origin));
          chunk_live.erase(chunk_live.begin() +
                           static_cast<std::ptrdiff_t>(pick));
        } else {
          ops.push_back(UpdateOp::publish(random_element(rng, serial++),
                                          origin));
        }
      }
      const UpdateRun run = apply_updates(sys, ops, opts);
      ASSERT_EQ(run.results.size(), ops.size());
      if (!p.faults) {
        EXPECT_EQ(run.lost, 0u);
        EXPECT_EQ(run.delivered, ops.size());
      }
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const UpdateResult& r = run.results[i];
        if (!r.applied) continue;
        if (ops[i].kind == UpdateOp::Kind::kPublish) {
          live.push_back(ops[i].element);
        } else {
          const auto it = std::find(live.begin(), live.end(), ops[i].element);
          ASSERT_NE(it, live.end());
          live.erase(it);
        }
      }
    }
    ASSERT_EQ(sys.element_count(), live.size());

    SquidSystem twin(two_dim_space(), config_of(engine));
    Rng twin_net(31);
    twin.build_network(24, twin_net);
    twin.publish_batch(live);

    Rng origins(0x0419);
    expect_twin_equal(sys, twin, origins);
  }
}

TEST(StoreDifferential, DeliveryModeNeverChangesFinalState) {
  // One op stream, three worker counts: identical per-op results —
  // verdicts, costs and completion ticks — and identical final stores
  // (clause 3 of the determinism contract in core/update.hpp).
  // Heavy drop rate: with kSendRetries = 3 a loss needs four straight drops,
  // so 0.5 yields a real lost population (~6% of ops) for the equality
  // check below.
  sim::FaultPlan plan;
  plan.seed = 0x5eed;
  plan.drop_probability = 0.5;
  plan.duplicate_probability = 0.05;

  for (const bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "faults" : "clean");
    // Build the shared op stream once, against a throwaway system (for
    // origin draws only — the stream must be identical for every run).
    std::vector<UpdateOp> ops;
    {
      Rng rng(0xabcd);
      SquidSystem probe(two_dim_space());
      Rng net(13);
      probe.build_network(16, net);
      std::vector<DataElement> pool;
      for (int i = 0; i < 150; ++i) {
        const NodeId origin = probe.ring().random_node(rng);
        if (!pool.empty() && rng.below(4) == 0) {
          const std::size_t pick = rng.below(pool.size());
          ops.push_back(UpdateOp::retract(pool[pick], origin));
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
          const DataElement e = random_element(rng, i);
          ops.push_back(UpdateOp::publish(e, origin));
          pool.push_back(e);
        }
      }
    }

    std::vector<UpdateRun> runs;
    std::vector<std::vector<u128>> key_sets;
    std::vector<std::size_t> element_counts;
    for (const unsigned shards : kWorkerCounts) {
      SquidSystem sys(two_dim_space());
      Rng net(13);
      sys.build_network(16, net);
      UpdateOptions opts;
      opts.shards = shards;
      opts.faults = faulty ? &plan : nullptr;
      runs.push_back(apply_updates(sys, ops, opts));
      key_sets.push_back(sys.key_indices());
      element_counts.push_back(sys.element_count());
    }
    for (std::size_t m = 1; m < runs.size(); ++m) {
      EXPECT_EQ(key_sets[m], key_sets[0]);
      EXPECT_EQ(element_counts[m], element_counts[0]);
      EXPECT_EQ(runs[m].delivered, runs[0].delivered);
      EXPECT_EQ(runs[m].applied, runs[0].applied);
      EXPECT_EQ(runs[m].lost, runs[0].lost);
      EXPECT_EQ(runs[m].messages, runs[0].messages);
      EXPECT_EQ(runs[m].retries, runs[0].retries);
      EXPECT_EQ(runs[m].bytes, runs[0].bytes);
      EXPECT_EQ(runs[m].makespan, runs[0].makespan);
      ASSERT_EQ(runs[m].results.size(), runs[0].results.size());
      for (std::size_t i = 0; i < runs[0].results.size(); ++i) {
        EXPECT_EQ(runs[m].results[i].delivered, runs[0].results[i].delivered);
        EXPECT_EQ(runs[m].results[i].applied, runs[0].results[i].applied);
        EXPECT_EQ(runs[m].results[i].hops, runs[0].results[i].hops);
        EXPECT_EQ(runs[m].results[i].messages, runs[0].results[i].messages);
        EXPECT_EQ(runs[m].results[i].bytes, runs[0].results[i].bytes);
        EXPECT_EQ(runs[m].results[i].completed_at,
                  runs[0].results[i].completed_at);
      }
    }
    if (faulty) {
      EXPECT_GT(runs[0].lost, 0u); // the plan actually bit
    }
  }
}

TEST(StoreDifferential, SingleOpConveniencesRoundTrip) {
  Rng rng(0x51);
  SquidSystem sys(two_dim_space());
  sys.build_network(12, rng);
  const DataElement e = random_element(rng, 0);
  const NodeId origin = sys.ring().random_node(rng);

  const UpdateResult pub = publish_update(sys, e, origin);
  EXPECT_TRUE(pub.delivered);
  EXPECT_TRUE(pub.applied);
  EXPECT_GT(pub.bytes, 0u);
  EXPECT_EQ(sys.element_count(), 1u);

  const UpdateResult ret = retract_update(sys, e, origin);
  EXPECT_TRUE(ret.delivered);
  EXPECT_TRUE(ret.applied);
  EXPECT_EQ(sys.element_count(), 0u);

  // Retracting again is delivered (the frame routes) but not applied.
  const UpdateResult miss = retract_update(sys, e, origin);
  EXPECT_TRUE(miss.delivered);
  EXPECT_FALSE(miss.applied);
}

TEST(StoreDifferential, ZeroWorkersIsRejected) {
  // Same contract as query_parallel: a worker count of 0 is a caller error,
  // not a silent single worker. Nothing is planned or applied.
  Rng rng(0x52);
  SquidSystem sys(two_dim_space());
  sys.build_network(12, rng);
  const NodeId origin = sys.ring().random_node(rng);
  UpdateOptions opts;
  opts.shards = 0;
  EXPECT_THROW(
      (void)apply_updates(
          sys, {UpdateOp::publish(random_element(rng, 0), origin)}, opts),
      std::invalid_argument);
  EXPECT_EQ(sys.element_count(), 0u);
}

TEST(StoreDifferential, TieredAndFlatCapsAnswerIdentically) {
  // store_delta_cap 1 degenerates to the PR-2 flat store (merge on every
  // mutation); the default sqrt policy must be observationally identical.
  Rng rng(0x7157);
  SquidConfig tiered_cfg; // store_delta_cap = 0 (sqrt policy)
  SquidConfig flat_cfg;
  flat_cfg.store_delta_cap = 1;
  SquidSystem tiered(two_dim_space(), tiered_cfg);
  SquidSystem flat(two_dim_space(), flat_cfg);
  Rng net_a(5), net_b(5);
  tiered.build_network(18, net_a);
  flat.build_network(18, net_b);

  std::vector<DataElement> live;
  for (int step = 0; step < 500; ++step) {
    if (!live.empty() && rng.below(3) == 0) {
      const std::size_t pick = rng.below(live.size());
      ASSERT_TRUE(tiered.unpublish(live[pick]));
      ASSERT_TRUE(flat.unpublish(live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const DataElement e = random_element(rng, step);
      tiered.publish(e);
      flat.publish(e);
      live.push_back(e);
    }
    if (step % 100 == 0) {
      ASSERT_EQ(tiered.key_indices(), flat.key_indices());
    }
  }
  EXPECT_EQ(flat.store_delta_size(), 0u); // cap 1 never leaves residue
  EXPECT_GT(tiered.store_stats().merges, 0u);
  Rng origins(0x0429);
  expect_twin_equal(tiered, flat, origins);
}

/// A 2-d numeric space of 32 x 32 buckets: positions in one bucket share a
/// key, so a same-name republish there replaces content in place.
keyword::KeywordSpace grid_space() {
  return keyword::KeywordSpace(
      {keyword::NumericCodec(0, 32, 5), keyword::NumericCodec(0, 32, 5)});
}

/// Hostile update batches over a pool of named elements at a pool of
/// bucket positions. Each op is one of: a publish, a retract of a stored
/// element, a double retract, a retract before its own publish, a
/// same-name republish at the same key (new content) or at another key, a
/// retract of an element never published, and an identical republish.
class HostileBatches {
public:
  explicit HostileBatches(std::uint64_t seed) : rng_(seed) {
    for (int c = 0; c < 150; ++c)
      cells_.emplace_back(rng_.below(32), rng_.below(32));
  }

  DataElement fresh_element() {
    return at_cell(pick_cell(), "e" + std::to_string(rng_.below(60)));
  }

  std::vector<UpdateOp> batch(const testing_support::StoreModel& model,
                              SquidSystem& sys, std::size_t size) {
    std::vector<DataElement> stored;
    for (const auto& [index, elements] : model.keys)
      stored.insert(stored.end(), elements.begin(), elements.end());
    std::vector<UpdateOp> ops;
    const auto origin = [&] { return sys.ring().random_node(rng_); };
    while (ops.size() < size) {
      const auto kind = rng_.below(8);
      if (stored.empty() || kind == 0) {
        ops.push_back(UpdateOp::publish(fresh_element(), origin()));
        continue;
      }
      const DataElement& victim = stored[rng_.below(stored.size())];
      switch (kind) {
      case 1: // retract a stored element
        ops.push_back(UpdateOp::retract(victim, origin()));
        break;
      case 2: // double retract
        ops.push_back(UpdateOp::retract(victim, origin()));
        ops.push_back(UpdateOp::retract(victim, origin()));
        break;
      case 3: { // retract before its own publish
        const DataElement e = fresh_element();
        ops.push_back(UpdateOp::retract(e, origin()));
        ops.push_back(UpdateOp::publish(e, origin()));
        break;
      }
      case 4: // same name, same bucket, new content
        ops.push_back(UpdateOp::publish(jittered(victim), origin()));
        break;
      case 5: // same name at another key
        ops.push_back(UpdateOp::publish(at_cell(pick_cell(), victim.name),
                                        origin()));
        break;
      case 6: // never published
        ops.push_back(UpdateOp::retract(
            at_cell(pick_cell(), "ghost" + std::to_string(rng_.below(9))),
            origin()));
        break;
      default: // identical republish
        ops.push_back(UpdateOp::publish(victim, origin()));
      }
    }
    return ops;
  }

  Rng& rng() { return rng_; }

private:
  std::pair<std::uint64_t, std::uint64_t> pick_cell() {
    return cells_[rng_.below(cells_.size())];
  }
  DataElement at_cell(std::pair<std::uint64_t, std::uint64_t> cell,
                      std::string name) {
    const auto coord = [&](std::uint64_t c) {
      return static_cast<double>(c) + 0.05 + 0.9 * rng_.uniform();
    };
    return DataElement{std::move(name),
                       {coord(cell.first), coord(cell.second)}};
  }
  DataElement jittered(const DataElement& e) {
    const auto cell = [](const keyword::Token& t) {
      return static_cast<std::uint64_t>(std::get<double>(t));
    };
    return at_cell({cell(e.keys[0]), cell(e.keys[1])}, e.name);
  }

  Rng rng_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cells_;
};

TEST(StoreDifferential, CommitMatchesPerOpModelOnHostileBatches) {
  // Every commit path (publish_batch, apply_updates, unpublish) against the
  // per-op model: each op's applied verdict, element_count, every key's
  // elements in arrival order, the sampler's per-node publish and retract
  // loads, and which replica entries the applied writes invalidate. Batch
  // sizes straddle the store's merge threshold, so both the in-place and
  // the fold path run under the sqrt policy; cap 1 folds every batch.
  sim::FaultPlan plan;
  plan.seed = 0xbad5;
  plan.drop_probability = 0.3;
  plan.duplicate_probability = 0.05;

  for (const std::size_t cap : {std::size_t{0}, std::size_t{1}}) {
    for (const unsigned shards : kWorkerCounts) {
      for (const bool faulty : {false, true}) {
        SCOPED_TRACE("cap" + std::to_string(cap) + "/S" +
                     std::to_string(shards) + (faulty ? "/faults" : "/clean"));
        SquidConfig config;
        config.store_delta_cap = cap;
        SquidSystem sys(grid_space(), config);
        Rng net(0x9e0);
        sys.build_network(24, net);
        std::vector<NodeId> nodes;
        for (const auto& [id, load] : sys.node_loads()) nodes.push_back(id);
        obs::EpochSampler sampler(1000);
        sys.set_telemetry(&sampler);
        std::map<NodeId, std::pair<std::uint64_t, std::uint64_t>> loads;

        HostileBatches gen(0x4057 + shards);
        StoreModel model;
        const auto index_of = [&](const DataElement& e) {
          return sys.curve().index_of(sys.space().encode(e.keys));
        };

        // A hostile load: repeated names and identical elements in one
        // publish_batch.
        std::vector<DataElement> load;
        for (int i = 0; i < 240; ++i)
          load.push_back(i % 5 == 4 ? load[gen.rng().below(load.size())]
                                    : gen.fresh_element());
        sys.publish_batch(load);
        for (const DataElement& e : load) {
          model.publish(index_of(e), e);
          ++loads[brute_owner(nodes, index_of(e))].first;
        }

        sfc::ClusterRefiner refiner(sys.curve());
        std::vector<std::pair<std::uint64_t, sfc::Segment>> entries;
        for (const auto& [level, prefix] :
             {std::pair{1u, 0u}, {1u, 3u}, {2u, 5u}, {2u, 9u}, {3u, 40u}})
          entries.emplace_back(
              sys.install_replica(level, prefix, {nodes[level]}),
              refiner.segment_of(sfc::ClusterNode{prefix, level}));

        UpdateOptions opts;
        opts.shards = shards;
        opts.faults = faulty ? &plan : nullptr;
        bool saw_in_place = false, saw_fold = false;
        std::size_t missed_retracts = 0, invalidated_total = 0,
                    stayed_valid = 0;
        for (int round = 0; round < 12; ++round) {
          const std::size_t size = round % 2 == 0
                                       ? 8 + gen.rng().below(20)
                                       : 150 + gen.rng().below(150);
          const std::vector<UpdateOp> ops = gen.batch(model, sys, size);
          for (const auto& entry : entries) sys.refresh_replica(entry.first);
          const std::uint64_t invalidations_before =
              sys.replica_stats().invalidations;
          const std::uint64_t merges_before = sys.store_stats().merges;

          const UpdateRun run = apply_updates(sys, ops, opts);
          (sys.store_stats().merges == merges_before ? saw_in_place
                                                     : saw_fold) = true;

          std::vector<u128> touched;
          for (std::size_t i = 0; i < ops.size(); ++i) {
            const UpdateResult& r = run.results[i];
            if (!r.delivered) {
              EXPECT_FALSE(r.applied) << "op " << i;
              continue;
            }
            const u128 index = index_of(ops[i].element);
            const bool retract = ops[i].kind == UpdateOp::Kind::kRetract;
            bool applied = true;
            if (retract) {
              applied = model.retract(index, ops[i].element);
            } else {
              model.publish(index, ops[i].element);
            }
            ASSERT_EQ(r.applied, applied) << "round " << round << " op " << i;
            if (!applied) {
              ++missed_retracts;
              continue;
            }
            touched.push_back(index);
            auto& load_of = loads[brute_owner(nodes, index)];
            ++(retract ? load_of.second : load_of.first);
          }
          if (!faulty) {
            EXPECT_EQ(run.delivered, ops.size());
          }

          std::uint64_t invalidated = 0;
          for (const auto& [id, segment] : entries) {
            const sfc::Segment seg = segment;
            const bool hit =
                std::any_of(touched.begin(), touched.end(), [&](u128 k) {
                  return seg.lo <= k && k <= seg.hi;
                });
            EXPECT_EQ(sys.replica_valid(id), !hit) << "round " << round;
            invalidated += hit ? 1 : 0;
          }
          invalidated_total += invalidated;
          stayed_valid += entries.size() - invalidated;
          EXPECT_EQ(sys.replica_stats().invalidations - invalidations_before,
                    invalidated);

          // A direct retract of a stored element and of a ghost.
          if (!model.keys.empty()) {
            const DataElement victim = model.keys.begin()->second.front();
            const u128 index = index_of(victim);
            ASSERT_TRUE(sys.unpublish(victim));
            model.retract(index, victim);
            ++loads[brute_owner(nodes, index)].second;
          }
          EXPECT_FALSE(sys.unpublish(DataElement{"ghost", {1.5, 1.5}}));

          ASSERT_EQ(sys.element_count(), model.elements);
          std::map<u128, std::vector<DataElement>> stored;
          sys.for_each_key([&](u128 index, const sfc::Point&,
                               const std::vector<DataElement>& elements) {
            stored.emplace(index, elements);
          });
          ASSERT_EQ(stored, model.keys) << "round " << round;
        }
        // The batches were as hostile as intended.
        if (cap == 0) {
          EXPECT_TRUE(saw_in_place);
        }
        EXPECT_TRUE(saw_fold);
        EXPECT_GT(missed_retracts, 0u);
        EXPECT_GT(invalidated_total, 0u);
        EXPECT_GT(stayed_valid, 0u);

        if constexpr (obs::kEnabled) {
          std::map<NodeId, std::pair<std::uint64_t, std::uint64_t>> sampled;
          for (const obs::EpochSample& epoch : sampler.finish().epochs) {
            for (const auto& [node, v] : epoch.nodes) {
              if (v.publishes + v.retracts == 0) continue;
              sampled[node].first += v.publishes;
              sampled[node].second += v.retracts;
            }
          }
          EXPECT_EQ(sampled, loads);
        }
        sys.set_telemetry(nullptr);
      }
    }
  }
}

} // namespace
} // namespace squid::core
