// The hotspot reaction loop (docs/LOAD_BALANCING.md): the replica cache's
// invalidation protocol (a stale read is structurally impossible, faults
// off AND on), served answers equal to routed ones, replica hosts that
// left the ring never answering, the controller's bit-transparency when
// disabled, the determinism of its reactions across all three delivery
// modes and worker counts, and the split -> replicate -> drain state
// machine (with departed hosts replaced) driven through synthetic epoch
// samples.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "squid/core/aggregate.hpp"
#include "squid/core/parallel.hpp"
#include "squid/core/reaction.hpp"
#include "squid/core/system.hpp"
#include "squid/core/update.hpp"
#include "squid/obs/telemetry.hpp"
#include "squid/obs/trace.hpp"
#include "squid/sim/engine.hpp"
#include "squid/sim/fault.hpp"
#include "squid/util/rng.hpp"
#include "squid/workload/corpus.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using testing_support::kWorkerCounts;
using testing_support::random_word;

struct World {
  std::unique_ptr<workload::KeywordCorpus> corpus;
  std::unique_ptr<SquidSystem> sys;
};

World make_world(std::uint64_t seed, std::size_t nodes,
                 std::size_t elements) {
  World world;
  Rng rng(seed);
  world.corpus = std::make_unique<workload::KeywordCorpus>(2, 300, 1.0, rng);
  world.sys = std::make_unique<SquidSystem>(world.corpus->make_space());
  world.sys->build_network(nodes, rng);
  for (const auto& e : world.corpus->make_elements(elements, rng))
    world.sys->publish(e);
  return world;
}

std::set<std::string> names_of(const QueryResult& r) {
  std::set<std::string> names;
  for (const auto& e : r.elements) names.insert(e.name);
  return names;
}

/// A root-level entry (level 0, prefix 0) covers every cluster, so any
/// dispatch can be served from it and any publish invalidates it — the
/// sharpest fixture for the invalidation protocol.
std::uint64_t install_root_entry(SquidSystem& sys, Rng& rng,
                                 std::size_t replicas) {
  std::vector<SquidSystem::NodeId> hosts;
  while (hosts.size() < replicas) {
    const auto n = sys.ring().random_node(rng);
    if (std::find(hosts.begin(), hosts.end(), n) == hosts.end())
      hosts.push_back(n);
  }
  return sys.install_replica(0, 0, std::move(hosts));
}

TEST(ReplicaInvalidation, RepublishMakesStaleReadsImpossible) {
  World world = make_world(0x11, 48, 1500);
  Rng rng(0x12);
  const std::uint64_t entry = install_root_entry(*world.sys, rng, 3);
  ASSERT_TRUE(world.sys->replica_valid(entry));

  const keyword::Query q{{keyword::Prefix{"a"}, keyword::Any{}}};
  const auto origin = world.sys->ring().random_node(rng);
  const auto before = names_of(world.sys->query(q, origin));
  EXPECT_GT(world.sys->replica_stats().serves, 0u)
      << "the root entry should have served at least one dispatch";

  // Publishing inside the entry's segment invalidates it; the next query
  // must fall back to routing and see the new element immediately.
  const DataElement fresh{"fresh", {"aaa", "aaa"}};
  world.sys->publish(fresh);
  EXPECT_FALSE(world.sys->replica_valid(entry));
  auto after = names_of(world.sys->query(q, origin));
  EXPECT_TRUE(after.count("fresh") == 1)
      << "invalidated entry kept serving a stale answer";
  for (const auto& name : before) EXPECT_EQ(after.count(name), 1u) << name;

  // Refresh re-validates the entry: serving resumes and the served answer
  // contains the element that invalidated it.
  ASSERT_TRUE(world.sys->refresh_replica(entry));
  EXPECT_TRUE(world.sys->replica_valid(entry));
  const auto served = world.sys->replica_stats().serves;
  after = names_of(world.sys->query(q, origin));
  EXPECT_EQ(after.count("fresh"), 1u);
  EXPECT_GT(world.sys->replica_stats().serves, served);

  // Unpublish invalidates too: the removed element must never resurrect
  // from a replica, refreshed or not.
  ASSERT_TRUE(world.sys->unpublish(fresh));
  EXPECT_FALSE(world.sys->replica_valid(entry));
  EXPECT_EQ(names_of(world.sys->query(q, origin)).count("fresh"), 0u);
  ASSERT_TRUE(world.sys->refresh_replica(entry));
  EXPECT_EQ(names_of(world.sys->query(q, origin)).count("fresh"), 0u);
}

TEST(ReplicaInvalidation, NoStaleReadsUnderFaults) {
  World world = make_world(0x21, 48, 1500);
  Rng rng(0x22);
  const std::uint64_t entry = install_root_entry(*world.sys, rng, 3);

  sim::FaultPlan plan;
  plan.seed = 0x5eed;
  plan.drop_probability = 0.05;
  plan.delay_probability = 0.1;
  plan.max_delay = 2;
  plan.duplicate_probability = 0.05;
  sim::FaultInjector injector(plan);
  world.sys->set_fault_injector(&injector);

  const keyword::Query q{{keyword::Prefix{"a"}, keyword::Any{}}};
  const DataElement fresh{"fresh", {"aaa", "aaa"}};
  world.sys->publish(fresh);
  ASSERT_TRUE(world.sys->unpublish(fresh));
  ASSERT_TRUE(world.sys->refresh_replica(entry));

  // Under message loss a query may legitimately miss matches — but it must
  // never RETURN the unpublished element, from a replica or anywhere
  // else, no matter which legs drop or duplicate.
  for (int trial = 0; trial < 20; ++trial) {
    const auto origin = world.sys->ring().random_node(rng);
    EXPECT_EQ(names_of(world.sys->query(q, origin)).count("fresh"), 0u)
        << "stale read on faulted trial " << trial;
  }
  world.sys->set_fault_injector(nullptr);
}

TEST(ReplicaInvalidation, RoutedRetractInvalidatesSynchronously) {
  // The update plane's retract commits through SquidSystem::unpublish, so a
  // hot-cluster replica covering the key is invalidated before
  // retract_update returns — a crowd being served by the replicas can
  // never be handed the retracted element afterwards.
  World world = make_world(0x91, 48, 1500);
  Rng rng(0x92);
  const DataElement fresh{"fresh", {"aaa", "aaa"}};
  world.sys->publish(fresh);
  const std::uint64_t entry = install_root_entry(*world.sys, rng, 3);
  ASSERT_TRUE(world.sys->replica_valid(entry)); // installed after fresh

  const keyword::Query q{{keyword::Prefix{"a"}, keyword::Any{}}};
  const auto origin = world.sys->ring().random_node(rng);
  ASSERT_EQ(names_of(world.sys->query(q, origin)).count("fresh"), 1u);

  const UpdateResult r = retract_update(*world.sys, fresh, origin);
  ASSERT_TRUE(r.delivered);
  ASSERT_TRUE(r.applied);
  EXPECT_FALSE(world.sys->replica_valid(entry))
      << "routed retract must invalidate the covering entry synchronously";
  EXPECT_EQ(names_of(world.sys->query(q, origin)).count("fresh"), 0u);
  ASSERT_TRUE(world.sys->refresh_replica(entry));
  EXPECT_EQ(names_of(world.sys->query(q, origin)).count("fresh"), 0u)
      << "the refresh resurrected a retracted element";
}

TEST(ReplicaInvalidation, RoutedRetractUnderFaultsNeverServesStale) {
  // Retracts through a heavily-dropping update plane: an op that is LOST
  // must leave both the element and the entry untouched, an op that is
  // APPLIED must invalidate before the call returns. Queries run with no
  // injector attached, so every read below is exact — the only uncertainty
  // is which retracts survived the wire.
  World world = make_world(0xa1, 48, 1500);
  Rng rng(0xa2);
  std::vector<DataElement> fresh;
  for (int i = 0; i < 40; ++i)
    fresh.push_back(DataElement{"fresh" + std::to_string(i), {"aaa", "aaa"}});
  for (const auto& e : fresh) world.sys->publish(e);
  const std::uint64_t entry = install_root_entry(*world.sys, rng, 3);
  ASSERT_TRUE(world.sys->replica_valid(entry));

  sim::FaultPlan plan;
  plan.seed = 0xbad;
  plan.drop_probability = 0.6; // loss needs 4 straight drops: ~13% of ops
  std::vector<UpdateOp> ops;
  for (const auto& e : fresh)
    ops.push_back(UpdateOp::retract(e, world.sys->ring().random_node(rng)));
  UpdateOptions opts;
  opts.faults = &plan;
  const UpdateRun run = apply_updates(*world.sys, ops, opts);
  ASSERT_GT(run.applied, 0u);
  ASSERT_GT(run.lost, 0u) << "the plan must actually lose some retracts";
  EXPECT_FALSE(world.sys->replica_valid(entry));

  const keyword::Query q{{keyword::Prefix{"a"}, keyword::Any{}}};
  for (int pass = 0; pass < 2; ++pass) {
    const auto names =
        names_of(world.sys->query(q, world.sys->ring().random_node(rng)));
    for (std::size_t i = 0; i < ops.size(); ++i)
      EXPECT_EQ(names.count(fresh[i].name), run.results[i].applied ? 0u : 1u)
          << fresh[i].name << (pass ? " after refresh" : "");
    if (pass == 0) {
      ASSERT_TRUE(world.sys->refresh_replica(entry));
    }
  }
}

/// Every peer that ran a local scan for `r` (empty without a trace).
std::set<SquidSystem::NodeId> scan_sites(const QueryResult& r) {
  std::set<SquidSystem::NodeId> sites;
  if (r.trace == nullptr) return sites;
  for (const obs::Span& span : r.trace->spans)
    if (span.kind == obs::SpanKind::kLocalScan) sites.insert(span.node);
  return sites;
}

/// Fail or gracefully remove `hosts` from the ring.
enum class Departure { kFail, kLeave };

void depart(SquidSystem& sys, const std::vector<SquidSystem::NodeId>& hosts,
            Departure how) {
  for (const auto host : hosts) {
    if (how == Departure::kFail) {
      sys.fail_node(host);
    } else {
      sys.leave_node(host);
    }
  }
  sys.repair_routing();
}

/// Root entry on three hosts, then `departed` of them fail or leave. A
/// replica host that is no longer a ring member cannot answer: dispatches
/// it would have served fall back to routing, so no scan ever runs on a
/// departed peer and every answer equals the routed answer of a twin world
/// without the entry.
void expect_departed_hosts_never_serve(Departure how, std::size_t departed) {
  World world = make_world(0x11, 48, 1500);
  World twin = make_world(0x11, 48, 1500);
  world.sys->set_tracing(true);
  const auto ids = world.sys->ring().node_ids();
  const std::vector<SquidSystem::NodeId> hosts = {ids[5], ids[17], ids[29]};
  const std::uint64_t entry = world.sys->install_replica(0, 0, hosts);
  const std::vector<SquidSystem::NodeId> gone(hosts.begin(),
                                              hosts.begin() + departed);
  depart(*world.sys, gone, how);
  depart(*twin.sys, gone, how);
  ASSERT_TRUE(world.sys->replica_valid(entry)); // membership never invalidates

  Rng rng(0x13);
  const keyword::Query q{{keyword::Prefix{"a"}, keyword::Any{}}};
  const auto serves_before = world.sys->replica_stats().serves;
  for (int trial = 0; trial < 20; ++trial) {
    const auto origin = world.sys->ring().random_node(rng);
    const QueryResult served = world.sys->query(q, origin);
    const QueryResult routed = twin.sys->query(q, origin);
    EXPECT_TRUE(served.complete) << "trial " << trial;
    EXPECT_EQ(names_of(served), names_of(routed)) << "trial " << trial;
    for (const auto site : scan_sites(served))
      EXPECT_TRUE(world.sys->ring().contains(site))
          << "a departed peer answered on trial " << trial;
  }
  const auto serves = world.sys->replica_stats().serves - serves_before;
  if (departed == hosts.size()) {
    EXPECT_EQ(serves, 0u) << "an entry with no live host must not serve";
  } else {
    EXPECT_GT(serves, 0u) << "the live host should still serve";
  }
}

TEST(ReplicaServing, FailedHostsFallBackToRouting) {
  expect_departed_hosts_never_serve(Departure::kFail, 3);
}

TEST(ReplicaServing, DepartedHostsFallBackToRouting) {
  expect_departed_hosts_never_serve(Departure::kLeave, 3);
}

TEST(ReplicaServing, OneLiveHostKeepsServing) {
  expect_departed_hosts_never_serve(Departure::kFail, 2);
}

/// An element answer as a comparable multiset.
std::vector<DataElement> sorted_elements(const QueryResult& r) {
  std::vector<DataElement> out = r.elements;
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tie(a.name, a.keys) < std::tie(b.name, b.keys);
  });
  return out;
}

/// One query's full answer: the element multiset plus the count, sum and
/// top-k partials of its aggregate twins.
struct FullAnswer {
  std::vector<DataElement> elements;
  std::vector<AggregatePartial> aggregates;
  bool operator==(const FullAnswer&) const = default;
};

TEST(ReplicaInvalidation, ServedAnswersEqualRoutedAnswers) {
  // A string keyword plus a numeric attribute, so kSum and kTopK have a
  // payload to read.
  const char letters[] = "abcde";
  SquidSystem sys(keyword::KeywordSpace({keyword::StringCodec(letters, 3),
                                         keyword::NumericCodec(0.0, 64.0, 6)}));
  Rng rng(0x71);
  sys.build_network(40, rng);
  for (int i = 0; i < 600; ++i) {
    const double value = static_cast<double>(rng.below(96)) / 1.5;
    sys.publish(DataElement{"e" + std::to_string(i),
                            {random_word(rng, letters), value}});
  }

  std::vector<keyword::Query> queries;
  for (int i = 0; i < 36; ++i) {
    keyword::Query q;
    if (i % 3 == 0) {
      q.terms.push_back(keyword::Any{});
    } else if (i % 3 == 1) {
      q.terms.push_back(keyword::Prefix{random_word(rng, letters)});
    } else {
      q.terms.push_back(keyword::Whole{random_word(rng, letters)});
    }
    const double lo = static_cast<double>(rng.below(48));
    q.terms.push_back(
        keyword::NumRange{lo, lo + static_cast<double>(rng.range(4, 32))});
    queries.push_back(std::move(q));
  }
  std::vector<SquidSystem::NodeId> origins;
  for (std::size_t i = 0; i < queries.size(); ++i)
    origins.push_back(sys.ring().random_node(rng));
  std::vector<AggregateSpec> specs(3);
  specs[0].kind = AggregateKind::kCount;
  specs[1].kind = AggregateKind::kSum;
  specs[1].dim = 1;
  specs[2].kind = AggregateKind::kTopK;
  specs[2].dim = 1;
  specs[2].k = 5;

  const auto answer = [&](std::size_t i) {
    FullAnswer a;
    a.elements = sorted_elements(sys.query(queries[i], origins[i]));
    for (const AggregateSpec& spec : specs)
      a.aggregates.push_back(
          *sys.query_aggregate(queries[i], spec, origins[i]).aggregate);
    return a;
  };
  // Every query answered with a valid root entry serving every dispatch,
  // then again by routing once the entry is dropped.
  const auto compare_served_to_routed = [&](std::uint64_t entry,
                                            const char* phase) {
    ASSERT_TRUE(sys.replica_valid(entry)) << phase;
    const auto serves_before = sys.replica_stats().serves;
    std::vector<FullAnswer> served;
    std::size_t answered = 0; // queries with at least one match
    for (std::size_t i = 0; i < queries.size(); ++i) {
      served.push_back(answer(i));
      answered += served.back().elements.empty() ? 0 : 1;
    }
    EXPECT_GT(sys.replica_stats().serves, serves_before) << phase;
    EXPECT_GT(answered, queries.size() / 2) << phase;
    ASSERT_TRUE(sys.drop_replica(entry));
    for (std::size_t i = 0; i < queries.size(); ++i)
      EXPECT_TRUE(served[i] == answer(i)) << phase << ": query " << i;
  };

  Rng host_rng(0x72);
  compare_served_to_routed(install_root_entry(sys, host_rng, 3), "installed");

  // Publish invalidates, refresh re-validates: the refreshed entry serves
  // the new elements.
  std::uint64_t entry = install_root_entry(sys, host_rng, 3);
  std::vector<DataElement> fresh;
  for (int i = 0; i < 20; ++i)
    fresh.push_back(
        DataElement{"fresh" + std::to_string(i),
                    {random_word(rng, letters), static_cast<double>(i)}});
  sys.publish_batch(fresh);
  EXPECT_FALSE(sys.replica_valid(entry));
  ASSERT_TRUE(sys.refresh_replica(entry));
  compare_served_to_routed(entry, "after publish + refresh");

  // Unpublish invalidates too; the refreshed entry never resurrects them.
  entry = install_root_entry(sys, host_rng, 3);
  for (const DataElement& e : fresh) ASSERT_TRUE(sys.unpublish(e));
  EXPECT_FALSE(sys.replica_valid(entry));
  ASSERT_TRUE(sys.refresh_replica(entry));
  compare_served_to_routed(entry, "after unpublish + refresh");
}

/// Twin worlds built identically; one carries the full reaction stack
/// (sampler + detector + DISABLED controller, fed every epoch), the other
/// nothing. Every query must agree bit-for-bit — the controller-off half
/// of the bit-transparency lock.
void expect_transparent(bool faulted) {
  World active = make_world(0x31, 40, 1200);
  World bare = make_world(0x31, 40, 1200);

  obs::EpochSampler sampler(32);
  active.sys->set_telemetry(&sampler);
  obs::HotspotConfig detector_config;
  ReactionConfig off;
  off.enabled = false;
  ReactionController controller(*active.sys, detector_config, off, 0x32);

  sim::FaultPlan plan;
  plan.seed = 0xfa11;
  plan.drop_probability = faulted ? 0.05 : 0.0;
  plan.delay_probability = faulted ? 0.1 : 0.0;
  plan.max_delay = 2;
  sim::FaultInjector active_injector(plan);
  sim::FaultInjector bare_injector(plan);
  if (faulted) {
    active.sys->set_fault_injector(&active_injector);
    bare.sys->set_fault_injector(&bare_injector);
  }

  Rng rng(0x33);
  const workload::FlashCrowdWorkload crowd(*active.corpus, {});
  std::uint64_t fed = 0;
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    const keyword::Query q = crowd.draw(trial, rng);
    const auto origin = active.sys->ring().random_node(rng);
    const auto a = active.sys->query(q, origin);
    const auto b = bare.sys->query(q, origin);
    EXPECT_EQ(names_of(a), names_of(b)) << "trial " << trial;
    EXPECT_EQ(a.stats.messages, b.stats.messages) << "trial " << trial;
    EXPECT_EQ(a.stats.critical_path_hops, b.stats.critical_path_hops)
        << "trial " << trial;
    EXPECT_EQ(a.stats.matches, b.stats.matches) << "trial " << trial;
    sampler.advance_to((trial + 1) * 16);
    // Feed the controller every closed epoch as they arrive, mid-workload —
    // exactly how an online deployment would run it.
    const obs::LoadSeries so_far = sampler.finish();
    for (; fed + 1 < so_far.epochs.size(); ++fed)
      controller.on_epoch(so_far.epochs[fed]);
    if (faulted) {
      ASSERT_EQ(active_injector.rng_draws(), bare_injector.rng_draws())
          << "trial " << trial;
    }
  }
  // Disabled means DISABLED: no splits, no entries, no ring mutations.
  EXPECT_EQ(controller.totals().splits, 0u);
  EXPECT_EQ(controller.totals().replications, 0u);
  EXPECT_EQ(active.sys->replica_entries(), 0u);
  EXPECT_EQ(active.sys->ring().size(), bare.sys->ring().size());
  active.sys->set_telemetry(nullptr);
  if (faulted) {
    active.sys->set_fault_injector(nullptr);
    bare.sys->set_fault_injector(nullptr);
  }
}

TEST(ReactionTransparency, DisabledControllerIsBitTransparent) {
  expect_transparent(/*faulted=*/false);
}

TEST(ReactionTransparency, DisabledControllerIsBitTransparentUnderFaults) {
  expect_transparent(/*faulted=*/true);
}

/// What one enabled run did, reduced to comparable numbers.
struct RunFingerprint {
  std::size_t splits = 0;
  std::size_t replications = 0;
  std::size_t drops = 0;
  std::size_t events = 0;
  std::size_t ring = 0;
  std::size_t entries = 0;

  bool operator==(const RunFingerprint& o) const {
    return splits == o.splits && replications == o.replications &&
           drops == o.drops && events == o.events && ring == o.ring &&
           entries == o.entries;
  }
};

enum class Mode { kLockstep, kVirtual, kParallel };

/// A scripted flash crowd (two calm epochs, six crowded ones) replayed in
/// one delivery mode with the controller enabled.
RunFingerprint run_reaction(Mode mode, unsigned shards) {
  World world = make_world(0x41, 40, 1500);
  obs::EpochSampler sampler(64);
  world.sys->set_telemetry(&sampler);

  const workload::FlashCrowdWorkload crowd(*world.corpus, {});
  Rng plan_rng(0x42);
  std::vector<std::vector<keyword::Query>> plan(8);
  std::vector<std::vector<overlay::NodeId>> origins(8);
  for (std::uint64_t e = 0; e < plan.size(); ++e) {
    const std::size_t n = e < 2 ? 8 : 32;
    for (std::size_t i = 0; i < n; ++i) {
      plan[e].push_back(e < 2 ? crowd.draw(0, plan_rng) : crowd.hot_query());
      origins[e].push_back(world.sys->ring().random_node(plan_rng));
    }
  }

  std::unique_ptr<ReactionController> controller;
  for (std::uint64_t epoch = 0; epoch < plan.size(); ++epoch) {
    switch (mode) {
      case Mode::kLockstep:
        for (std::size_t i = 0; i < plan[epoch].size(); ++i)
          world.sys->query(plan[epoch][i], origins[epoch][i]);
        break;
      case Mode::kVirtual: {
        sim::Engine engine;
        std::vector<QueryHandle> handles;
        for (std::size_t i = 0; i < plan[epoch].size(); ++i)
          handles.push_back(world.sys->query_async(plan[epoch][i],
                                                   origins[epoch][i], engine));
        engine.run();
        break;
      }
      case Mode::kParallel: {
        std::vector<ParallelQuerySpec> specs;
        for (std::size_t i = 0; i < plan[epoch].size(); ++i) {
          ParallelQuerySpec spec;
          spec.query = plan[epoch][i];
          spec.origin = origins[epoch][i];
          specs.push_back(std::move(spec));
        }
        ParallelOptions opts;
        opts.shards = shards;
        world.sys->query_parallel(specs, opts);
        break;
      }
    }
    sampler.advance_to((epoch + 1) * 64);
    const obs::LoadSeries so_far = sampler.finish();
    if (epoch == 1) {
      // Calibration boundary, as in bench/ext_hotspot: bring the
      // controller online and replay the calm epochs through it.
      obs::HotspotConfig hcfg;
      hcfg.min_load = obs::calibrated_min_load(
          hcfg.min_load, so_far, 2, world.sys->config().hotspot_min_load_factor);
      controller = std::make_unique<ReactionController>(*world.sys, hcfg,
                                                        ReactionConfig{}, 0x43);
      for (std::uint64_t i = 0; i <= epoch && i < so_far.epochs.size(); ++i)
        controller->on_epoch(so_far.epochs[i]);
    } else if (controller && epoch < so_far.epochs.size()) {
      controller->on_epoch(so_far.epochs[epoch]);
    }
  }
  world.sys->set_telemetry(nullptr);

  RunFingerprint fp;
  fp.splits = controller->totals().splits;
  fp.replications = controller->totals().replications;
  fp.drops = controller->totals().drops;
  fp.events = controller->detector().events().size();
  fp.ring = world.sys->ring().size();
  fp.entries = world.sys->replica_entries();
  return fp;
}

TEST(ReactionDeterminism, IdenticalAcrossModesAndShardCounts) {
  const RunFingerprint lockstep = run_reaction(Mode::kLockstep, 1);
  if constexpr (obs::kEnabled) {
    // The run must actually react, or the comparison proves nothing.
    EXPECT_GT(lockstep.replications + lockstep.splits, 0u);
  } else {
    // Telemetry compiled out: the controller never sees a hotspot, so the
    // contract is that it never reacts, in any mode.
    EXPECT_EQ(lockstep.replications + lockstep.splits, 0u);
  }
  EXPECT_TRUE(lockstep == run_reaction(Mode::kVirtual, 1)) << "virtual time";
  for (const unsigned shards : kWorkerCounts)
    EXPECT_TRUE(lockstep == run_reaction(Mode::kParallel, shards))
        << "parallel S=" << shards;
  // Same seed, same workload: byte-for-byte repeatable.
  EXPECT_TRUE(lockstep == run_reaction(Mode::kLockstep, 1)) << "repeat";
}

/// Synthetic epoch feeding: the controller only sees EpochSamples, so the
/// state machine can be driven without running a single query.
obs::EpochSample make_sample(std::uint64_t epoch,
                             const std::vector<overlay::NodeId>& nodes,
                             overlay::NodeId target,
                             obs::LoadVector target_load,
                             obs::LoadVector others) {
  obs::EpochSample sample;
  sample.epoch = epoch;
  for (const auto n : nodes)
    sample.nodes.emplace_back(n, n == target ? target_load : others);
  std::sort(sample.nodes.begin(), sample.nodes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return sample;
}

obs::LoadVector scan_load(std::uint64_t n) {
  obs::LoadVector v;
  v.scan_hits = n;
  return v;
}

TEST(ReactionStateMachine, SplitsReplicatesDrainsAndDrops) {
  World world = make_world(0x51, 16, 2000);
  // The heaviest owner has a median key to split at.
  overlay::NodeId target = 0;
  std::size_t heaviest = 0;
  for (const auto& [node, load] : world.sys->node_loads())
    if (load > heaviest) {
      heaviest = load;
      target = node;
    }

  ReactionController controller(*world.sys, obs::HotspotConfig{},
                                ReactionConfig{}, 0x52);
  const auto nodes = world.sys->ring().node_ids();
  const std::size_t ring_before = world.sys->ring().size();

  // Epoch 0: calm — baselines form, everyone cold.
  controller.on_epoch(make_sample(0, nodes, target, scan_load(10),
                                  scan_load(10)));
  EXPECT_EQ(controller.phase_of(target), ReactionController::Phase::kCold);

  // Epoch 1: the target runs hot on its own scans and the ring total
  // surges -> onset, split at the median key (the ring grows by one).
  controller.on_epoch(make_sample(1, nodes, target, scan_load(300),
                                  scan_load(10)));
  EXPECT_EQ(controller.phase_of(target), ReactionController::Phase::kSplit);
  EXPECT_EQ(controller.totals().splits, 1u);
  EXPECT_EQ(world.sys->ring().size(), ring_before + 1);

  // Epoch 2: still hot past kReplicateAfter -> the cluster is installed
  // on cold peers and served by them.
  controller.on_epoch(make_sample(2, nodes, target, scan_load(300),
                                  scan_load(10)));
  EXPECT_EQ(controller.phase_of(target),
            ReactionController::Phase::kReplicated);
  EXPECT_NE(controller.entry_of(target), 0u);
  EXPECT_EQ(world.sys->replica_entries(), 1u);
  EXPECT_EQ(controller.totals().replications, 1u);

  // Epoch 3: the owner cools (the replicas are carrying it) -> DRAIN, not
  // drop: the entry keeps serving.
  controller.on_epoch(make_sample(3, nodes, target, scan_load(2),
                                  scan_load(10)));
  EXPECT_EQ(controller.phase_of(target),
            ReactionController::Phase::kDraining);
  EXPECT_EQ(world.sys->replica_entries(), 1u);

  // Epoch 4: absorbed demand stayed nil for kDrainEpochs windows -> the
  // crowd is actually gone; the entry drops and the node is cold again.
  controller.on_epoch(make_sample(4, nodes, target, scan_load(2),
                                  scan_load(10)));
  EXPECT_EQ(controller.phase_of(target), ReactionController::Phase::kCold);
  EXPECT_EQ(world.sys->replica_entries(), 0u);
  EXPECT_EQ(controller.totals().drops, 1u);
}

TEST(ReactionStateMachine, TransitDominatedHeatGetsNoAction) {
  World world = make_world(0x61, 16, 1000);
  ReactionController controller(*world.sys, obs::HotspotConfig{},
                                ReactionConfig{}, 0x62);
  const auto nodes = world.sys->ring().node_ids();
  const auto target = nodes.front();
  const std::size_t ring_before = world.sys->ring().size();

  controller.on_epoch(make_sample(0, nodes, target, scan_load(10),
                                  scan_load(10)));
  // Hot purely on routing legs: somebody else's crowd is passing through.
  obs::LoadVector transit;
  transit.routes_through = 300;
  controller.on_epoch(make_sample(1, nodes, target, transit, scan_load(10)));
  EXPECT_EQ(controller.phase_of(target), ReactionController::Phase::kCold);
  EXPECT_EQ(controller.totals().splits, 0u);
  EXPECT_EQ(world.sys->ring().size(), ring_before);
  EXPECT_GT(controller.totals().onsets, 0u)
      << "the detector should still have fired; only the ACTION is gated";
}

TEST(ReactionStateMachine, ConstantVolumeShiftSkipsTheSplit) {
  World world = make_world(0x71, 16, 2000);
  overlay::NodeId target = 0;
  std::size_t heaviest = 0;
  for (const auto& [node, load] : world.sys->node_loads())
    if (load > heaviest) {
      heaviest = load;
      target = node;
    }
  // The calm hum here is 40 per node — above the default absolute floor —
  // so raise the floor the way calibration would (2 x the calm p95), or
  // every fresh node onsets against its zero baseline on the first epoch.
  obs::HotspotConfig hcfg;
  hcfg.min_load = 80;
  ReactionController controller(*world.sys, hcfg, ReactionConfig{}, 0x72);
  const auto nodes = world.sys->ring().node_ids();
  const std::size_t ring_before = world.sys->ring().size();

  // Calm epoch at a HIGH ring-wide total, so the later concentration is a
  // relocation of the same volume, not a surge.
  controller.on_epoch(make_sample(0, nodes, target, scan_load(40),
                                  scan_load(40)));
  controller.on_epoch(make_sample(1, nodes, target, scan_load(40),
                                  scan_load(40)));
  // The same aggregate volume, concentrated onto the target.
  controller.on_epoch(make_sample(2, nodes, target, scan_load(320),
                                  scan_load(20)));
  EXPECT_EQ(controller.phase_of(target), ReactionController::Phase::kSplit);
  EXPECT_EQ(controller.totals().splits, 0u)
      << "no capacity surge -> no split; replication handles relocation";
  EXPECT_EQ(world.sys->ring().size(), ring_before);
  // Escalation still replicates the next epoch.
  controller.on_epoch(make_sample(3, nodes, target, scan_load(320),
                                  scan_load(20)));
  EXPECT_EQ(controller.phase_of(target),
            ReactionController::Phase::kReplicated);
  EXPECT_EQ(controller.totals().replications, 1u);
}

TEST(ReactionStateMachine, HotHostsWidenTheReplicaSet) {
  World world = make_world(0x81, 32, 2000);
  overlay::NodeId target = 0;
  std::size_t heaviest = 0;
  for (const auto& [node, load] : world.sys->node_loads())
    if (load > heaviest) {
      heaviest = load;
      target = node;
    }
  ReactionController controller(*world.sys, obs::HotspotConfig{},
                                ReactionConfig{}, 0x82);
  const auto nodes = world.sys->ring().node_ids();

  controller.on_epoch(make_sample(0, nodes, target, scan_load(10),
                                  scan_load(10)));
  controller.on_epoch(make_sample(1, nodes, target, scan_load(300),
                                  scan_load(10)));
  controller.on_epoch(make_sample(2, nodes, target, scan_load(300),
                                  scan_load(10)));
  ASSERT_EQ(controller.phase_of(target),
            ReactionController::Phase::kReplicated);

  // Three quarters of the ring heats up on transit (the served crowd's
  // replies) — including, with this seed, at least one replica host. The
  // controller's remedy for borrowed load is widening the host set from
  // the still-cold quarter, never splitting the hosts themselves.
  obs::EpochSample sample;
  sample.epoch = 3;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    obs::LoadVector v;
    if (nodes[i] == target) {
      v = scan_load(300);
    } else if (i % 4 != 0) {
      v.routes_through = 300;
    } else {
      v = scan_load(10);
    }
    sample.nodes.emplace_back(nodes[i], v);
  }
  const std::size_t ring_before = world.sys->ring().size();
  controller.on_epoch(sample);
  EXPECT_GT(controller.totals().widens, 0u);
  EXPECT_EQ(world.sys->ring().size(), ring_before)
      << "borrowed/transit heat must never split";
  EXPECT_EQ(world.sys->replica_entries(), 1u);
}

/// The heaviest owner of a traced 32-node world, driven to kReplicated by
/// synthetic hot epochs 0-2. `serve_burst` runs Q1 queries from every peer
/// and returns the hosts that served: with the owner cache off, a kCacheHit
/// span is a dispatch a replica host answered.
struct ServedOwner {
  World world;
  overlay::NodeId target = 0;
  std::unique_ptr<ReactionController> controller;

  explicit ServedOwner(std::uint64_t seed) : world(make_world(seed, 32, 2000)) {
    world.sys->set_tracing(true);
    std::size_t heaviest = 0;
    for (const auto& [node, load] : world.sys->node_loads())
      if (load > heaviest) {
        heaviest = load;
        target = node;
      }
    controller = std::make_unique<ReactionController>(
        *world.sys, obs::HotspotConfig{}, ReactionConfig{}, seed + 1);
    const auto nodes = world.sys->ring().node_ids();
    controller->on_epoch(make_sample(0, nodes, target, scan_load(10),
                                     scan_load(10)));
    controller->on_epoch(make_sample(1, nodes, target, scan_load(300),
                                     scan_load(10)));
    controller->on_epoch(make_sample(2, nodes, target, scan_load(300),
                                     scan_load(10)));
  }

  std::set<SquidSystem::NodeId> serve_burst() const {
    std::set<SquidSystem::NodeId> hosts;
    for (const auto origin : world.sys->ring().node_ids())
      for (std::size_t rank = 0; rank < 24; ++rank) {
        const QueryResult r =
            world.sys->query(world.corpus->q1(rank, true), origin);
        for (const obs::Span& span : r.trace->spans)
          if (span.kind == obs::SpanKind::kCacheHit) hosts.insert(span.node);
      }
    return hosts;
  }
};

TEST(ReactionStateMachine, DepartedHostsAreReplaced) {
  // Every host of a served entry fails. A departed host never runs hot, so
  // widening never replaces it; the next hot epoch's maintenance must swap
  // in live cold peers so the cluster is served again. The hosts are found
  // from traced replica dispatches, so there is nothing to find with the
  // obs layer compiled out.
  if (!obs::kEnabled) GTEST_SKIP() << "obs layer compiled out";
  ServedOwner fx(0x91);
  ReactionController& controller = *fx.controller;
  SquidSystem& sys = *fx.world.sys;
  ASSERT_EQ(controller.phase_of(fx.target),
            ReactionController::Phase::kReplicated);

  const std::set<SquidSystem::NodeId> hosts = fx.serve_burst();
  ASSERT_FALSE(hosts.empty()) << "the fresh entry should serve";
  for (const auto host : hosts) sys.fail_node(host);
  sys.repair_routing();
  ASSERT_TRUE(fx.serve_burst().empty()) << "every host has departed";

  // The owner stays hot: the controller replaces the departed hosts.
  const auto live = sys.ring().node_ids();
  controller.on_epoch(make_sample(3, live, fx.target, scan_load(300),
                                  scan_load(10)));
  EXPECT_EQ(controller.phase_of(fx.target),
            ReactionController::Phase::kReplicated);
  const auto serves_before = sys.replica_stats().serves;
  const std::set<SquidSystem::NodeId> replaced = fx.serve_burst();
  EXPECT_GT(sys.replica_stats().serves, serves_before)
      << "the entry must serve again from live hosts";
  for (const auto host : replaced) EXPECT_TRUE(sys.ring().contains(host));
}

TEST(ReactionStateMachine, SurvivingHostsKeepTheirBorrowedLoadGuard) {
  // Half the hosts of a served entry fail. Replacing them must un-count the
  // departed hosts only: a surviving host still hosts the entry, so when it
  // runs hot on the demand it serves, its onset is borrowed load and gets
  // no split (it stays kCold), exactly as before the failures.
  if (!obs::kEnabled) GTEST_SKIP() << "obs layer compiled out";
  ServedOwner fx(0xa1);
  ReactionController& controller = *fx.controller;
  SquidSystem& sys = *fx.world.sys;
  ASSERT_EQ(controller.phase_of(fx.target),
            ReactionController::Phase::kReplicated);

  const std::set<SquidSystem::NodeId> hosts = fx.serve_burst();
  ASSERT_GE(hosts.size(), 2u) << "need a failed and a surviving host";
  std::vector<SquidSystem::NodeId> survivors;
  bool fail = true;
  for (const auto host : hosts) {
    if (fail) sys.fail_node(host);
    else survivors.push_back(host);
    fail = !fail;
  }
  sys.repair_routing();

  const auto live = sys.ring().node_ids();
  controller.on_epoch(make_sample(3, live, fx.target, scan_load(300),
                                  scan_load(10)));
  ASSERT_EQ(controller.phase_of(fx.target),
            ReactionController::Phase::kReplicated);

  // The survivors run hot on their own scans (the served crowd).
  obs::EpochSample sample;
  sample.epoch = 4;
  for (const auto n : live) {
    const bool hot = n == fx.target ||
                     std::find(survivors.begin(), survivors.end(), n) !=
                         survivors.end();
    sample.nodes.emplace_back(n, scan_load(hot ? 300 : 10));
  }
  std::sort(sample.nodes.begin(), sample.nodes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::size_t ring_before = sys.ring().size();
  const std::size_t onsets_before = controller.totals().onsets;
  controller.on_epoch(sample);
  EXPECT_GE(controller.totals().onsets, onsets_before + survivors.size())
      << "every survivor should have fired an onset";
  for (const auto host : survivors)
    EXPECT_EQ(controller.phase_of(host), ReactionController::Phase::kCold)
        << "surviving host " << to_string(host) << " lost its hosted count";
  EXPECT_EQ(sys.ring().size(), ring_before)
      << "borrowed load must never split a host";
}

} // namespace
} // namespace squid::core
