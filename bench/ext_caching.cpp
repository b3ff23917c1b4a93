// Hot-spot extension bench: a Zipf-repeating query workload under each of
// the two dispatch shortcuts — the seed's cluster-owner cache and the
// reaction loop's hot-cluster replica cache (docs/LOAD_BALANCING.md) — and
// under neither: messages, peers touched, and what each cache did.
//
// The replica arm keeps the owner cache off and closes the hotspot loop
// with an EpochSampler + ReactionController at default config, one epoch
// per kEpochQueries queries. As in bench/ext_hotspot, the detector floor is
// calibrated on the first kCalibrationEpochs epochs, then the controller
// comes online and replays them.

#include <memory>

#include "common/fixture.hpp"
#include "common/query_sets.hpp"
#include "squid/core/reaction.hpp"
#include "squid/obs/hotspot.hpp"
#include "squid/obs/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace squid;
  using namespace squid::bench;
  const Flags flags = Flags::parse(argc, argv);
  const ScalePoint scale = paper_scales(flags)[1]; // 2000 nodes / 4e4 keys
  constexpr int kWorkload = 300;                   // queries per run
  constexpr int kEpochQueries = 25;
  constexpr std::uint64_t kCalibrationEpochs = 4;
  constexpr sim::Time kEpochTicks = 256; // lockstep queries fit well inside

  enum class Arm { kNone, kOwnerCache, kReplicaCache };
  Table table({"variant", "messages", "routing nodes", "hit rate %",
               "replications", "splits", "replica serves"});
  for (const Arm arm : {Arm::kNone, Arm::kOwnerCache, Arm::kReplicaCache}) {
    core::SquidConfig config = balanced_config();
    config.cache_cluster_owners = arm == Arm::kOwnerCache;
    KeywordFixture fx = build_keyword_fixture(2, scale, flags.seed, config);
    const auto queries = q1_queries(fx);
    Rng rng(flags.seed ^ 0xcac4e);
    ZipfSampler popularity(queries.size(), 1.1);
    obs::EpochSampler sampler(kEpochTicks);
    if (arm == Arm::kReplicaCache) fx.sys->set_telemetry(&sampler);
    std::unique_ptr<core::ReactionController> controller;

    double messages = 0, routing = 0;
    for (int i = 0; i < kWorkload; ++i) {
      const auto& nq = queries[popularity.sample(rng)];
      const auto result =
          fx.sys->query(nq.query, fx.sys->ring().random_node(rng));
      messages += static_cast<double>(result.stats.messages);
      routing += static_cast<double>(result.stats.routing_nodes);
      if (arm != Arm::kReplicaCache || (i + 1) % kEpochQueries != 0) continue;

      // Epoch close: a safe point, no query in flight.
      const auto epoch = static_cast<std::uint64_t>(i / kEpochQueries);
      sampler.advance_to(static_cast<sim::Time>(epoch + 1) * kEpochTicks);
      const obs::LoadSeries so_far = sampler.finish();
      if (epoch + 1 == kCalibrationEpochs) {
        obs::HotspotConfig hcfg;
        hcfg.min_load =
            obs::calibrated_min_load(hcfg.min_load, so_far, kCalibrationEpochs,
                                     fx.sys->config().hotspot_min_load_factor);
        controller = std::make_unique<core::ReactionController>(
            *fx.sys, hcfg, core::ReactionConfig{}, flags.seed ^ 0xbead);
        for (std::uint64_t e = 0; e <= epoch && e < so_far.epochs.size(); ++e)
          controller->on_epoch(so_far.epochs[e]);
      } else if (controller && epoch < so_far.epochs.size()) {
        controller->on_epoch(so_far.epochs[epoch]);
      }
    }
    fx.sys->set_telemetry(nullptr);

    const auto& stats = fx.sys->cache_stats();
    const double rate =
        stats.hits + stats.misses == 0
            ? 0.0
            : 100.0 * static_cast<double>(stats.hits) /
                  static_cast<double>(stats.hits + stats.misses);
    const core::ReactionReport totals =
        controller ? controller->totals() : core::ReactionReport{};
    const char* name = arm == Arm::kNone         ? "no cache"
                       : arm == Arm::kOwnerCache ? "owner cache"
                                                 : "replica cache";
    table.add_row({name, Table::cell(messages / kWorkload),
                   Table::cell(routing / kWorkload), Table::cell(rate),
                   Table::cell(std::uint64_t{totals.replications}),
                   Table::cell(std::uint64_t{totals.splits}),
                   Table::cell(fx.sys->replica_stats().serves)});
  }
  emit("Owner cache vs replica cache under a repeating workload", table,
       flags);
  return 0;
}
