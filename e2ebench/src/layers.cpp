#include "layers.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "squid/core/serialize.hpp"
#include "squid/obs/trace.hpp"
#include "squid/sfc/refine.hpp"
#include "squid/sim/engine.hpp"

namespace e2e {

namespace {

constexpr std::size_t kDecomposeCap = 4096;
/// decompose_capped materializes up to 4096 segments centrally and costs
/// several milliseconds on a Q3 box, far more than the distributed
/// refinement it stands in for; the first kDecomposeSample traced queries
/// carry the sfc.decompose_* figures.
constexpr std::uint64_t kDecomposeSample = 256;
constexpr sim::Time kReplayEpochTicks = 256;
/// Replayed epochs per private sampler: finish() materializes the whole
/// series, so the sampler restarts every cycle (kw-crowd's cycle length)
/// to keep each close the cost of one epoch, not of the run so far.
constexpr std::uint64_t kReplayCycle = 24;

double per(double total, double n) { return n == 0 ? 0.0 : total / n; }

} // namespace

// --- SpanLog ------------------------------------------------------------------

std::int32_t SpanLog::add(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns, std::int32_t parent,
                          std::uint64_t op) {
  if (spans_.size() >= kCap) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, start_ns, end_ns, parent, op});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

bool SpanLog::write(const std::string& path, const std::string& process) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"otherData\": {\"process\": \"%s\", \"spans\": %zu, "
                  "\"dropped\": %zu},\n\"traceEvents\": [\n",
               process.c_str(), spans_.size(), dropped_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"op\": %llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- LayerProbe -----------------------------------------------------------------

void LayerProbe::on_query(const core::SquidSystem& sys,
                          const keyword::Query& query,
                          const core::QueryResult& result, std::int64_t t0,
                          std::int64_t t1) {
  ++queries_;
  query_ns_ += t1 - t0;
  const std::int32_t parent = spans_.add("query", t0, t1, -1, queries_);

  // keyword: query -> rectangle.
  std::int64_t a = now_ns();
  const sfc::Rect rect = sys.space().to_rect(query);
  std::int64_t b = now_ns();
  to_rect_ns_ += b - a;
  spans_.add("keyword.to_rect", a, b, parent, queries_);

  // sfc: the rectangle's cluster decomposition (sampled).
  if (decomposed_ < kDecomposeSample) {
    const sfc::ClusterRefiner refiner(sys.curve());
    a = now_ns();
    const std::vector<sfc::Segment> segments =
        refiner.decompose_capped(rect, kDecomposeCap);
    b = now_ns();
    ++decomposed_;
    decompose_ns_ += b - a;
    segments_ += segments.size();
    spans_.add("sfc.decompose_capped", a, b, parent, queries_);
  }

  // Counts from the library's own trace; route legs collected for replay.
  std::vector<std::pair<overlay::NodeId, overlay::NodeId>> legs;
  if (result.trace) {
    const obs::Trace& trace = *result.trace;
    for (const obs::Span& span : trace.spans) {
      switch (span.kind) {
      case obs::SpanKind::kRefineDescend: ++descends_; break;
      case obs::SpanKind::kPrune: ++prunes_; break;
      case obs::SpanKind::kClusterDispatch:
        ++dispatches_;
        dispatched_clusters_ += span.batch;
        break;
      case obs::SpanKind::kAggregationMerge: ++merges_; break;
      case obs::SpanKind::kLocalScan:
        keys_scanned_ += span.keys_scanned;
        keys_matched_ += span.keys_matched;
        if (sampler_)
          sampler_->record_now(span.node, obs::LoadKind::kScanHit,
                               span.keys_matched);
        break;
      case obs::SpanKind::kRouteHop:
        route_hops_ += span.hops;
        if (span.path_end > span.path_begin) {
          legs.emplace_back(trace.nodes[span.path_begin],
                            trace.nodes[span.path_end - 1]);
          if (sampler_)
            for (std::uint32_t i = span.path_begin; i < span.path_end; ++i)
              sampler_->record_now(trace.nodes[i],
                                   obs::LoadKind::kRouteThrough, 1);
        }
        break;
      default: break;
      }
    }
  }

  // overlay: replay every traced routing leg.
  // The replayed calls live in the library's translation units, so their
  // results may be discarded without the calls being optimized away.
  a = now_ns();
  for (const auto& [from, dest] : legs) (void)sys.ring().route(from, dest);
  b = now_ns();
  routes_ += legs.size();
  route_ns_ += b - a;
  query_route_ns_ += b - a;
  spans_.add("overlay.route", a, b, parent, queries_);

  // codec: the bytes_shipped accounting walk, then a full Reply round trip.
  a = now_ns();
  for (const core::DataElement& e : result.elements)
    (void)core::element_wire_size(e);
  b = now_ns();
  wire_size_ns_ += b - a;
  spans_.add("codec.element_wire_size", a, b, parent, queries_);

  core::msg::Reply reply;
  reply.complete = result.complete;
  reply.count = result.elements.size();
  reply.elements = result.elements;
  std::ostringstream out;
  a = now_ns();
  const std::size_t bytes = core::save_message(core::msg::Message{reply}, out);
  b = now_ns();
  encode_ns_ += b - a;
  spans_.add("codec.save_message", a, b, parent, queries_);
  std::istringstream in(out.str());
  a = now_ns();
  (void)core::load_message(in);
  b = now_ns();
  decode_ns_ += b - a;
  codec_bytes_ += bytes;
  spans_.add("codec.load_message", a, b, parent, queries_);

  // runtime: one engine event per query message.
  sim::Engine engine;
  const std::size_t events = result.stats.messages;
  a = now_ns();
  for (std::size_t i = 0; i < events; ++i) engine.schedule(0, [] {});
  engine.run();
  b = now_ns();
  engine_ns_ += b - a;
  engine_events_ += events;
  spans_.add("sim.engine", a, b, parent, queries_);
}

void LayerProbe::on_updates(const core::SquidSystem& sys,
                            const std::vector<core::UpdateOp>& ops,
                            const core::UpdateRun& run, std::int64_t t0,
                            std::int64_t t1) {
  update_ops_ += ops.size();
  update_frames_ += run.messages;
  update_retries_ += run.retries;
  const std::int32_t parent = spans_.add("apply_updates", t0, t1, -1, update_ops_);

  std::vector<u128> keys;
  std::vector<core::msg::Message> frames;
  keys.reserve(ops.size());
  frames.reserve(ops.size());
  for (std::size_t seq = 0; seq < ops.size(); ++seq) {
    const core::UpdateOp& op = ops[seq];
    keys.push_back(element_index(sys, op.element));
    const overlay::NodeId owner = sys.owner_of(keys.back());
    if (op.kind == core::UpdateOp::Kind::kPublish)
      frames.emplace_back(core::msg::PublishRequest{seq, op.origin, owner,
                                                    op.element, 0, -1});
    else
      frames.emplace_back(core::msg::RetractRequest{seq, op.origin, owner,
                                                    op.element, 0, -1});
  }

  std::int64_t a = now_ns();
  for (std::size_t i = 0; i < ops.size(); ++i)
    (void)sys.ring().route(ops[i].origin, keys[i]);
  std::int64_t b = now_ns();
  routes_ += ops.size();
  route_ns_ += b - a;
  spans_.add("overlay.route", a, b, parent, update_ops_);

  std::ostringstream out;
  std::size_t bytes = 0;
  a = now_ns();
  for (const core::msg::Message& m : frames) bytes += core::save_message(m, out);
  b = now_ns();
  encode_ns_ += b - a;
  spans_.add("codec.save_message", a, b, parent, update_ops_);
  std::istringstream in(out.str());
  a = now_ns();
  for (std::size_t i = 0; i < frames.size(); ++i) (void)core::load_message(in);
  b = now_ns();
  decode_ns_ += b - a;
  codec_bytes_ += bytes;
  spans_.add("codec.load_message", a, b, parent, update_ops_);
}

void LayerProbe::begin_round(const core::SquidSystem& sys) {
  merges_at_begin_ = sys.store_stats().merges;
}

void LayerProbe::end_round(const core::SquidSystem& sys) {
  ++rounds_;
  store_merges_ += sys.store_stats().merges - merges_at_begin_;
  delta_size_sum_ += sys.store_delta_size();
  std::uint64_t visited = 0;
  const std::int64_t a = now_ns();
  sys.for_each_key([&visited](u128, const sfc::Point&,
                              const std::vector<core::DataElement>&) {
    ++visited;
  });
  const std::int64_t b = now_ns();
  sweep_ns_ += b - a;
  swept_keys_ += visited;
  spans_.add("store.for_each_key", a, b, -1, rounds_);
}

void LayerProbe::enable_epoch_replay() {
  sampler_ = std::make_unique<obs::EpochSampler>(kReplayEpochTicks);
  replay_epoch_ = 0;
}

void LayerProbe::replay_epoch(core::SquidSystem& sys) {
  if (!sampler_) return;
  if (controller_sys_ != &sys || replay_epoch_ == 0) {
    core::ReactionConfig detect_only;
    detect_only.enabled = false;
    controller_ = std::make_unique<core::ReactionController>(
        sys, obs::HotspotConfig{}, detect_only, 1);
    controller_sys_ = &sys;
  }
  std::int64_t a = now_ns();
  sampler_->advance_to((replay_epoch_ + 1) * kReplayEpochTicks);
  const obs::LoadSeries series = sampler_->finish();
  std::int64_t b = now_ns();
  add_epoch_close(a, b);
  if (replay_epoch_ < series.epochs.size()) {
    a = now_ns();
    (void)controller_->on_epoch(series.epochs[replay_epoch_]);
    b = now_ns();
    add_on_epoch(a, b);
  }
  if (++replay_epoch_ == kReplayCycle) enable_epoch_replay();
}

void LayerProbe::add_epoch_close(std::int64_t start_ns, std::int64_t end_ns) {
  epoch_close_ns_ += end_ns - start_ns;
  spans_.add("obs.epoch_close", start_ns, end_ns, -1, ++epoch_closes_);
}

void LayerProbe::add_on_epoch(std::int64_t start_ns, std::int64_t end_ns) {
  on_epoch_ns_ += end_ns - start_ns;
  spans_.add("reaction.on_epoch", start_ns, end_ns, -1, ++on_epochs_);
}

void LayerProbe::add_reaction(const Reaction& r) {
  reaction_.splits += r.splits;
  reaction_.replications += r.replications;
  reaction_.replica_serves += r.replica_serves;
  reaction_.stale_skips += r.stale_skips;
}

void LayerProbe::report(Report& out, double overhead_frac,
                        const std::string& epoch_note) const {
  const auto q = static_cast<double>(queries_);
  const auto d = [](auto v) { return static_cast<double>(v); };
  out.add("keyword.to_rect_us", per(d(to_rect_ns_), q) / 1e3, "us", Kind::kWall);
  out.add("sfc.refine_descends_per_query", per(d(descends_), q), "count",
          Kind::kExact);
  out.add("sfc.prunes_per_query", per(d(prunes_), q), "count", Kind::kExact);
  const std::string sample =
      "decompose_capped(rect, 4096), first " + std::to_string(decomposed_) +
      " queries";
  out.add("sfc.decompose_us", per(d(decompose_ns_), d(decomposed_)) / 1e3, "us",
          Kind::kWall, sample);
  out.add("sfc.segments_per_query", per(d(segments_), d(decomposed_)), "count",
          Kind::kExact, sample);
  out.add("overlay.route_hops_per_query", per(d(route_hops_), q), "count",
          Kind::kExact);
  out.add("overlay.route_ns", per(d(route_ns_), d(routes_)), "ns", Kind::kWall,
          std::to_string(routes_) + " replayed routes");
  out.add("store.keys_scanned_per_query", per(d(keys_scanned_), q), "count",
          Kind::kExact);
  out.add("store.keys_matched_per_query", per(d(keys_matched_), q), "count",
          Kind::kExact);
  out.add("store.match_ratio", per(d(keys_matched_), d(keys_scanned_)), "ratio",
          Kind::kExact, "matched / scanned");
  const double sweep_ns_per_key = per(d(sweep_ns_), d(swept_keys_));
  out.add("store.sweep_ns_per_key", sweep_ns_per_key, "ns", Kind::kWall);
  out.add("store.merges_per_round", per(d(store_merges_), d(rounds_)), "count",
          Kind::kExact);
  out.add("store.delta_size", per(d(delta_size_sum_), d(rounds_)), "count",
          Kind::kExact, "mean at round end");
  out.add("codec.wire_size_us_per_query", per(d(wire_size_ns_), q) / 1e3, "us",
          Kind::kWall);
  out.add("codec.encode_ns_per_byte", per(d(encode_ns_), d(codec_bytes_)),
          "ns/B", Kind::kWall);
  out.add("codec.decode_ns_per_byte", per(d(decode_ns_), d(codec_bytes_)),
          "ns/B", Kind::kWall);
  out.add("runtime.dispatches_per_query", per(d(dispatches_), q), "count",
          Kind::kExact);
  out.add("runtime.merges_per_query", per(d(merges_), q), "count", Kind::kExact);
  out.add("runtime.clusters_per_dispatch",
          per(d(dispatched_clusters_), d(dispatches_)), "count", Kind::kExact);
  out.add("runtime.engine_ns_per_event", per(d(engine_ns_), d(engine_events_)),
          "ns", Kind::kWall);
  out.add("update.frames_per_op", per(d(update_frames_), d(update_ops_)),
          "count", Kind::kExact);
  out.add("update.retries", d(update_retries_), "count", Kind::kExact,
          "0 without faults");
  out.add("reaction.splits", d(reaction_.splits), "count", Kind::kExact);
  out.add("reaction.replications", d(reaction_.replications), "count",
          Kind::kExact);
  out.add("reaction.replica_serves_per_query", per(d(reaction_.replica_serves), q),
          "count", Kind::kExact);
  out.add("reaction.stale_skips", d(reaction_.stale_skips), "count",
          Kind::kExact);
  out.add("reaction.on_epoch_us", per(d(on_epoch_ns_), d(on_epochs_)) / 1e3,
          "us", Kind::kWall, epoch_note);
  out.add("obs.epoch_close_us", per(d(epoch_close_ns_), d(epoch_closes_)) / 1e3,
          "us", Kind::kWall, epoch_note);
  out.add("obs.trace_overhead_frac", overhead_frac, "ratio", Kind::kWall,
          "traced / untraced time in query(), same inputs, minus 1");
  // decompose_capped is left out: the engine never decomposes centrally.
  const double attributed =
      d(to_rect_ns_ + query_route_ns_ + wire_size_ns_ + engine_ns_) +
      sweep_ns_per_key * d(keys_scanned_);
  out.add("unattributed_frac", 1.0 - per(attributed, d(query_ns_)), "ratio",
          Kind::kWall,
          "1 - (to_rect + route replays + keys scanned x sweep cost + "
          "wire_size + engine replay) / query() time");
}

} // namespace e2e
