#include "squid/obs/hotspot.hpp"

#include <algorithm>

namespace squid::obs {

const char* hotspot_event_name(HotspotEvent::Kind kind) noexcept {
  return kind == HotspotEvent::Kind::kOnset ? "hotspot.onset"
                                            : "hotspot.clear";
}

HotspotDetector::HotspotDetector(HotspotConfig config, Registry* registry)
    : config_(config),
      registry_(registry != nullptr ? registry : &Registry::global()) {}

std::vector<HotspotEvent> HotspotDetector::observe(const EpochSample& sample) {
  std::vector<HotspotEvent> fired;
  // Nodes absent from this window still get judged at load 0 (a hot node
  // that went quiet must clear); walk the union of known and windowed
  // nodes. Both maps are sorted by id, so a two-pointer merge does it.
  auto known = nodes_.begin();
  const auto judge = [&](overlay::NodeId node, double load) {
    NodeState& state = nodes_[node]; // inserts baseline=0 for new nodes
    state.last_load = load;
    bool transition = false;
    if (!state.hot) {
      // A fresh node's baseline is 0: any load over the absolute floor is
      // an onset — a previously quiet peer suddenly carrying real load IS
      // the signal, not noise.
      if (load >= config_.min_load &&
          load > config_.onset_factor * state.baseline) {
        state.hot = true;
        ++active_;
        fired.push_back({HotspotEvent::Kind::kOnset, sample.epoch, node, load,
                         state.baseline});
        transition = true;
      }
    } else if (load <= config_.clear_factor * state.baseline ||
               load < config_.min_load) {
      state.hot = false;
      --active_;
      fired.push_back({HotspotEvent::Kind::kClear, sample.epoch, node, load,
                       state.baseline});
      transition = true;
    }
    // EWMA update — but frozen while hot, so the alarm cannot adapt itself
    // away mid-crowd; the clear above compares against the pre-crowd level.
    if (!state.hot)
      state.baseline =
          config_.alpha * load + (1.0 - config_.alpha) * state.baseline;
    (void)transition;
  };
  // Iterating nodes_ while judge() may insert: collect the union up front.
  std::vector<std::pair<overlay::NodeId, double>> window;
  window.reserve(nodes_.size() + sample.nodes.size());
  auto in_window = sample.nodes.begin();
  while (known != nodes_.end() || in_window != sample.nodes.end()) {
    if (in_window == sample.nodes.end() ||
        (known != nodes_.end() && known->first < in_window->first)) {
      window.emplace_back(known->first, 0.0);
      ++known;
    } else {
      if (known != nodes_.end() && known->first == in_window->first) ++known;
      window.emplace_back(in_window->first,
                          static_cast<double>(in_window->second.total()));
      ++in_window;
    }
  }
  for (const auto& [node, load] : window) judge(node, load);

  if constexpr (kEnabled) {
    std::uint64_t onsets = 0;
    std::uint64_t clears = 0;
    for (const HotspotEvent& e : fired)
      (e.kind == HotspotEvent::Kind::kOnset ? onsets : clears) += 1;
    if (onsets > 0)
      registry_->counter("squid.balance.hotspot.onsets").add(onsets);
    if (clears > 0)
      registry_->counter("squid.balance.hotspot.clears").add(clears);
    registry_->gauge("squid.balance.hotspot.active")
        .set(static_cast<double>(active_));
  }
  events_.insert(events_.end(), fired.begin(), fired.end());
  return fired;
}

bool HotspotDetector::is_hot(overlay::NodeId node) const {
  const auto it = nodes_.find(node);
  return it != nodes_.end() && it->second.hot;
}

double HotspotDetector::baseline_of(overlay::NodeId node) const {
  const auto it = nodes_.find(node);
  return it != nodes_.end() ? it->second.baseline : 0.0;
}

double calibrated_min_load(double base, const LoadSeries& series,
                           std::uint64_t through_epoch, double factor) {
  std::vector<double> totals;
  for (const EpochSample& sample : series.epochs) {
    if (sample.epoch >= through_epoch) break;
    for (const auto& [node, load] : sample.nodes)
      totals.push_back(static_cast<double>(load.total()));
  }
  if (totals.empty()) return base;
  std::sort(totals.begin(), totals.end());
  const std::size_t rank =
      std::min(totals.size() - 1,
               static_cast<std::size_t>(0.95 * static_cast<double>(totals.size())));
  return std::max(base, factor * totals[rank]);
}

void HotspotDetector::observe_all(const LoadSeries& series) {
  for (const EpochSample& sample : series.epochs) observe(sample);
}

std::vector<HotspotDetector::HotNode> HotspotDetector::top_hot(
    std::size_t k) const {
  std::vector<HotNode> all;
  all.reserve(nodes_.size());
  for (const auto& [node, state] : nodes_)
    all.push_back({node, state.last_load, state.baseline, state.hot});
  std::sort(all.begin(), all.end(), [](const HotNode& a, const HotNode& b) {
    if (a.load != b.load) return a.load > b.load;
    return a.node < b.node;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

std::optional<std::uint64_t> HotspotDetector::detection_latency(
    std::uint64_t onset_epoch) const {
  for (const HotspotEvent& e : events_) {
    if (e.kind == HotspotEvent::Kind::kOnset && e.epoch >= onset_epoch)
      return e.epoch - onset_epoch;
  }
  return std::nullopt;
}

} // namespace squid::obs
