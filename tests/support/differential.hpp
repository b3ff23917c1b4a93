// The shared differential harness: the one definition of "same results"
// that every bit-identicality lock uses. It holds the 9-config engine
// matrix, the worker counts, the two-letter-space worlds, the random letter
// query, the brute-force oracle, the brute-force store model, the span
// fingerprint and the two result comparers. Suites keep only their own
// checks (well-formed traces, fault counters, aggregate folds).

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "squid/core/system.hpp"
#include "squid/obs/metrics.hpp" // defines the SQUID_OBS_ENABLED default
#include "squid/obs/trace.hpp"
#include "squid/util/rng.hpp"

namespace squid::testing_support {

using core::DataElement;
using core::QueryResult;
using core::SquidConfig;
using core::SquidSystem;

// --- Engine matrix and worker counts -----------------------------------------

/// curve, finger_base, aggregate_subclusters, cache_cluster_owners.
using EngineConfig = std::tuple<std::string, unsigned, bool, bool>;

/// The nine query-plane configurations every lock sweeps: all three curve
/// families, finger bases {2, 4, 8, 16}, aggregation and owner caching on
/// and off.
inline const std::vector<EngineConfig> kEngineMatrix = {
    {"hilbert", 2, true, false}, {"hilbert", 2, false, false},
    {"hilbert", 2, true, true},  {"hilbert", 8, true, false},
    {"hilbert", 8, true, true},  {"zorder", 2, true, false},
    {"zorder", 4, false, true},  {"gray", 2, true, false},
    {"gray", 16, true, true},
};

inline SquidConfig config_of(const EngineConfig& engine) {
  const auto& [curve, finger_base, aggregate, cache] = engine;
  SquidConfig config;
  config.curve = curve;
  config.finger_base = finger_base;
  config.aggregate_subclusters = aggregate;
  config.cache_cluster_owners = cache;
  return config;
}

/// A matrix row's label, e.g. "hilbert_b2_agg_nocache".
inline std::string config_label(const EngineConfig& engine) {
  const auto& [curve, finger_base, aggregate, cache] = engine;
  return curve + "_b" + std::to_string(finger_base) +
         (aggregate ? "_agg" : "_noagg") + (cache ? "_cache" : "_nocache");
}

/// gtest name generator for suites parameterized over kEngineMatrix.
inline std::string config_name(
    const ::testing::TestParamInfo<EngineConfig>& info) {
  return config_label(info.param);
}

/// Worker counts for every query_parallel and apply_updates lock.
inline constexpr unsigned kWorkerCounts[] = {1, 2, 4};

// --- Two-letter-space worlds -------------------------------------------------

/// Both dimensions are StringCodec(letters, 3); element i is named
/// name + i and carries one random word per dimension.
struct LetterShape {
  std::string_view letters = "abcde";
  std::size_t nodes = 35;
  std::size_t elements = 400;
  std::string_view name = "e";
};

inline keyword::KeywordSpace letter_space(std::string_view letters) {
  const std::string alphabet(letters);
  return keyword::KeywordSpace(
      {keyword::StringCodec(alphabet, 3), keyword::StringCodec(alphabet, 3)});
}

/// A word of 1 to 3 letters drawn uniformly from `letters`.
inline std::string random_word(Rng& rng, std::string_view letters) {
  std::string word;
  for (std::uint64_t j = rng.range(1, 3); j-- > 0;)
    word.push_back(letters[rng.below(letters.size())]);
  return word;
}

inline DataElement random_letter_element(Rng& rng, std::string_view letters,
                                         std::string name) {
  std::string a = random_word(rng, letters);
  std::string b = random_word(rng, letters);
  return DataElement{std::move(name), {std::move(a), std::move(b)}};
}

struct LetterWorld {
  std::unique_ptr<SquidSystem> sys;
  std::vector<DataElement> all; ///< every published element, in order
};

/// One system whose network and corpus both draw from `rng`; callers keep
/// drawing queries and origins from the same stream.
inline LetterWorld make_letter_world(Rng& rng, const LetterShape& shape = {},
                                     SquidConfig config = {}) {
  LetterWorld world{std::make_unique<SquidSystem>(letter_space(shape.letters),
                                                  std::move(config)),
                    {}};
  world.sys->build_network(shape.nodes, rng);
  for (std::size_t i = 0; i < shape.elements; ++i) {
    world.all.push_back(random_letter_element(
        rng, shape.letters, std::string(shape.name) + std::to_string(i)));
    world.sys->publish(world.all.back());
  }
  return world;
}

/// Two systems with one topology and one corpus, so a difference in their
/// answers can only come from how they run queries.
struct TwinWorld {
  std::unique_ptr<SquidSystem> live; ///< runs the path under test
  std::unique_ptr<SquidSystem> ref;  ///< runs the path it is locked to
};

/// Both systems build `nodes` peers from Rng(net_seed); make_element(rng, i)
/// draws element i from one shared Rng(data_seed) stream and both publish it.
template <class MakeElement>
TwinWorld make_twin(const keyword::KeywordSpace& space,
                    const SquidConfig& config, std::size_t nodes,
                    std::uint64_t net_seed, std::uint64_t data_seed,
                    std::size_t elements, MakeElement&& make_element) {
  TwinWorld world{std::make_unique<SquidSystem>(space, config),
                  std::make_unique<SquidSystem>(space, config)};
  Rng net_live(net_seed), net_ref(net_seed);
  world.live->build_network(nodes, net_live);
  world.ref->build_network(nodes, net_ref);
  Rng rng(data_seed);
  for (std::size_t i = 0; i < elements; ++i) {
    const DataElement e = make_element(rng, i);
    world.live->publish(e);
    world.ref->publish(e);
  }
  return world;
}

/// The letter twin's seeds; the network seed is xored with the row's
/// finger base.
struct TwinSeeds {
  std::uint64_t network = 0xd1f;
  std::uint64_t data = 0xbeef;
};

inline TwinWorld make_letter_twin(const EngineConfig& engine, bool traced,
                                  TwinSeeds seeds = {}) {
  const LetterShape shape;
  TwinWorld world = make_twin(
      letter_space(shape.letters), config_of(engine), shape.nodes,
      seeds.network ^ std::get<1>(engine), seeds.data, shape.elements,
      [&shape](Rng& rng, std::size_t i) {
        return random_letter_element(
            rng, shape.letters, std::string(shape.name) + std::to_string(i));
      });
  world.live->set_tracing(traced);
  world.ref->set_tracing(traced);
  return world;
}

/// A random query over a two-letter space: each term is *, a whole word or
/// a word prefix.
inline keyword::Query random_letter_query(Rng& rng,
                                          std::string_view letters = "abcde") {
  keyword::Query q;
  for (int dim = 0; dim < 2; ++dim) {
    const auto kind = rng.below(3);
    if (kind == 0) {
      q.terms.push_back(keyword::Any{});
    } else if (kind == 1) {
      q.terms.push_back(keyword::Whole{random_word(rng, letters)});
    } else {
      q.terms.push_back(keyword::Prefix{random_word(rng, letters)});
    }
  }
  return q;
}

// --- Names and the brute-force oracle ----------------------------------------

inline std::vector<std::string> names_in_order(
    const std::vector<DataElement>& elements) {
  std::vector<std::string> names;
  names.reserve(elements.size());
  for (const DataElement& e : elements) names.push_back(e.name);
  return names;
}

inline std::vector<std::string> sorted_names(
    const std::vector<DataElement>& elements) {
  std::vector<std::string> names = names_in_order(elements);
  std::sort(names.begin(), names.end());
  return names;
}

/// The sorted names of every element of `all` that matches `q`.
inline std::vector<std::string> oracle_names(
    const keyword::KeywordSpace& space, const std::vector<DataElement>& all,
    const keyword::Query& q) {
  std::vector<std::string> names;
  for (const DataElement& e : all)
    if (space.matches(q, e.keys)) names.push_back(e.name);
  std::sort(names.begin(), names.end());
  return names;
}

// --- Brute-force store model -------------------------------------------------

/// The store's update contract, applied one op at a time in submit order:
/// curve index -> the elements stored there, in arrival order. publish
/// replaces the element of the same name at its key in place, or appends;
/// retract removes an equal element (name and keys) and reports whether it
/// found one; a key goes with its last element.
struct StoreModel {
  std::map<u128, std::vector<DataElement>> keys;
  std::size_t elements = 0;

  void publish(u128 index, const DataElement& e) {
    std::vector<DataElement>& slot = keys[index];
    for (DataElement& stored : slot) {
      if (stored.name == e.name) {
        stored = e;
        return;
      }
    }
    slot.push_back(e);
    ++elements;
  }

  bool retract(u128 index, const DataElement& e) {
    const auto key = keys.find(index);
    if (key == keys.end()) return false;
    std::vector<DataElement>& slot = key->second;
    const auto found = std::find(slot.begin(), slot.end(), e);
    if (found == slot.end()) return false;
    slot.erase(found);
    --elements;
    if (slot.empty()) keys.erase(key);
    return true;
  }
};

/// The owner of `index` by a linear scan: the first of the ascending node
/// ids at or after it, wrapping to the first.
inline overlay::NodeId brute_owner(const std::vector<overlay::NodeId>& nodes,
                                   u128 index) {
  for (const overlay::NodeId id : nodes)
    if (id >= index) return id;
  return nodes.front();
}

// --- Span fingerprint --------------------------------------------------------

#if SQUID_OBS_ENABLED
/// Everything a span records except the indices that depend on record order
/// (parent, event, path slots).
using SpanKey =
    std::tuple<obs::SpanKind, overlay::NodeId, unsigned, sim::Time, sim::Time,
               std::uint32_t, std::uint32_t, std::uint32_t, u128, u128,
               std::uint64_t, std::uint64_t, std::uint64_t>;

/// The trace's span keys in record order.
inline std::vector<SpanKey> span_keys(const obs::Trace& trace) {
  std::vector<SpanKey> keys;
  keys.reserve(trace.spans.size());
  for (const obs::Span& s : trace.spans) {
    keys.emplace_back(s.kind, s.node, s.level, s.start, s.end, s.hops,
                      s.messages, s.batch, s.range_lo, s.range_hi,
                      s.keys_scanned, s.keys_matched, s.matches);
  }
  return keys;
}

/// Order-independent fingerprint: the span keys as a sorted multiset.
inline std::vector<SpanKey> span_multiset(const obs::Trace& trace) {
  std::vector<SpanKey> keys = span_keys(trace);
  std::sort(keys.begin(), keys.end());
  return keys;
}
#endif

// --- Comparers ---------------------------------------------------------------

/// Completion and every planning-side QueryStats field: the part of a
/// result that no delivery order can change.
inline void expect_same_stats(const QueryResult& a, const QueryResult& b,
                              const std::string& context) {
  EXPECT_EQ(a.complete, b.complete) << context;
  EXPECT_EQ(a.stats.matches, b.stats.matches) << context;
  EXPECT_EQ(a.stats.routing_nodes, b.stats.routing_nodes) << context;
  EXPECT_EQ(a.stats.processing_nodes, b.stats.processing_nodes) << context;
  EXPECT_EQ(a.stats.data_nodes, b.stats.data_nodes) << context;
  EXPECT_EQ(a.stats.messages, b.stats.messages) << context;
  EXPECT_EQ(a.stats.critical_path_hops, b.stats.critical_path_hops)
      << context;
  EXPECT_EQ(a.stats.retries, b.stats.retries) << context;
  EXPECT_EQ(a.stats.failed_clusters, b.stats.failed_clusters) << context;
}

/// Live engine vs the frozen seed recursion: the element sequence in
/// arrival order, expect_same_stats, the timing DAG entry by entry, and
/// the trace as a span multiset (the message runtime defers deliveries,
/// which reorders span records) with its derived message, retry and
/// failed-cluster counts.
inline void expect_same_as_reference(const QueryResult& live,
                                     const QueryResult& ref,
                                     const std::string& context) {
  EXPECT_EQ(names_in_order(live.elements), names_in_order(ref.elements))
      << context;
  expect_same_stats(live, ref, context);
  ASSERT_EQ(live.timing.size(), ref.timing.size()) << context;
  for (std::size_t i = 0; i < live.timing.size(); ++i) {
    EXPECT_EQ(live.timing[i].parent, ref.timing[i].parent)
        << context << " timing " << i;
    EXPECT_EQ(live.timing[i].hops, ref.timing[i].hops)
        << context << " timing " << i;
  }
#if SQUID_OBS_ENABLED
  ASSERT_EQ(live.trace != nullptr, ref.trace != nullptr) << context;
  if (live.trace) {
    EXPECT_EQ(span_multiset(*live.trace), span_multiset(*ref.trace))
        << context;
    const core::QueryStats live_derived = obs::derive_stats(*live.trace);
    const core::QueryStats ref_derived = obs::derive_stats(*ref.trace);
    EXPECT_EQ(live_derived.messages, ref_derived.messages) << context;
    EXPECT_EQ(live_derived.retries, ref_derived.retries) << context;
    EXPECT_EQ(live_derived.failed_clusters, ref_derived.failed_clusters)
        << context;
  }
#endif
}

/// Two runs of the live engine that must not differ (worker counts,
/// sampling on/off, an empty fault plan): everything
/// expect_same_as_reference compares, plus the reply-path accounting and
/// the span records in record order.
inline void expect_identical(const QueryResult& a, const QueryResult& b,
                             const std::string& context) {
  expect_same_as_reference(a, b, context);
  EXPECT_EQ(a.stats.bytes_shipped, b.stats.bytes_shipped) << context;
  EXPECT_EQ(a.stats.reply_messages, b.stats.reply_messages) << context;
#if SQUID_OBS_ENABLED
  if (a.trace && b.trace) {
    EXPECT_EQ(span_keys(*a.trace), span_keys(*b.trace)) << context;
  }
#endif
}

} // namespace squid::testing_support
