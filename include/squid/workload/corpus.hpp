// Workload generation for the experiments (paper 4).
//
// The paper evaluates on (a) a P2P storage corpus — data elements described
// by 2 or 3 keywords drawn from a natural vocabulary, hence a sparse keyword
// space with lexicographic clusters and Zipf-like popularity — and (b) a
// grid-resource corpus of numeric attributes. The exact corpora are not
// published; these generators synthesize equivalents with the properties
// the paper's analysis depends on (sparsity, prefix clustering, skew).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "squid/core/types.hpp"
#include "squid/keyword/space.hpp"
#include "squid/util/rng.hpp"

namespace squid::workload {

/// Synthesizes an English-like vocabulary (syllable concatenation, which
/// yields heavy shared-prefix clustering) and samples keywords from it with
/// Zipf popularity.
class Vocabulary {
public:
  /// `size`: number of distinct words. `zipf`: popularity exponent (0 =
  /// uniform). Words are 2-10 characters over 'a'..'z'.
  Vocabulary(std::size_t size, double zipf, Rng& rng);

  const std::vector<std::string>& words() const noexcept { return words_; }

  /// Popularity-weighted draw.
  const std::string& sample(Rng& rng) const;

  /// Rank r word (0 = most popular).
  const std::string& by_rank(std::size_t rank) const;

private:
  std::vector<std::string> words_; // sorted by descending popularity
  ZipfSampler zipf_;
};

/// Factory for the paper's keyword corpora: d-dimensional documents whose
/// tokens are Vocabulary samples.
class KeywordCorpus {
public:
  KeywordCorpus(unsigned dims, std::size_t vocabulary, double zipf, Rng& rng);

  /// The keyword space matching this corpus (one StringCodec per dim).
  keyword::KeywordSpace make_space(unsigned max_len = 6) const;

  core::DataElement make_element(Rng& rng) const;
  std::vector<core::DataElement> make_elements(std::size_t count,
                                               Rng& rng) const;

  const Vocabulary& vocabulary() const noexcept { return vocabulary_; }
  unsigned dims() const noexcept { return dims_; }

  // --- The paper's query families (4.1) -----------------------------------

  /// Q1: one keyword or partial keyword, wildcards elsewhere, e.g.
  /// (comp*, *, *). `rank` picks the underlying vocabulary word so that a
  /// fixed query can be replayed across system sizes.
  keyword::Query q1(std::size_t rank, bool partial,
                    unsigned prefix_len = 3) const;

  /// Q2: two to three keywords / partial keywords, at least one partial,
  /// e.g. (comp*, net*, *).
  keyword::Query q2(std::size_t rank_a, std::size_t rank_b, bool partial_b,
                    unsigned prefix_len = 3) const;

private:
  unsigned dims_;
  Vocabulary vocabulary_;
  mutable std::uint64_t counter_ = 0; ///< element-name sequence
};

/// Flash-crowd query workload (bench/ext_hotspot, EXPERIMENTS.md): a
/// baseline mix of the paper's Q1/Q2 query families over Zipf-ranked
/// keywords that, during the epochs of [onset_epoch, end_epoch), redirects
/// `hot_fraction` of the draws onto ONE partial-keyword query — the
/// "suddenly popular keyword" scenario. In index space that query is a few
/// curve clusters under one prefix, so the shifted mass lands on the small
/// set of nodes owning them; the telemetry pipeline (obs/telemetry.hpp,
/// obs/hotspot.hpp) should see their epoch load step up and raise
/// hotspot.onset within a few epochs.
struct FlashCrowdConfig {
  std::size_t hot_rank = 0;  ///< vocabulary rank the crowd converges on
  unsigned prefix_len = 3;   ///< partial-match prefix length of the hot query
  double hot_fraction = 0.8; ///< crowd-phase probability of the hot query
  std::uint64_t onset_epoch = 8; ///< first crowd epoch
  std::uint64_t end_epoch = 16;  ///< first epoch after the crowd
  /// Baseline draws spread over the top `baseline_ranks` vocabulary words.
  std::size_t baseline_ranks = 64;
  double q2_fraction = 0.3; ///< baseline chance of a two-keyword query
};

class FlashCrowdWorkload {
public:
  explicit FlashCrowdWorkload(const KeywordCorpus& corpus,
                              FlashCrowdConfig config = {});

  const FlashCrowdConfig& config() const noexcept { return config_; }

  /// True while `epoch` lies inside the crowd window.
  bool hot_phase(std::uint64_t epoch) const noexcept {
    return epoch >= config_.onset_epoch && epoch < config_.end_epoch;
  }

  /// The crowd's query itself (what hot draws return).
  keyword::Query hot_query() const;

  /// One query for a request issued during `epoch`: the hot query with
  /// probability hot_fraction inside the crowd window, a baseline Q1/Q2
  /// draw otherwise.
  keyword::Query draw(std::uint64_t epoch, Rng& rng) const;

private:
  const KeywordCorpus* corpus_;
  FlashCrowdConfig config_;
};

/// Diurnal Zipf-shift workload (bench/ext_hotspot --scenario=diurnal,
/// EXPERIMENTS.md): the popular region of the vocabulary is not fixed but
/// wanders — every `period_epochs` epochs the Zipf focus advances by
/// `focus_step` ranks, the way interest follows the sun across time zones.
/// Each relocation concentrates load on a fresh set of owners, so the
/// detector must raise onsets for the new region while clearing the old one
/// — the adversarial case for frozen-while-hot baselines, and for a
/// reaction controller that must keep re-aiming its splits.
struct DiurnalShiftConfig {
  std::uint64_t period_epochs = 6; ///< epochs between focus relocations
  std::size_t focus_step = 24;     ///< ranks the focus advances per move
  std::size_t window = 4;          ///< focused draws spread over this many ranks
  double focus_fraction = 0.8;     ///< chance a draw comes from the focus
  std::size_t baseline_ranks = 64; ///< background draws over the top ranks
  unsigned prefix_len = 3;
  double q2_fraction = 0.3;
};

class DiurnalShiftWorkload {
public:
  explicit DiurnalShiftWorkload(const KeywordCorpus& corpus,
                                DiurnalShiftConfig config = {});

  const DiurnalShiftConfig& config() const noexcept { return config_; }

  /// First vocabulary rank of the focus window during `epoch`.
  std::size_t focus_of(std::uint64_t epoch) const noexcept;

  /// One query for a request issued during `epoch`: a partial-keyword query
  /// from the current focus window with probability focus_fraction, a
  /// baseline Q1/Q2 draw otherwise.
  keyword::Query draw(std::uint64_t epoch, Rng& rng) const;

private:
  const KeywordCorpus* corpus_;
  DiurnalShiftConfig config_;
};

/// Skewed-publisher workload (bench/ext_hotspot --scenario=skew,
/// EXPERIMENTS.md): the *write* path is the adversary. Publishes concentrate
/// under one keyword prefix (hot_fraction of new elements share the hot
/// word's prefix region), so one arc of the ring absorbs most inserts —
/// and, once the reaction controller replicates the hot cluster, every such
/// publish invalidates the replica entry, exercising the
/// invalidation-then-refresh path of the replica cache under a realistic
/// update stream. Queries stay the baseline mix.
struct SkewedPublisherConfig {
  std::size_t hot_rank = 0;  ///< vocabulary rank publishes pile onto
  double hot_fraction = 0.8; ///< chance a publish lands in the hot region
  unsigned prefix_len = 3;   ///< prefix defining the hot region
  std::size_t baseline_ranks = 64;
  double q2_fraction = 0.3;
};

class SkewedPublisherWorkload {
public:
  explicit SkewedPublisherWorkload(const KeywordCorpus& corpus,
                                   SkewedPublisherConfig config = {});

  const SkewedPublisherConfig& config() const noexcept { return config_; }

  /// One published element: first keyword drawn from the hot-prefix pool
  /// with probability hot_fraction (uniform vocabulary otherwise), other
  /// dimensions uniform.
  core::DataElement make_element(Rng& rng) const;

  /// The query matching the hot region (what a reader of the contended data
  /// issues): a partial-keyword Q1 over the hot prefix.
  keyword::Query hot_query() const;

  /// Baseline Q1/Q2 query mix (epoch-independent; the skew is in writes).
  keyword::Query draw(Rng& rng) const;

  /// Vocabulary ranks sharing the hot word's prefix (the publish pool).
  const std::vector<std::size_t>& hot_pool() const noexcept {
    return hot_pool_;
  }

private:
  const KeywordCorpus* corpus_;
  SkewedPublisherConfig config_;
  std::vector<std::size_t> hot_pool_;
  mutable std::uint64_t counter_ = 0; ///< element-name sequence
};

/// Grid-resource corpus: numeric attributes with realistic clustering
/// (memory concentrates on powers of two, bandwidth on standard tiers,
/// cost spreads log-uniformly).
class ResourceCorpus {
public:
  explicit ResourceCorpus(unsigned bits = 10);

  keyword::KeywordSpace make_space() const;
  core::DataElement make_element(Rng& rng) const;
  std::vector<core::DataElement> make_elements(std::size_t count,
                                               Rng& rng) const;

  /// Q3 range queries of the paper's two shapes.
  /// (keyword, range, *): exact storage tier, bandwidth range, any cost.
  keyword::Query q3_keyword_range(double storage, double bw_lo,
                                  double bw_hi) const;
  /// (range, range, range).
  keyword::Query q3_all_ranges(double st_lo, double st_hi, double bw_lo,
                               double bw_hi, double cost_lo,
                               double cost_hi) const;

private:
  unsigned bits_;
  mutable std::uint64_t counter_ = 0; ///< element-name sequence
};

} // namespace squid::workload
