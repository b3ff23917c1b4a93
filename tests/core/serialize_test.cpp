#include "squid/core/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "squid/workload/corpus.hpp"
#include "support/differential.hpp"
#include "support/byte_mutator.hpp"

namespace squid::core {
namespace {

constexpr const char* kAlpha = "abcdefghijklmnopqrstuvwxyz";

keyword::KeywordSpace doc_space() {
  return keyword::KeywordSpace(
      {keyword::StringCodec(kAlpha, 4), keyword::StringCodec(kAlpha, 4)});
}

keyword::KeywordSpace mixed_space() {
  return keyword::KeywordSpace(
      {keyword::StringCodec(kAlpha, 4), keyword::NumericCodec(0, 1000, 10)});
}

TEST(Snapshot, RoundTripPreservesMembershipAndData) {
  Rng rng(151);
  workload::KeywordCorpus corpus(2, 200, 0.9, rng);
  SquidSystem original(corpus.make_space());
  original.build_network(50, rng);
  for (const auto& e : corpus.make_elements(800, rng)) original.publish(e);

  std::stringstream snapshot;
  save_snapshot(original, snapshot);

  SquidSystem restored(corpus.make_space());
  load_snapshot(restored, snapshot);

  EXPECT_EQ(restored.ring().size(), original.ring().size());
  EXPECT_EQ(restored.ring().node_ids(), original.ring().node_ids());
  EXPECT_EQ(restored.key_count(), original.key_count());
  EXPECT_EQ(restored.element_count(), original.element_count());
  EXPECT_TRUE(restored.ring().ring_consistent());

  // Queries against the restored system match the original exactly.
  const keyword::Query q = corpus.q1(0, true);
  const auto origin = original.ring().node_ids().front();
  EXPECT_EQ(testing_support::sorted_names(restored.query(q, origin).elements),
            testing_support::sorted_names(original.query(q, origin).elements));
}

TEST(Snapshot, MixedTokenKindsSurvive) {
  Rng rng(152);
  SquidSystem original(mixed_space());
  original.build_network(10, rng);
  original.publish({"alpha", {std::string("word"), 123.5}});
  original.publish({"beta", {std::string("term"), 0.25}});

  std::stringstream snapshot;
  save_snapshot(original, snapshot);
  SquidSystem restored(mixed_space());
  load_snapshot(restored, snapshot);

  const auto result = restored.query(restored.space().parse("(word, 123-124)"),
                                     restored.ring().node_ids().front());
  ASSERT_EQ(result.stats.matches, 1u);
  EXPECT_EQ(result.elements[0].name, "alpha");
  EXPECT_DOUBLE_EQ(std::get<double>(result.elements[0].keys[1]), 123.5);
}

TEST(Snapshot, NamesWithSpacesAndPunctuationSurvive) {
  Rng rng(153);
  SquidSystem original(doc_space());
  original.build_network(5, rng);
  original.publish({"my file (v2): final.pdf",
                    {std::string("grid"), std::string("data")}});
  std::stringstream snapshot;
  save_snapshot(original, snapshot);
  SquidSystem restored(doc_space());
  load_snapshot(restored, snapshot);
  const auto result = restored.query(restored.space().parse("(grid, data)"),
                                     restored.ring().node_ids().front());
  ASSERT_EQ(result.stats.matches, 1u);
  EXPECT_EQ(result.elements[0].name, "my file (v2): final.pdf");
}

TEST(Snapshot, GeometryMismatchRejected) {
  Rng rng(154);
  SquidSystem original(doc_space());
  original.build_network(5, rng);
  std::stringstream snapshot;
  save_snapshot(original, snapshot);

  SquidConfig zconfig;
  zconfig.curve = "zorder";
  SquidSystem wrong_curve(doc_space(), zconfig);
  EXPECT_THROW(load_snapshot(wrong_curve, snapshot), std::invalid_argument);
}

TEST(Snapshot, RequiresAFreshSystem) {
  Rng rng(155);
  SquidSystem original(doc_space());
  original.build_network(5, rng);
  std::stringstream snapshot;
  save_snapshot(original, snapshot);

  SquidSystem busy(doc_space());
  busy.build_network(3, rng);
  EXPECT_THROW(load_snapshot(busy, snapshot), std::invalid_argument);
}

TEST(Snapshot, GarbageRejected) {
  SquidSystem sys(doc_space());
  std::stringstream garbage("not a snapshot at all");
  EXPECT_THROW(load_snapshot(sys, garbage), std::invalid_argument);
}

// --- Golden snapshot ---------------------------------------------------------
// Fixed membership and awkward elements (empty name, spaces, a newline in
// the name, a numeric token at zero) with the exact bytes the snapshot
// format has always had for them.

void fill_golden_system(SquidSystem& sys) {
  sys.add_node_at(1);
  sys.add_node_at(70000);
  sys.add_node_at(123456789);
  sys.repair_routing();
  sys.publish({"alpha", {std::string("word"), 123.5}});
  sys.publish({"name with spaces", {std::string("ab"), 0.1}});
  sys.publish({"", {std::string(""), 999.75}});
  sys.publish({"multi\nline", {std::string("zzzz"), 0.0}});
}

constexpr const char* kGoldenSnapshot =
    "SQUID-SNAPSHOT-1\n"
    "hilbert 2 20\n"
    "3\n"
    "1\n"
    "70000\n"
    "123456789\n"
    "4\n"
    "0: 2 s0: n4652005109817933824\n"
    "16:name with spaces 2 s2:ab n4591870180066957722\n"
    "5:alpha 2 s4:word n4638390956842811392\n"
    "10:multi\n"
    "line 2 s4:zzzz n0\n";

std::string save_text(const SquidSystem& sys) {
  std::ostringstream out;
  save_snapshot(sys, out);
  return out.str();
}

TEST(Snapshot, GoldenBytesAreWrittenAndRead) {
  SquidSystem original(mixed_space());
  fill_golden_system(original);
  EXPECT_EQ(save_text(original), kGoldenSnapshot);

  SquidSystem restored(mixed_space());
  std::istringstream in(kGoldenSnapshot);
  load_snapshot(restored, in);
  EXPECT_EQ(restored.ring().node_ids(), original.ring().node_ids());
  EXPECT_EQ(restored.element_count(), 4u);
  EXPECT_EQ(save_text(restored), kGoldenSnapshot);
}

/// kGoldenSnapshot with its first `from` replaced by `to`.
std::string golden_with(const std::string& from, const std::string& to) {
  std::string text = kGoldenSnapshot;
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

TEST(Snapshot, HostileCountsAndLengthsFailLoudly) {
  const std::vector<std::string> hostile = {
      // Node and element counts far beyond the input.
      golden_with("\n3\n", "\n18446744073709551615\n"),
      golden_with("\n4\n", "\n4000000000000\n"),
      // Name and string-token lengths far beyond the input.
      golden_with("5:alpha", "400000000000:alpha"),
      golden_with("s4:word", "s400000000000:word"),
      golden_with("5:alpha", "-5:alpha"),
      // A node id one past u128 max.
      golden_with("70000", "340282366920938463463374607431768211456"),
  };
  for (const std::string& text : hostile) {
    SquidSystem sys(mixed_space());
    std::istringstream in(text);
    EXPECT_THROW(load_snapshot(sys, in), std::invalid_argument) << text;
  }
}

// Fixed-seed mutants of a saved snapshot — single-byte substitutions,
// insertions, deletions and truncations, then multi-byte splices,
// numeric-field rewrites and random-byte tails: each mutant either loads or
// throws std::invalid_argument, and nothing else escapes the loader.
TEST(Snapshot, MutatedSnapshotsLoadOrFailLoudly) {
  constexpr int kMutants = 5000;
  constexpr int kMultiByteMutants = 5000;
  SquidSystem original(mixed_space());
  fill_golden_system(original);
  const std::string saved = save_text(original);
  std::size_t rejected = 0;
  const auto load_or_reject = [&rejected](const std::string& mutant) {
    SquidSystem sys(mixed_space());
    std::istringstream in(mutant);
    try {
      load_snapshot(sys, in);
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant threw " << typeid(e).name() << ": "
                    << e.what() << "\n"
                    << mutant;
    } catch (...) {
      ADD_FAILURE() << "mutant threw a non-std exception\n" << mutant;
    }
  };
  Rng rng(0x736e6170);
  for (int i = 0; i < kMutants; ++i)
    load_or_reject(testing_support::mutate_one_byte(saved, rng));
  const std::size_t single_byte_rejected = rejected;
  EXPECT_GT(single_byte_rejected, 0u); // the mutations reach the parser
  Rng multi_rng(0x6d756c74);
  for (int i = 0; i < kMultiByteMutants; ++i)
    load_or_reject(testing_support::mutate_many_bytes(saved, multi_rng));
  EXPECT_GT(rejected, single_byte_rejected);
}

} // namespace
} // namespace squid::core
