// Wire round-trips for the query runtime's typed messages (DESIGN.md 4e):
// every msg::Message alternative must survive save_message -> load_message
// bit-exactly, and every truncated, corrupted or hostile frame must fail
// loudly (std::invalid_argument) instead of yielding a half-parsed message.
// Golden frames pin the byte format; a seeded property test pins the
// sizing functions to the bytes save_message writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "squid/core/messages.hpp"
#include "squid/core/serialize.hpp"
#include "squid/util/rng.hpp"
#include "squid/util/u128.hpp"
#include "support/byte_mutator.hpp"

namespace squid::core {
namespace {

std::string encode(const msg::Message& message) {
  std::ostringstream out;
  save_message(message, out);
  return out.str();
}

msg::Message decode(const std::string& text) {
  std::istringstream in(text);
  return load_message(in);
}

template <typename T> T round_trip(const T& message) {
  const msg::Message back = decode(encode(msg::Message{message}));
  EXPECT_TRUE(std::holds_alternative<T>(back));
  return std::get<T>(back);
}

constexpr u128 kHuge = ~u128{0}; // exercise the full 128-bit range

msg::ResolveRequest sample_resolve() {
  msg::ResolveRequest r;
  r.query = 0xfeedface01234567ull;
  r.at = kHuge - 5;
  r.clusters.clusters = {{0, 0}, {kHuge >> 1, 63}, {42, 7}};
  r.event = 12;
  r.span = -1;
  return r;
}

msg::ClusterDispatch sample_dispatch() {
  msg::ClusterDispatch d;
  d.query = 1;
  d.from = 17;
  d.to = kHuge;
  d.head = {kHuge - 1, 128};
  d.batch.clusters = {{3, 2}, {9, 4}};
  d.event = 3;
  d.span = 44;
  return d;
}

msg::ScanRequest sample_scan() {
  msg::ScanRequest s;
  s.query = 0;
  s.at = 99;
  s.segment = {kHuge / 3, kHuge / 2};
  s.covered = true;
  s.agg.kind = AggregateKind::kTopK;
  s.agg.dim = 1;
  s.agg.k = 8;
  s.agg.largest = false;
  s.slot = 41;
  s.event = 0;
  s.span = -1;
  return s;
}

msg::Reply sample_reply() {
  msg::Reply r;
  r.query = 7;
  r.from = 5;
  r.to = 6;
  r.complete = false;
  r.count = 1234;
  r.elements = {DataElement{"alpha", {"ab", "cd"}},
                DataElement{"with space", {"", "x y z"}}};
  return r;
}

/// A reply carrying an aggregate partial with every field populated —
/// non-trivial ExactSum limbs, extremes, groups, and a sorted top list.
msg::Reply sample_aggregate_reply() {
  AggregateSpec spec;
  spec.kind = AggregateKind::kTopK;
  spec.dim = 1;
  spec.k = 3;
  spec.largest = true;
  AggregatePartial partial = make_partial(spec);
  partial.fold(DataElement{"a", {std::string("x"), 0.1}});
  partial.fold(DataElement{"b", {std::string("y"), -1e300}});
  partial.fold(DataElement{"c", {std::string("z"), 5e-324}});
  partial.fold(DataElement{"d", {std::string("w"), 0.1}}); // value tie
  partial.sum.add(0.2); // desync sum from the folds: arbitrary limbs ship
  partial.has_extremes = true;
  partial.min = -1e300;
  partial.max = 0.1;
  partial.groups = {{"g/a", 2}, {"g/b", 7}};

  msg::Reply r;
  r.query = 9;
  r.from = kHuge - 2;
  r.to = 1;
  r.complete = true;
  r.count = partial.count;
  r.aggregate = std::make_shared<const AggregatePartial>(std::move(partial));
  return r;
}

/// Update frames (DESIGN.md 4j) with both token flavors: an exact-binary
/// awkward double (negative, non-representable decimal) and strings with
/// spaces, so the element codec — not just the header — is exercised.
msg::PublishRequest sample_publish() {
  msg::PublishRequest p;
  p.seq = 0xdeadbeef01234567ull;
  p.origin = kHuge - 3;
  p.to = 7;
  p.element = DataElement{"obj 42", {-1234.5625, std::string("a b c")}};
  p.event = 5;
  p.span = -1;
  return p;
}

msg::RetractRequest sample_retract() {
  msg::RetractRequest r;
  r.seq = 1;
  r.origin = 0;
  r.to = kHuge;
  r.element = DataElement{"", {std::string(""), 0.1}};
  r.event = 0;
  r.span = 12;
  return r;
}

TEST(MessageSerialize, ResolveRequestRoundTrips) {
  const msg::ResolveRequest r = sample_resolve();
  EXPECT_EQ(round_trip(r), r);
}

TEST(MessageSerialize, ClusterDispatchRoundTrips) {
  const msg::ClusterDispatch d = sample_dispatch();
  EXPECT_EQ(round_trip(d), d);
}

TEST(MessageSerialize, ScanRequestRoundTrips) {
  const msg::ScanRequest s = sample_scan();
  EXPECT_EQ(round_trip(s), s);
}

TEST(MessageSerialize, ReplyRoundTrips) {
  const msg::Reply r = sample_reply();
  EXPECT_EQ(round_trip(r), r);
}

TEST(MessageSerialize, UpdateFramesRoundTripBitExactly) {
  const msg::PublishRequest p = sample_publish();
  const msg::PublishRequest p2 = round_trip(p);
  EXPECT_EQ(p2, p);
  // The numeric token must come back bit-exact, not decimal-close: retract
  // matching is by name AND keys, so a 1-ulp wobble would strand elements.
  ASSERT_EQ(p2.element.keys.size(), 2u);
  EXPECT_EQ(std::get<double>(p2.element.keys[0]), -1234.5625);

  const msg::RetractRequest r = sample_retract();
  EXPECT_EQ(round_trip(r), r);
}

TEST(MessageSerialize, AggregateReplyRoundTripsBitExactly) {
  const msg::Reply r = sample_aggregate_reply();
  const msg::Reply back = round_trip(r);
  EXPECT_EQ(back, r); // Reply::operator== compares the partial by value
  ASSERT_NE(back.aggregate, nullptr);
  // The ExactSum travels limb-for-limb: the decoded accumulator must carry
  // the identical 2304-bit state, not just a close double.
  EXPECT_EQ(back.aggregate->sum, r.aggregate->sum);
  EXPECT_EQ(back.aggregate->top, r.aggregate->top);
  EXPECT_EQ(back.aggregate->groups, r.aggregate->groups);
}

TEST(MessageSerialize, EveryAggregateKindRoundTripsOnScanAndReply) {
  for (AggregateKind kind :
       {AggregateKind::kNone, AggregateKind::kCount, AggregateKind::kSum,
        AggregateKind::kMin, AggregateKind::kMax, AggregateKind::kGroupBy,
        AggregateKind::kTopK}) {
    msg::ScanRequest s = sample_scan();
    s.agg = AggregateSpec{};
    s.agg.kind = kind;
    if (kind == AggregateKind::kTopK) s.agg.k = 2;
    EXPECT_EQ(round_trip(s), s) << aggregate_kind_name(kind);

    AggregatePartial partial = make_partial(s.agg);
    if (kind == AggregateKind::kSum) partial.sum.add(-0.25);
    msg::Reply r;
    r.query = 3;
    r.aggregate = std::make_shared<const AggregatePartial>(std::move(partial));
    EXPECT_EQ(round_trip(r), r) << aggregate_kind_name(kind);
  }
}

TEST(MessageSerialize, SaveReportsTheExactEncodedSizeAndLoadConsumesIt) {
  const std::vector<msg::Message> all = {
      msg::Message{sample_resolve()},         msg::Message{sample_dispatch()},
      msg::Message{sample_scan()},            msg::Message{sample_reply()},
      msg::Message{sample_aggregate_reply()}, msg::Message{sample_publish()},
      msg::Message{sample_retract()}};
  for (const msg::Message& message : all) {
    std::ostringstream out;
    const std::size_t saved = save_message(message, out);
    EXPECT_EQ(saved, out.str().size()) << msg::type_name(message);
    EXPECT_EQ(wire_size(message), saved) << msg::type_name(message);
    std::istringstream in(out.str());
    std::size_t consumed = 0;
    (void)load_message(in, &consumed);
    EXPECT_EQ(consumed, saved) << msg::type_name(message);
  }
}

TEST(MessageSerialize, CorruptAggregateFramesAreRejected) {
  // Out-of-range kind byte.
  {
    std::string text = encode(msg::Message{sample_scan()});
    const std::size_t pos = text.find(" 6 1 8 0 "); // kTopK spec: kind 6
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 3, " 9 ");
    EXPECT_THROW(decode(text), std::invalid_argument);
  }
  // Group keys must arrive strictly ascending (the canonical sorted form).
  {
    msg::Reply r = sample_aggregate_reply();
    AggregatePartial tampered = *r.aggregate;
    std::swap(tampered.groups[0], tampered.groups[1]);
    r.aggregate = std::make_shared<const AggregatePartial>(std::move(tampered));
    EXPECT_THROW(decode(encode(msg::Message{r})), std::invalid_argument);
  }
  // Top entries must respect the spec's total order.
  {
    msg::Reply r = sample_aggregate_reply();
    AggregatePartial tampered = *r.aggregate;
    ASSERT_GE(tampered.top.size(), 2u);
    std::swap(tampered.top.front(), tampered.top.back());
    r.aggregate = std::make_shared<const AggregatePartial>(std::move(tampered));
    EXPECT_THROW(decode(encode(msg::Message{r})), std::invalid_argument);
  }
}

TEST(MessageSerialize, EmptyAggregatesAndElementListsRoundTrip) {
  msg::ResolveRequest r;
  r.query = 2;
  r.at = 0;
  EXPECT_TRUE(r.clusters.clusters.empty());
  EXPECT_EQ(round_trip(r), r);

  msg::Reply reply;
  reply.query = 2;
  EXPECT_TRUE(reply.elements.empty());
  EXPECT_EQ(round_trip(reply), reply);
}

TEST(MessageSerialize, DestinationAndTypeNameMatchTheAlternative) {
  EXPECT_EQ(msg::destination_of(msg::Message{sample_resolve()}),
            sample_resolve().at);
  EXPECT_EQ(msg::destination_of(msg::Message{sample_dispatch()}),
            sample_dispatch().to);
  EXPECT_EQ(msg::destination_of(msg::Message{sample_scan()}),
            sample_scan().at);
  EXPECT_EQ(msg::destination_of(msg::Message{sample_reply()}),
            sample_reply().to);
  EXPECT_EQ(msg::destination_of(msg::Message{sample_publish()}),
            sample_publish().to);
  EXPECT_EQ(msg::destination_of(msg::Message{sample_retract()}),
            sample_retract().to);
  EXPECT_EQ(std::string(msg::type_name(msg::Message{sample_scan()})), "scan");
  EXPECT_EQ(std::string(msg::type_name(msg::Message{sample_reply()})),
            "reply");
  EXPECT_EQ(std::string(msg::type_name(msg::Message{sample_publish()})),
            "publish");
  EXPECT_EQ(std::string(msg::type_name(msg::Message{sample_retract()})),
            "retract");
}

TEST(MessageSerialize, EveryTruncationFailsLoudly) {
  const std::vector<msg::Message> all = {
      msg::Message{sample_resolve()},         msg::Message{sample_dispatch()},
      msg::Message{sample_scan()},            msg::Message{sample_reply()},
      msg::Message{sample_aggregate_reply()}, msg::Message{sample_publish()},
      msg::Message{sample_retract()}};
  for (const msg::Message& message : all) {
    const std::string full = encode(message);
    // Drop whitespace-delimited tokens from the tail one at a time; every
    // proper prefix that ends at a token boundary must throw rather than
    // decode to *any* message.
    for (std::size_t cut = 0; cut < full.size(); cut = full.find(' ', cut + 1)) {
      const std::string prefix = full.substr(0, cut);
      EXPECT_THROW(decode(prefix), std::invalid_argument)
          << msg::type_name(message) << " truncated to " << cut << " bytes";
      if (full.find(' ', cut + 1) == std::string::npos) break;
    }
  }
}

TEST(MessageSerialize, BadMagicAndUnknownTagAreRejected) {
  EXPECT_THROW(decode(""), std::invalid_argument);
  EXPECT_THROW(decode("SQUID-SNAPSHOT-1 resolve 1"), std::invalid_argument);
  EXPECT_THROW(decode("SQUID-MSG-1 gossip 1 2 3"), std::invalid_argument);

  std::string full = encode(msg::Message{sample_scan()});
  full.replace(full.find("scan"), 4, "scam");
  EXPECT_THROW(decode(full), std::invalid_argument);
}

TEST(MessageSerialize, GarbageFieldsAreRejected) {
  // A non-numeric id where a u128 is expected.
  EXPECT_THROW(decode("SQUID-MSG-1 scan 1 banana 0 0 0 0 -1"),
               std::invalid_argument);
}

TEST(MessageSerialize, CorruptUpdateFramesAreRejected) {
  // A misspelled update tag is an unknown message type, not a fallback.
  {
    std::string text = encode(msg::Message{sample_publish()});
    text.replace(text.find("publish"), 7, "publush");
    EXPECT_THROW(decode(text), std::invalid_argument);
  }
  // A retract downgraded to a bare prefix of its element dies loudly.
  {
    const std::string full = encode(msg::Message{sample_retract()});
    EXPECT_THROW(decode(full.substr(0, full.size() / 2)),
                 std::invalid_argument);
  }
  // Garbage where the origin id should be.
  EXPECT_THROW(decode("SQUID-MSG-1 publish 7 banana 3"),
               std::invalid_argument);
}

// --- Golden frames -----------------------------------------------------------
// One frame per message type, with edge values in every field, and the
// exact bytes the text codec has always written for it. A change to the
// writer that moves a single byte fails here.

constexpr u128 kTen19 = 10'000'000'000'000'000'000ull;

std::vector<msg::Message> golden_messages() {
  std::vector<msg::Message> out;
  msg::ResolveRequest resolve;
  resolve.query = std::numeric_limits<std::uint64_t>::max();
  resolve.at = kHuge;
  resolve.clusters.clusters = {
      {0, 0}, {kHuge, 128}, {kTen19, 64}, {kTen19 - 1, 1}};
  resolve.event = std::numeric_limits<std::int32_t>::min();
  resolve.span = std::numeric_limits<std::int32_t>::max();
  out.emplace_back(resolve);

  msg::ClusterDispatch dispatch;
  dispatch.query = 0;
  dispatch.from = 0;
  dispatch.to = u128{1} << 64;
  dispatch.head = {(u128{1} << 64) - 1, 3};
  dispatch.event = -1;
  dispatch.span = -1;
  out.emplace_back(dispatch);

  msg::ScanRequest scan;
  scan.query = 12345;
  scan.at = kTen19 * kTen19;
  scan.segment = {1, kTen19 * kTen19 - 1};
  scan.covered = true;
  scan.agg.kind = AggregateKind::kGroupBy;
  scan.agg.dim = 2;
  scan.agg.largest = false;
  scan.slot = std::numeric_limits<std::uint32_t>::max();
  scan.event = 7;
  scan.span = -7;
  scan.replica = std::numeric_limits<std::uint64_t>::max();
  out.emplace_back(scan);

  msg::Reply reply;
  reply.query = 1;
  reply.from = kHuge;
  reply.to = 0;
  reply.complete = false;
  reply.count = 3;
  reply.elements = {
      DataElement{"", {}},
      DataElement{"x y\nz",
                  {std::string(""), std::numeric_limits<double>::quiet_NaN(),
                   -0.0, std::numeric_limits<double>::denorm_min(),
                   std::string("long word")}}};
  out.emplace_back(reply);

  AggregateSpec spec;
  spec.kind = AggregateKind::kTopK;
  spec.dim = 1;
  spec.k = 2;
  spec.largest = false;
  AggregatePartial partial = make_partial(spec);
  partial.fold(DataElement{"b", {std::string("x"), -2.5}});
  partial.fold(DataElement{"a", {std::string("y"), 1e300}});
  partial.fold(DataElement{"c", {std::string("z"), -2.5}});
  partial.sum.add(-0.1);
  partial.has_extremes = true;
  partial.min = -2.5;
  partial.max = 1e300;
  partial.groups = {{"", 1}, {"g b", 2}};
  msg::Reply agg;
  agg.query = 0;
  agg.from = 5;
  agg.to = kTen19;
  agg.count = partial.count;
  agg.aggregate = std::make_shared<const AggregatePartial>(std::move(partial));
  out.emplace_back(agg);

  msg::PublishRequest publish;
  publish.seq = std::numeric_limits<std::uint64_t>::max();
  publish.origin = 0;
  publish.to = u128{1} << 127;
  publish.element = DataElement{
      "obj 7",
      {std::numeric_limits<double>::infinity(), -1.5, std::string("w")}};
  publish.event = -5;
  publish.span = 3;
  out.emplace_back(publish);

  msg::RetractRequest retract;
  retract.seq = 0;
  retract.origin = kHuge;
  retract.to = 9;
  retract.element = DataElement{"", {std::string(""), 0.1}};
  retract.event = 0;
  retract.span = -1;
  out.emplace_back(retract);
  return out;
}

const std::vector<std::string>& golden_frames() {
  static const std::vector<std::string> frames = {
      "SQUID-MSG-1 resolve\n"
      "18446744073709551615 340282366920938463463374607431768211455 4 0 0 "
      "340282366920938463463374607431768211455 128 10000000000000000000 64 "
      "9999999999999999999 1 -2147483648 2147483647\n",

      "SQUID-MSG-1 dispatch\n"
      "0 0 18446744073709551616 18446744073709551615 3 0 -1 -1\n",

      "SQUID-MSG-1 scan\n"
      "12345 100000000000000000000000000000000000000 1 "
      "99999999999999999999999999999999999999 1 5 2 0 0 4294967295 7 -7 "
      "18446744073709551615\n",

      "SQUID-MSG-1 reply\n"
      "1 340282366920938463463374607431768211455 0 0 3 2 0\n"
      "0: 0\n"
      "5:x y\n"
      "z 5 s0: n9221120237041090560 n9223372036854775808 n1 s9:long word\n",

      "SQUID-MSG-1 reply\n"
      "0 5 10000000000000000000 1 3 0 1 6 1 2 0 3 19 17 16602069666338596352 "
      "18 18446744073709551615 19 18446744073709551615 20 "
      "18446744073709551615 21 18446744073709551615 22 18446744073709551615 "
      "23 18446744073709551615 24 18446744073709551615 25 "
      "18446744073709551615 26 18446744073709551615 27 18446744073709551615 "
      "28 18446744073709551615 29 18446744073709551615 30 "
      "18446744073709551615 31 18446744073709551615 32 18446744073709551615 "
      "33 18446744073709551615 34 18446744073709551615 35 "
      "18446744073709551615 1 13836183955189006336 9094988921128908188 2 0: "
      "1 3:g b 2 2 13836183955189006336 1:b 13836183955189006336 1:c\n",

      "SQUID-MSG-1 publish\n"
      "18446744073709551615 0 170141183460469231731687303715884105728 "
      "5:obj 7 3 n9218868437227405312 n13832806255468478464 s1:w -5 3\n",

      "SQUID-MSG-1 retract\n"
      "0 340282366920938463463374607431768211455 9 0: 2 s0: "
      "n4591870180066957722 0 -1\n",
  };
  return frames;
}

TEST(MessageSerialize, GoldenFramesAreWrittenAndReadByteForByte) {
  const std::vector<msg::Message> messages = golden_messages();
  const std::vector<std::string>& frames = golden_frames();
  ASSERT_EQ(messages.size(), frames.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const char* type = msg::type_name(messages[i]);
    EXPECT_EQ(encode(messages[i]), frames[i]) << type;
    EXPECT_EQ(wire_size(messages[i]), frames[i].size()) << type;
    // Read the committed bytes back. Re-encoding compares by bytes, which
    // holds for the NaN token that operator== would reject.
    std::istringstream in(frames[i]);
    std::size_t consumed = 0;
    const msg::Message back = load_message(in, &consumed);
    EXPECT_EQ(consumed, frames[i].size()) << type;
    EXPECT_EQ(encode(back), frames[i]) << type;
  }
}

// --- Mutated frames ----------------------------------------------------------
// Fixed-seed mutants of every golden frame: single-byte substitutions,
// insertions, deletions and truncations, then multi-byte splices,
// numeric-field rewrites and random-byte tails. A mutant either decodes (it
// is still a well-formed frame) or throws std::invalid_argument; any other
// exception — std::out_of_range, std::length_error, std::bad_alloc, a
// variant or optional access error — is a decoder bug.

TEST(MessageSerialize, MutatedGoldenFramesDecodeOrFailLoudly) {
  constexpr int kMutantsPerFrame = 2000;
  constexpr int kMultiByteMutantsPerFrame = 3000;
  std::size_t rejected = 0;
  const auto decode_or_reject = [&rejected](const msg::Message& message,
                                            const std::string& mutant) {
    try {
      (void)decode(mutant);
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << msg::type_name(message) << " mutant threw "
                    << typeid(e).name() << ": " << e.what() << "\n"
                    << mutant;
    } catch (...) {
      ADD_FAILURE() << msg::type_name(message)
                    << " mutant threw a non-std exception\n"
                    << mutant;
    }
  };
  Rng rng(0x6d757461);
  for (const msg::Message& message : golden_messages()) {
    const std::string frame = encode(message);
    for (int i = 0; i < kMutantsPerFrame; ++i)
      decode_or_reject(message, testing_support::mutate_one_byte(frame, rng));
  }
  const std::size_t single_byte_rejected = rejected;
  EXPECT_GT(single_byte_rejected, 0u); // the mutations reach the parsers
  Rng multi_rng(0x6d756c74);
  for (const msg::Message& message : golden_messages()) {
    const std::string frame = encode(message);
    for (int i = 0; i < kMultiByteMutantsPerFrame; ++i) {
      decode_or_reject(message,
                       testing_support::mutate_many_bytes(frame, multi_rng));
    }
  }
  EXPECT_GT(rejected, single_byte_rejected);
}

// --- Sizing = writing --------------------------------------------------------
// Seeded random messages of every type, salted with edge values: ids 0 and
// u128 max, negative bookkeeping ids, NaN/-0.0/subnormal tokens, empty and
// 10^4-char names, zero-element replies, and every aggregate kind. The
// count sink must agree with the bytes save_message writes, every time.

class MessageGen {
public:
  explicit MessageGen(std::uint64_t seed) : rng_(seed) {}

  msg::Message next(std::size_t type) {
    switch (type) {
    case 0: {
      msg::ResolveRequest r;
      r.query = u64();
      r.at = id();
      r.clusters = batch();
      r.event = i32();
      r.span = i32();
      return r;
    }
    case 1: {
      msg::ClusterDispatch d;
      d.query = u64();
      d.from = id();
      d.to = id();
      d.head = cluster();
      d.batch = batch();
      d.event = i32();
      d.span = i32();
      return d;
    }
    case 2: {
      msg::ScanRequest s;
      s.query = u64();
      s.at = id();
      s.segment = {id(), id()};
      s.covered = rng_.chance(0.5);
      s.agg = spec();
      s.slot = static_cast<std::uint32_t>(u64());
      s.event = i32();
      s.span = i32();
      s.replica = u64();
      return s;
    }
    case 3: {
      msg::Reply r;
      r.query = u64();
      r.from = id();
      r.to = id();
      r.complete = rng_.chance(0.5);
      r.count = u64();
      const std::size_t n = rng_.chance(0.3) ? 0 : rng_.below(6);
      for (std::size_t i = 0; i < n; ++i) r.elements.push_back(element());
      if (rng_.chance(0.5))
        r.aggregate = std::make_shared<const AggregatePartial>(partial());
      return r;
    }
    case 4: {
      msg::PublishRequest p;
      p.seq = u64();
      p.origin = id();
      p.to = id();
      p.element = element();
      p.event = i32();
      p.span = i32();
      return p;
    }
    default: {
      msg::RetractRequest r;
      r.seq = u64();
      r.origin = id();
      r.to = id();
      r.element = element();
      r.event = i32();
      r.span = i32();
      return r;
    }
    }
  }

private:
  std::uint64_t u64() {
    switch (rng_.below(4)) {
    case 0: return 0;
    case 1: return std::numeric_limits<std::uint64_t>::max();
    case 2: return rng_.below(1000);
    default: return rng_();
    }
  }

  u128 id() {
    switch (rng_.below(5)) {
    case 0: return 0;
    case 1: return kHuge;
    case 2: return kTen19 - rng_.below(2);
    case 3: return rng_.below(1000);
    default: return rng_.next128();
    }
  }

  std::int32_t i32() {
    switch (rng_.below(4)) {
    case 0: return std::numeric_limits<std::int32_t>::min();
    case 1: return -1;
    case 2: return std::numeric_limits<std::int32_t>::max();
    default: return static_cast<std::int32_t>(rng_());
    }
  }

  std::string text() {
    switch (rng_.below(4)) {
    case 0: return "";
    case 1: return std::string(10'000, static_cast<char>('a' + rng_.below(26)));
    default: {
      static constexpr char kChars[] = "ab z:\n9-";
      std::string s(rng_.below(12), ' ');
      for (char& c : s) c = kChars[rng_.below(sizeof kChars - 1)];
      return s;
    }
    }
  }

  double number() {
    switch (rng_.below(6)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::denorm_min();
    case 3: return -std::numeric_limits<double>::infinity();
    default: return std::bit_cast<double>(rng_());
    }
  }

  DataElement element() {
    DataElement e;
    e.name = text();
    const std::size_t tokens = rng_.below(5);
    for (std::size_t t = 0; t < tokens; ++t) {
      if (rng_.chance(0.5))
        e.keys.emplace_back(text());
      else
        e.keys.emplace_back(number());
    }
    return e;
  }

  sfc::ClusterNode cluster() {
    return {id(), static_cast<unsigned>(rng_.below(129))};
  }

  msg::AggregateBatch batch() {
    msg::AggregateBatch b;
    const std::size_t n = rng_.below(5);
    for (std::size_t i = 0; i < n; ++i) b.clusters.push_back(cluster());
    return b;
  }

  AggregateSpec spec() {
    AggregateSpec s;
    s.kind = static_cast<AggregateKind>(
        rng_.below(static_cast<std::uint64_t>(AggregateKind::kTopK) + 1));
    s.dim = static_cast<std::uint32_t>(u64());
    s.k = static_cast<std::uint32_t>(rng_.below(4));
    s.largest = rng_.chance(0.5);
    return s;
  }

  /// A partial in canonical form (sorted groups and top list), so the
  /// decoder accepts it and the round trip can be checked too.
  AggregatePartial partial() {
    AggregatePartial p = make_partial(spec());
    p.count = u64();
    const std::size_t limbs = rng_.below(4);
    for (std::size_t i = 0; i < limbs; ++i)
      p.sum.set_limb(rng_.below(ExactSum::kLimbs), rng_());
    p.has_extremes = rng_.chance(0.5);
    p.min = number();
    p.max = number();
    std::set<std::string> keys;
    for (std::size_t i = rng_.below(4); i > 0; --i) keys.insert(text());
    for (const std::string& key : keys) p.groups.push_back({key, u64()});
    for (std::size_t i = rng_.below(4); i > 0; --i) {
      const double v = number();
      p.top.push_back({v != v ? 0.5 : v, text()}); // NaN has no rank
    }
    std::sort(p.top.begin(), p.top.end(),
              [&](const TopEntry& a, const TopEntry& b) {
                return top_entry_before(p.spec, a, b);
              });
    return p;
  }

  Rng rng_;
};

TEST(MessageSerialize, SizingEqualsWritingForRandomMessages) {
  MessageGen gen(0x5eed1);
  for (int round = 0; round < 200; ++round) {
    for (std::size_t type = 0; type < 6; ++type) {
      const msg::Message message = gen.next(type);
      const char* name = msg::type_name(message);
      std::ostringstream out;
      const std::size_t saved = save_message(message, out);
      const std::string frame = out.str();
      ASSERT_EQ(saved, frame.size()) << name << " round " << round;
      ASSERT_EQ(wire_size(message), saved) << name << " round " << round;
      std::istringstream in(frame);
      std::size_t consumed = 0;
      const msg::Message back = load_message(in, &consumed);
      ASSERT_EQ(consumed, saved) << name << " round " << round;
      ASSERT_EQ(encode(back), frame) << name << " round " << round;

      if (const auto* r = std::get_if<msg::Reply>(&message)) {
        // The accounting path: header sized apart, payload summed per
        // element, against the real canonical Reply frame.
        msg::Reply canonical = *r;
        canonical.query = 0;
        canonical.complete = true;
        std::size_t payload = 0;
        for (const DataElement& e : r->elements)
          payload += element_wire_size(e);
        EXPECT_EQ(reply_wire_size(r->from, r->to, r->count, r->elements.size(),
                                  payload, r->aggregate.get()),
                  wire_size(msg::Message{canonical}))
            << "round " << round;
      } else if (const auto* p = std::get_if<msg::PublishRequest>(&message)) {
        msg::PublishRequest canonical = *p;
        canonical.event = 0;
        canonical.span = -1;
        EXPECT_EQ(update_wire_size(UpdateOp::Kind::kPublish, p->seq, p->origin,
                                   p->to, p->element),
                  wire_size(msg::Message{canonical}))
            << "round " << round;
      } else if (const auto* q = std::get_if<msg::RetractRequest>(&message)) {
        msg::RetractRequest canonical = *q;
        canonical.event = 0;
        canonical.span = -1;
        EXPECT_EQ(update_wire_size(UpdateOp::Kind::kRetract, q->seq, q->origin,
                                   q->to, q->element),
                  wire_size(msg::Message{canonical}))
            << "round " << round;
      }
    }
  }
}

// --- Hostile input -----------------------------------------------------------
// Counts and string lengths are attacker-controlled. A huge one must fail
// like any other malformed field, not escape as std::length_error or
// std::bad_alloc from an up-front allocation.

TEST(MessageSerialize, HostileCountsAndLengthsFailLoudly) {
  const std::vector<std::string> hostile = {
      // AggregateBatch count (resolve and dispatch).
      "SQUID-MSG-1 resolve 0 5 18446744073709551615 1 2",
      "SQUID-MSG-1 resolve 0 5 4000000000000 1 2 3 4",
      "SQUID-MSG-1 dispatch 0 1 2 3 4 4000000000000 5 6",
      // Reply element count, then an element name length.
      "SQUID-MSG-1 reply 0 1 2 1 0 18446744073709551615 0 0: 0",
      "SQUID-MSG-1 reply 0 1 2 1 0 1 0 400000000000:abc 0",
      // A negative length wraps to a huge size_t.
      "SQUID-MSG-1 reply 0 1 2 1 0 1 0 -5:abc 0",
      // Update element: name length, token count, string token length.
      "SQUID-MSG-1 publish 0 1 2 400000000000:abc",
      "SQUID-MSG-1 retract 0 1 2 3:abc 18446744073709551615 n1",
      "SQUID-MSG-1 publish 0 1 2 3:abc 1 s400000000000:x 0 -1",
      // Partial group count, group key length, top count, top name length.
      "SQUID-MSG-1 reply 0 1 2 1 0 0 1 5 0 0 1 0 0 0 0 0 "
      "18446744073709551615 1:a 1",
      "SQUID-MSG-1 reply 0 1 2 1 0 0 1 5 0 0 1 0 0 0 0 0 1 400000000000:a 1",
      "SQUID-MSG-1 reply 0 1 2 1 0 0 1 6 0 1 1 0 0 0 0 0 0 4000000000000 "
      "0 1:a",
      "SQUID-MSG-1 reply 0 1 2 1 0 0 1 6 0 1 1 0 0 0 0 0 0 1 0 "
      "400000000000:a",
      // An id one past u128 max.
      "SQUID-MSG-1 scan 0 340282366920938463463374607431768211456 0 0 0 0 0 "
      "0 1 0 0 0 -1 0",
  };
  for (const std::string& text : hostile)
    EXPECT_THROW(decode(text), std::invalid_argument) << text;
}

TEST(MessageSerialize, StringsLongerThanOneReadChunkRoundTrip) {
  msg::PublishRequest p = sample_publish();
  p.element.name = std::string(200'000, 'q');
  p.element.keys.emplace_back(std::string(70'000, ' '));
  EXPECT_EQ(round_trip(p), p);
}

} // namespace
} // namespace squid::core
