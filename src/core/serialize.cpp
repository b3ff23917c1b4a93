#include "squid/core/serialize.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "squid/util/require.hpp"

namespace squid::core {

namespace {

constexpr std::string_view kMagic = "SQUID-SNAPSHOT-1";

// --- Sinks -------------------------------------------------------------------
// Every writer below is a template over its sink and runs over one of two:
// AppendSink produces the bytes, CountSink only measures them. Both render
// integers as decimal text — CountSink by counting digits, never by
// formatting — so a frame's size and its bytes come from the same writer.

/// Field-level `<<` shared by both sinks: chars and strings go out
/// verbatim, integers in decimal. A sink supplies raw(char),
/// raw(string_view), digits(std::uint64_t) and digits(u128).
template <class Sink> class Fields {
public:
  Sink& operator<<(char c) {
    self().raw(c);
    return self();
  }
  Sink& operator<<(std::string_view s) {
    self().raw(s);
    return self();
  }
  Sink& operator<<(u128 v) {
    self().digits(v);
    return self();
  }
  template <std::integral T>
    requires(!std::same_as<T, u128>)
  Sink& operator<<(T v) {
    static_assert(!std::same_as<T, bool> && sizeof(T) > 1 && sizeof(T) <= 8,
                  "write flags as 0/1 ints and characters as char");
    if constexpr (std::signed_integral<T>) {
      if (v < 0) {
        self().raw('-');
        self().digits(0 - static_cast<std::uint64_t>(v));
        return self();
      }
    }
    self().digits(static_cast<std::uint64_t>(v));
    return self();
  }

private:
  Sink& self() { return static_cast<Sink&>(*this); }
};

/// Appends the encoded bytes to a string.
class AppendSink : public Fields<AppendSink> {
public:
  explicit AppendSink(std::string& out) noexcept : out_(out) {}
  void raw(char c) { out_.push_back(c); }
  void raw(std::string_view s) { out_.append(s); }
  void digits(std::uint64_t v) {
    char buf[20];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
  void digits(u128 v) {
    char buf[kMaxDecimalDigits];
    out_.append(buf, format_decimal(v, buf));
  }

private:
  std::string& out_;
};

/// Adds up the lengths the AppendSink would have written.
class CountSink : public Fields<CountSink> {
public:
  void raw(char) noexcept { ++bytes_; }
  void raw(std::string_view s) noexcept { bytes_ += s.size(); }
  void digits(std::uint64_t v) noexcept { bytes_ += decimal_digits(v); }
  void digits(u128 v) noexcept { bytes_ += decimal_digits(v); }
  std::size_t bytes() const noexcept { return bytes_; }

private:
  std::size_t bytes_ = 0;
};

// --- Hostile-input guards ----------------------------------------------------
// Counts and lengths come off the wire, so none of them may size an
// allocation up front: a lying count must fail at the first missing item
// and a lying string length at the end of the input, not in the allocator.

constexpr std::size_t kMaxReserve = 1024;
constexpr std::size_t kStringChunk = std::size_t{1} << 16;

std::size_t reserve_hint(std::size_t count) {
  return std::min(count, kMaxReserve);
}

/// parse_u128, with overflow reported like every other malformed field
/// (parse_u128 alone throws std::out_of_range for it).
u128 parse_id(const std::string& text, const char* what) {
  try {
    return parse_u128(text);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument(what);
  }
}

template <class Sink> void write_string(Sink& out, std::string_view s) {
  out << s.size() << ':' << s;
}

std::string read_string(std::istream& in) {
  std::size_t length = 0;
  char colon = 0;
  in >> length >> colon;
  SQUID_REQUIRE(in && colon == ':', "snapshot: malformed string header");
  std::string s;
  while (s.size() < length) {
    const std::size_t at = s.size();
    const std::size_t n = std::min(length - at, kStringChunk);
    s.resize(at + n);
    in.read(s.data() + at, static_cast<std::streamsize>(n));
    SQUID_REQUIRE(in, "snapshot: truncated string");
  }
  return s;
}

// --- Query-message encoding (core/messages.hpp) ----------------------------
// Same text conventions as snapshots: whitespace-separated fields, decimal
// u128 ids, length-prefixed strings. Every read is checked so truncated
// input throws instead of yielding a half-built message.

constexpr std::string_view kMsgMagic = "SQUID-MSG-1";

/// The frame's first line: magic and type tag.
template <class Sink> void write_tag(Sink& out, std::string_view type) {
  out << kMsgMagic << ' ' << type << '\n';
}

u128 read_id(std::istream& in) {
  std::string text;
  in >> text;
  SQUID_REQUIRE(in && !text.empty(), "message: truncated id");
  return parse_id(text, "message: id out of range");
}

template <class Sink>
void write_cluster(Sink& out, const sfc::ClusterNode& cluster) {
  out << cluster.prefix << ' ' << cluster.level;
}

sfc::ClusterNode read_cluster(std::istream& in) {
  const u128 prefix = read_id(in);
  unsigned level = 0;
  in >> level;
  SQUID_REQUIRE(in, "message: truncated cluster");
  return {prefix, level};
}

template <class Sink>
void write_batch(Sink& out, const msg::AggregateBatch& batch) {
  out << batch.clusters.size();
  for (const auto& cluster : batch.clusters) {
    out << ' ';
    write_cluster(out, cluster);
  }
}

msg::AggregateBatch read_batch(std::istream& in) {
  std::size_t count = 0;
  in >> count;
  SQUID_REQUIRE(in, "message: truncated batch");
  msg::AggregateBatch batch;
  batch.clusters.reserve(reserve_hint(count));
  for (std::size_t i = 0; i < count; ++i)
    batch.clusters.push_back(read_cluster(in));
  return batch;
}

// Doubles travel as their raw IEEE bit patterns (decimal uint64). Numeric
// tokens need it because element identity is (key, name) and keys come from
// the tokens, so a routed retract whose double wobbled by one ulp in transit
// would silently miss the stored element; aggregate partials need it so
// pushdown results round-trip bit-exactly.
std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double bits_double(std::istream& in, const char* what) {
  std::uint64_t bits = 0;
  in >> bits;
  SQUID_REQUIRE(in, what);
  return std::bit_cast<double>(bits);
}

template <class Sink>
void write_element(Sink& out, const DataElement& element) {
  write_string(out, element.name);
  out << ' ' << element.keys.size();
  for (const auto& token : element.keys) {
    if (const auto* word = std::get_if<std::string>(&token)) {
      out << " s";
      write_string(out, *word);
    } else {
      out << " n" << double_bits(std::get<double>(token));
    }
  }
}

/// One element as a line of its own: a Reply payload line, a snapshot
/// element line. read_element reads either back.
template <class Sink>
void write_element_line(Sink& out, const DataElement& element) {
  write_element(out, element);
  out << '\n';
}

DataElement read_element(std::istream& in) {
  DataElement element;
  element.name = read_string(in);
  std::size_t token_count = 0;
  in >> token_count;
  SQUID_REQUIRE(in, "element: truncated token count");
  for (std::size_t t = 0; t < token_count; ++t) {
    char kind = 0;
    in >> kind;
    SQUID_REQUIRE(in, "element: truncated token");
    if (kind == 's') {
      element.keys.emplace_back(read_string(in));
    } else if (kind == 'n') {
      element.keys.emplace_back(
          bits_double(in, "element: malformed numeric token"));
    } else {
      SQUID_REQUIRE(false, "element: unknown token kind");
    }
  }
  return element;
}

/// Read `event span` — the trailing bookkeeping pair every request carries.
std::pair<std::int32_t, std::int32_t> read_ids(std::istream& in) {
  std::int32_t event = 0, span = 0;
  in >> event >> span;
  SQUID_REQUIRE(in, "message: truncated event/span ids");
  return {event, span};
}

// --- Aggregate spec / partial encoding (core/aggregate.hpp) -----------------
// Doubles inside partials travel as their raw bit patterns (double_bits);
// the ExactSum superaccumulator travels as its nonzero limbs.

template <class Sink> void write_spec(Sink& out, const AggregateSpec& spec) {
  out << static_cast<unsigned>(spec.kind) << ' ' << spec.dim << ' ' << spec.k
      << ' ' << (spec.largest ? 1 : 0);
}

AggregateSpec read_spec(std::istream& in) {
  unsigned kind = 0;
  AggregateSpec spec;
  int largest = 0;
  in >> kind >> spec.dim >> spec.k >> largest;
  SQUID_REQUIRE(in, "message: truncated aggregate spec");
  SQUID_REQUIRE(kind <= static_cast<unsigned>(AggregateKind::kTopK),
                "message: unknown aggregate kind");
  spec.kind = static_cast<AggregateKind>(kind);
  spec.largest = largest != 0;
  return spec;
}

template <class Sink>
void write_partial(Sink& out, const AggregatePartial& partial) {
  write_spec(out, partial.spec);
  out << ' ' << partial.count;
  const auto& limbs = partial.sum.limbs();
  std::size_t nonzero = 0;
  for (const std::uint64_t limb : limbs)
    if (limb != 0) ++nonzero;
  out << ' ' << nonzero;
  for (std::size_t i = 0; i < limbs.size(); ++i)
    if (limbs[i] != 0) out << ' ' << i << ' ' << limbs[i];
  out << ' ' << (partial.has_extremes ? 1 : 0) << ' '
      << double_bits(partial.min) << ' ' << double_bits(partial.max);
  out << ' ' << partial.groups.size();
  for (const GroupCount& group : partial.groups) {
    out << ' ';
    write_string(out, group.key);
    out << ' ' << group.count;
  }
  out << ' ' << partial.top.size();
  for (const TopEntry& entry : partial.top) {
    out << ' ' << double_bits(entry.value) << ' ';
    write_string(out, entry.name);
  }
}

AggregatePartial read_partial(std::istream& in) {
  AggregatePartial partial;
  partial.spec = read_spec(in);
  in >> partial.count;
  SQUID_REQUIRE(in, "message: truncated partial count");
  std::size_t nonzero = 0;
  in >> nonzero;
  SQUID_REQUIRE(in && nonzero <= ExactSum::kLimbs,
                "message: malformed partial sum");
  for (std::size_t i = 0; i < nonzero; ++i) {
    std::size_t index = 0;
    std::uint64_t limb = 0;
    in >> index >> limb;
    SQUID_REQUIRE(in && index < ExactSum::kLimbs,
                  "message: malformed partial sum limb");
    partial.sum.set_limb(index, limb);
  }
  int has_extremes = 0;
  in >> has_extremes;
  SQUID_REQUIRE(in, "message: truncated partial extremes");
  partial.has_extremes = has_extremes != 0;
  partial.min = bits_double(in, "message: truncated partial min");
  partial.max = bits_double(in, "message: truncated partial max");
  std::size_t group_count = 0;
  in >> group_count;
  SQUID_REQUIRE(in, "message: truncated partial group count");
  partial.groups.reserve(reserve_hint(group_count));
  for (std::size_t i = 0; i < group_count; ++i) {
    GroupCount group;
    group.key = read_string(in);
    in >> group.count;
    SQUID_REQUIRE(in, "message: truncated partial group");
    SQUID_REQUIRE(partial.groups.empty() || partial.groups.back().key < group.key,
                  "message: partial groups out of order");
    partial.groups.push_back(std::move(group));
  }
  std::size_t top_count = 0;
  in >> top_count;
  SQUID_REQUIRE(in, "message: truncated partial top count");
  partial.top.reserve(reserve_hint(top_count));
  for (std::size_t i = 0; i < top_count; ++i) {
    TopEntry entry;
    entry.value = bits_double(in, "message: truncated top entry value");
    entry.name = read_string(in);
    SQUID_REQUIRE(
        partial.top.empty() ||
            !top_entry_before(partial.spec, entry, partial.top.back()),
        "message: partial top entries out of order");
    partial.top.push_back(std::move(entry));
  }
  return partial;
}

/// Everything a Reply frame carries ahead of its element lines. The element
/// count stands alone so accounting frames can be sized without the
/// elements they would carry.
struct ReplyHeader {
  std::uint64_t query = 0;
  overlay::NodeId from = 0;
  overlay::NodeId to = 0;
  bool complete = true;
  std::uint64_t count = 0;
  std::size_t elements = 0;
  const AggregatePartial* aggregate = nullptr;
};

template <class Sink>
void write_reply_header(Sink& out, const ReplyHeader& reply) {
  out << reply.query << ' ' << reply.from << ' ' << reply.to << ' '
      << (reply.complete ? 1 : 0) << ' ' << reply.count << ' '
      << reply.elements << ' ' << (reply.aggregate != nullptr ? 1 : 0);
  if (reply.aggregate != nullptr) {
    out << ' ';
    write_partial(out, *reply.aggregate);
  }
  out << '\n';
}

/// Publish and retract share one layout: `seq origin to element event span`.
template <class Sink>
void write_update(Sink& out, std::uint64_t seq, overlay::NodeId origin,
                  overlay::NodeId to,
                  const DataElement& element, std::int32_t event,
                  std::int32_t span) {
  out << seq << ' ' << origin << ' ' << to << ' ';
  write_element(out, element);
  out << ' ' << event << ' ' << span << '\n';
}

template <class Sink> struct Writer {
  Sink& out;
  void operator()(const msg::ResolveRequest& r) const {
    out << r.query << ' ' << r.at << ' ';
    write_batch(out, r.clusters);
    out << ' ' << r.event << ' ' << r.span << '\n';
  }
  void operator()(const msg::ClusterDispatch& d) const {
    out << d.query << ' ' << d.from << ' ' << d.to << ' ';
    write_cluster(out, d.head);
    out << ' ';
    write_batch(out, d.batch);
    out << ' ' << d.event << ' ' << d.span << '\n';
  }
  void operator()(const msg::ScanRequest& s) const {
    out << s.query << ' ' << s.at << ' ' << s.segment.lo << ' '
        << s.segment.hi << ' ' << (s.covered ? 1 : 0) << ' ';
    write_spec(out, s.agg);
    out << ' ' << s.slot << ' ' << s.event << ' ' << s.span << ' '
        << s.replica << '\n';
  }
  void operator()(const msg::Reply& r) const {
    write_reply_header(out, ReplyHeader{r.query, r.from, r.to, r.complete,
                                        r.count, r.elements.size(),
                                        r.aggregate.get()});
    for (const auto& element : r.elements) write_element_line(out, element);
  }
  void operator()(const msg::PublishRequest& p) const {
    write_update(out, p.seq, p.origin, p.to, p.element, p.event, p.span);
  }
  void operator()(const msg::RetractRequest& r) const {
    write_update(out, r.seq, r.origin, r.to, r.element, r.event, r.span);
  }
};

template <class Sink>
void write_message(Sink& out, const msg::Message& message) {
  write_tag(out, msg::type_name(message));
  std::visit(Writer<Sink>{out}, message);
}

} // namespace

std::size_t save_message(const msg::Message& message, std::ostream& out) {
  std::string frame;
  AppendSink sink(frame);
  write_message(sink, message);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  return frame.size();
}

msg::Message load_message(std::istream& in, std::size_t* bytes_read) {
  const std::streampos start = in.tellg();
  std::string magic, type;
  in >> magic >> type;
  SQUID_REQUIRE(in && magic == kMsgMagic, "message: bad magic");
  std::uint64_t query = 0;
  in >> query;
  SQUID_REQUIRE(in, "message: truncated query id");
  msg::Message message;
  if (type == "resolve") {
    msg::ResolveRequest r;
    r.query = query;
    r.at = read_id(in);
    r.clusters = read_batch(in);
    std::tie(r.event, r.span) = read_ids(in);
    message = std::move(r);
  } else if (type == "dispatch") {
    msg::ClusterDispatch d;
    d.query = query;
    d.from = read_id(in);
    d.to = read_id(in);
    d.head = read_cluster(in);
    d.batch = read_batch(in);
    std::tie(d.event, d.span) = read_ids(in);
    message = std::move(d);
  } else if (type == "scan") {
    msg::ScanRequest s;
    s.query = query;
    s.at = read_id(in);
    s.segment.lo = read_id(in);
    s.segment.hi = read_id(in);
    int covered = 0;
    in >> covered;
    SQUID_REQUIRE(in, "message: truncated scan header");
    s.covered = covered != 0;
    s.agg = read_spec(in);
    in >> s.slot;
    SQUID_REQUIRE(in, "message: truncated scan slot");
    std::tie(s.event, s.span) = read_ids(in);
    in >> s.replica;
    SQUID_REQUIRE(in, "message: truncated scan replica id");
    message = std::move(s);
  } else if (type == "reply") {
    msg::Reply r;
    r.query = query;
    r.from = read_id(in);
    r.to = read_id(in);
    int complete = 0;
    std::size_t element_count = 0;
    int has_aggregate = 0;
    in >> complete >> r.count >> element_count >> has_aggregate;
    SQUID_REQUIRE(in, "message: truncated reply header");
    r.complete = complete != 0;
    if (has_aggregate != 0)
      r.aggregate = std::make_shared<const AggregatePartial>(read_partial(in));
    r.elements.reserve(reserve_hint(element_count));
    for (std::size_t i = 0; i < element_count; ++i)
      r.elements.push_back(read_element(in));
    message = std::move(r);
  } else if (type == "publish" || type == "retract") {
    // Twin layouts: `seq origin to element event span`. The leading u64 read
    // as `query` above is the update's submit sequence number.
    const std::uint64_t seq = query;
    const u128 origin = read_id(in);
    const u128 to = read_id(in);
    DataElement element = read_element(in);
    const auto [event, span] = read_ids(in);
    if (type == "publish") {
      msg::PublishRequest p;
      p.seq = seq;
      p.origin = origin;
      p.to = to;
      p.element = std::move(element);
      p.event = event;
      p.span = span;
      message = std::move(p);
    } else {
      msg::RetractRequest r;
      r.seq = seq;
      r.origin = origin;
      r.to = to;
      r.element = std::move(element);
      r.event = event;
      r.span = span;
      message = std::move(r);
    }
  } else {
    SQUID_REQUIRE(false, "message: unknown type tag");
  }
  // Consume the frame's trailing newline so byte accounting matches
  // save_message and back-to-back frames parse cleanly.
  if (in.peek() == '\n') in.get();
  if (bytes_read != nullptr) {
    *bytes_read = 0;
    if (start != std::streampos(-1)) {
      const std::streampos end = in.tellg();
      if (end != std::streampos(-1) && end >= start)
        *bytes_read = static_cast<std::size_t>(end - start);
    }
  }
  return message;
}

std::size_t wire_size(const msg::Message& message) {
  CountSink sink;
  write_message(sink, message);
  return sink.bytes();
}

std::size_t element_wire_size(const DataElement& element) {
  CountSink sink;
  write_element_line(sink, element);
  return sink.bytes();
}

std::size_t reply_wire_size(overlay::NodeId from, overlay::NodeId to,
                            std::uint64_t count, std::size_t elements,
                            std::size_t payload_bytes,
                            const AggregatePartial* aggregate) {
  CountSink sink;
  write_tag(sink, "reply");
  write_reply_header(sink, ReplyHeader{0, from, to, true, count, elements,
                                       aggregate});
  return sink.bytes() + payload_bytes;
}

std::size_t update_wire_size(UpdateOp::Kind kind, std::uint64_t seq,
                             overlay::NodeId origin, overlay::NodeId to,
                             const DataElement& element) {
  CountSink sink;
  write_tag(sink, kind == UpdateOp::Kind::kRetract ? "retract" : "publish");
  write_update(sink, seq, origin, to, element, 0, -1);
  return sink.bytes();
}

void save_snapshot(const SquidSystem& sys, std::ostream& out) {
  std::string text;
  AppendSink sink(text);
  sink << kMagic << '\n';
  sink << sys.curve().name() << ' ' << sys.space().dims() << ' '
       << sys.space().bits_per_dim() << '\n';

  const auto ids = sys.ring().node_ids();
  sink << ids.size() << '\n';
  for (const auto id : ids) sink << id << '\n';

  sink << sys.element_count() << '\n';
  sys.for_each_key([&](u128, const sfc::Point&,
                       const std::vector<DataElement>& elements) {
    for (const auto& element : elements) write_element_line(sink, element);
  });
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void load_snapshot(SquidSystem& sys, std::istream& in) {
  SQUID_REQUIRE(sys.ring().size() == 0 && sys.element_count() == 0,
                "snapshot must load into a fresh system");
  std::string magic;
  in >> magic;
  SQUID_REQUIRE(magic == kMagic, "snapshot: bad magic");
  std::string curve;
  unsigned dims = 0, bits = 0;
  in >> curve >> dims >> bits;
  SQUID_REQUIRE(curve == sys.curve().name(), "snapshot: curve mismatch");
  SQUID_REQUIRE(dims == sys.space().dims(), "snapshot: dimension mismatch");
  SQUID_REQUIRE(bits == sys.space().bits_per_dim(),
                "snapshot: resolution mismatch");

  std::size_t node_count = 0;
  in >> node_count;
  SQUID_REQUIRE(in && node_count >= 1, "snapshot: bad node count");
  for (std::size_t i = 0; i < node_count; ++i) {
    std::string id_text;
    in >> id_text;
    sys.add_node_at(parse_id(id_text, "snapshot: node id out of range"));
  }

  std::size_t element_count = 0;
  in >> element_count;
  SQUID_REQUIRE(in, "snapshot: bad element count");
  for (std::size_t i = 0; i < element_count; ++i) {
    const DataElement element = read_element(in);
    SQUID_REQUIRE(element.keys.size() == dims,
                  "snapshot: element arity mismatch");
    sys.publish(element);
  }
  sys.repair_routing();
}

} // namespace squid::core
