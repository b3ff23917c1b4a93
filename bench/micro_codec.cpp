// Micro-benchmarks: the wire codec (src/core/serialize.cpp).
//
// Byte accounting sizes every reply a query produces: element_wire_size
// once per shipped element and reply_wire_size once per scan site, so
// their cost lands on every element-shipping query. save_message is the
// encoder proper (a large Reply, a routed Publish), and to_string(u128)
// renders the 128-bit ids every frame carries.

#include <benchmark/benchmark.h>

#include <sstream>
#include <vector>

#include "squid/core/messages.hpp"
#include "squid/core/serialize.hpp"
#include "squid/util/rng.hpp"
#include "squid/util/u128.hpp"
#include "squid/workload/corpus.hpp"
#include "squid/workload/geo.hpp"

namespace {

using namespace squid;

/// 600 elements, about one kw-crowd answer.
constexpr std::size_t kElements = 600;

const std::vector<core::DataElement>& keyword_elements() {
  static const std::vector<core::DataElement> elements = [] {
    Rng rng(2003);
    const workload::KeywordCorpus corpus(2, 2500, 0.8, rng);
    return corpus.make_elements(kElements, rng);
  }();
  return elements;
}

const std::vector<core::DataElement>& geo_elements() {
  static const std::vector<core::DataElement> elements = [] {
    Rng rng(2003);
    workload::GeoConfig config;
    config.objects = kElements;
    return workload::GeoMovingObjectsWorkload(config, rng).elements();
  }();
  return elements;
}

/// Node ids as the overlay draws them: uniform over the 128-bit ring.
std::vector<u128> node_ids() {
  Rng rng(7);
  std::vector<u128> ids(1024);
  for (u128& id : ids) id = rng.next128();
  return ids;
}

void size_elements(benchmark::State& state,
                   const std::vector<core::DataElement>& elements) {
  for (auto _ : state) {
    std::size_t bytes = 0;
    for (const core::DataElement& e : elements)
      bytes += core::element_wire_size(e);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(elements.size()));
}

void BM_ElementWireSizeKeyword(benchmark::State& state) {
  size_elements(state, keyword_elements());
}

void BM_ElementWireSizeGeo(benchmark::State& state) {
  size_elements(state, geo_elements());
}

/// One accounting header per scan site: two ring ids plus counts.
void BM_ReplyWireSize(benchmark::State& state) {
  const std::vector<u128> ids = node_ids();
  std::size_t i = 0;
  for (auto _ : state) {
    const u128 from = ids[i % ids.size()];
    const u128 to = ids[(i + 1) % ids.size()];
    benchmark::DoNotOptimize(
        core::reply_wire_size(from, to, 600, 600, 24'000));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SaveMessageReply600(benchmark::State& state) {
  const std::vector<u128> ids = node_ids();
  core::msg::Reply reply;
  reply.from = ids[0];
  reply.to = ids[1];
  reply.count = kElements;
  reply.elements = keyword_elements();
  const core::msg::Message message{reply};
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    bytes = core::save_message(message, out);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}

void BM_SaveMessagePublish(benchmark::State& state) {
  const std::vector<u128> ids = node_ids();
  core::msg::PublishRequest publish;
  publish.seq = 123456;
  publish.origin = ids[0];
  publish.to = ids[1];
  publish.element = geo_elements().front();
  const core::msg::Message message{publish};
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    bytes = core::save_message(message, out);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}

void BM_ToStringU128(benchmark::State& state) {
  const std::vector<u128> ids = node_ids();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(to_string(ids[i % ids.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

} // namespace

BENCHMARK(BM_ElementWireSizeKeyword);
BENCHMARK(BM_ElementWireSizeGeo);
BENCHMARK(BM_ReplyWireSize);
BENCHMARK(BM_SaveMessageReply600);
BENCHMARK(BM_SaveMessagePublish);
BENCHMARK(BM_ToStringU128);
