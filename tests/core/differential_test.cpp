// Differential fuzzing across engine configurations: for random corpora and
// random queries, the distributed engine, the centralized decomposition,
// and a global scan must agree exactly — under every curve family, finger
// base, aggregation setting, and caching setting.

#include <gtest/gtest.h>

#include <string>

#include "squid/core/system.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

using namespace testing_support;

class EngineDifferential : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(EngineDifferential, AllResolutionPathsAgree) {
  // Network, corpus and queries share one stream.
  Rng rng(0xd1ff ^ std::get<1>(GetParam()));
  const LetterWorld world = make_letter_world(rng, {}, config_of(GetParam()));
  const SquidSystem& sys = *world.sys;

  for (int trial = 0; trial < 40; ++trial) {
    const keyword::Query q = random_letter_query(rng);
    const std::vector<std::string> expected =
        oracle_names(sys.space(), world.all, q);
    const auto origin = sys.ring().random_node(rng);
    const auto distributed = sys.query(q, origin);
    ASSERT_EQ(sorted_names(distributed.elements), expected)
        << keyword::to_string(q) << " [distributed]";
    const auto centralized = sys.query_centralized(q, origin);
    ASSERT_EQ(sorted_names(centralized.elements), expected)
        << keyword::to_string(q) << " [centralized]";
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, EngineDifferential,
                         ::testing::ValuesIn(kEngineMatrix), config_name);

} // namespace
} // namespace squid::core
