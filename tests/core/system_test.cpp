#include "squid/core/system.hpp"

#include <gtest/gtest.h>

#include "squid/core/update.hpp"
#include "squid/stats/summary.hpp"
#include "squid/util/rng.hpp"
#include "support/differential.hpp"

namespace squid::core {
namespace {

keyword::KeywordSpace small_doc_space() {
  return testing_support::letter_space("abcd");
}

DataElement doc(std::string name, std::string k1, std::string k2) {
  return DataElement{std::move(name),
                     {keyword::Token{std::move(k1)}, keyword::Token{std::move(k2)}}};
}

TEST(SquidSystem, BuildsNetworkOverCurveSizedRing) {
  Rng rng(1);
  SquidSystem sys(small_doc_space());
  EXPECT_EQ(sys.ring().id_bits(), sys.curve().index_bits());
  sys.build_network(40, rng);
  EXPECT_EQ(sys.ring().size(), 40u);
  EXPECT_TRUE(sys.ring().ring_consistent());
}

TEST(SquidSystem, PublishGroupsElementsByKey) {
  Rng rng(2);
  SquidSystem sys(small_doc_space());
  sys.build_network(10, rng);
  sys.publish(doc("e1", "abc", "bcd"));
  sys.publish(doc("e2", "abc", "bcd")); // same keyword combination
  sys.publish(doc("e3", "abc", "dcb"));
  EXPECT_EQ(sys.key_count(), 2u);
  EXPECT_EQ(sys.element_count(), 3u);
}

TEST(SquidSystem, NodeLoadsSumToKeyCount) {
  Rng rng(3);
  const testing_support::LetterWorld world = testing_support::make_letter_world(
      rng, {.letters = "abcd", .nodes = 25, .elements = 300, .name = "d"});
  std::size_t total = 0;
  for (const auto& [id, load] : world.sys->node_loads()) total += load;
  EXPECT_EQ(total, world.sys->key_count());
}

TEST(SquidSystem, PublishUpdateReachesTheOwner) {
  Rng rng(4);
  SquidSystem sys(small_doc_space());
  sys.build_network(30, rng);
  const auto element = doc("routed", "cab", "dad");
  const auto origin = sys.ring().random_node(rng);
  const UpdateResult result = publish_update(sys, element, origin);
  ASSERT_TRUE(result.delivered);
  EXPECT_TRUE(result.applied);
  EXPECT_EQ(sys.element_count(), 1u);
  // The one key must sit at the owner of the element's index, reached over
  // the overlay route from the origin.
  const u128 index = sys.curve().index_of(sys.space().encode(element.keys));
  EXPECT_EQ(result.hops, sys.ring().route(origin, index).hops());
  for (const auto& [node, load] : sys.node_loads())
    EXPECT_EQ(load, node == sys.owner_of(index) ? 1u : 0u);
}

TEST(SquidSystem, QueryRequiresLiveOrigin) {
  Rng rng(5);
  SquidSystem sys(small_doc_space());
  sys.build_network(5, rng);
  const keyword::Query q = sys.space().parse("(a*, *)");
  EXPECT_THROW((void)sys.query(q, /*origin=*/sys.ring().id_mask()),
               std::invalid_argument);
}

TEST(SquidSystem, TopologyChangesPreserveConsistency) {
  Rng rng(6);
  SquidSystem sys(small_doc_space());
  sys.build_network(30, rng);
  for (int i = 0; i < 10; ++i) (void)sys.join_node(rng);
  EXPECT_EQ(sys.ring().size(), 40u);
  EXPECT_TRUE(sys.ring().ring_consistent());
  for (int i = 0; i < 10; ++i) sys.leave_node(sys.ring().random_node(rng));
  EXPECT_EQ(sys.ring().size(), 30u);
  EXPECT_TRUE(sys.ring().ring_consistent());
}

TEST(SquidSystem, CurveFamilyIsConfigurable) {
  SquidConfig config;
  config.curve = "zorder";
  SquidSystem sys(small_doc_space(), config);
  EXPECT_EQ(sys.curve().name(), "zorder");
  SquidConfig bad;
  bad.curve = "peano";
  EXPECT_THROW(SquidSystem(small_doc_space(), bad), std::invalid_argument);
}

} // namespace
} // namespace squid::core
