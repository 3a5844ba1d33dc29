// Parameterised sweeps over topology-generator configurations: every
// generated world must be connected, role-partitioned, and structurally
// consistent (provider relations match link kinds).
#include <gtest/gtest.h>

#include <type_traits>

#include "net/topo_gen.h"

namespace adtc {
namespace {

// Four bytes wide so TopoCase has no padding: gtest names each case after
// the raw bytes of its parameter, and uninitialised padding bytes would give
// the same case a different name on every run.
enum class Generator : std::uint32_t { kTransitStub = 0, kPowerLaw = 1 };

struct TopoCase {
  Generator generator;
  std::uint32_t size;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<TopoCase>,
              "TopoCase must have no padding bytes");

class TopologyPropertyTest : public ::testing::TestWithParam<TopoCase> {
 protected:
  void Build(Network& net, TopologyInfo& info) {
    const TopoCase& c = GetParam();
    if (c.generator == Generator::kPowerLaw) {
      PowerLawParams params;
      params.node_count = c.size;
      info = BuildPowerLaw(net, params);
    } else {
      TransitStubParams params;
      params.transit_count = std::max<std::uint32_t>(3, c.size / 12);
      params.stub_count = c.size - params.transit_count;
      info = BuildTransitStub(net, params);
    }
  }
};

TEST_P(TopologyPropertyTest, FullyConnected) {
  Network net(GetParam().seed);
  TopologyInfo info;
  Build(net, info);
  for (NodeId node = 0; node < net.node_count(); ++node) {
    EXPECT_NE(net.HopDistance(0, node), UINT32_MAX) << "node " << node;
  }
}

TEST_P(TopologyPropertyTest, RolesPartitionNodes) {
  Network net(GetParam().seed);
  TopologyInfo info;
  Build(net, info);
  std::vector<int> seen(net.node_count(), 0);
  for (NodeId node : info.transit_nodes) seen[node]++;
  for (NodeId node : info.stub_nodes) seen[node]++;
  for (NodeId node = 0; node < net.node_count(); ++node) {
    EXPECT_EQ(seen[node], 1) << "node " << node;
  }
}

TEST_P(TopologyPropertyTest, ProviderRelationsMatchLinkKinds) {
  Network net(GetParam().seed);
  TopologyInfo info;
  Build(net, info);
  for (NodeId customer = 0; customer < net.node_count(); ++customer) {
    for (NodeId provider : info.providers[customer]) {
      bool found = false;
      for (const auto& [neighbour, link] : net.node(customer).neighbours) {
        if (neighbour == provider) {
          EXPECT_EQ(net.link(link).kind, LinkKind::kCustomerToProvider);
          found = true;
        }
      }
      EXPECT_TRUE(found) << customer << " -> " << provider;
      // And the reverse registration exists.
      const auto& customers = info.customers[provider];
      EXPECT_NE(std::find(customers.begin(), customers.end(), customer),
                customers.end());
    }
  }
}

TEST_P(TopologyPropertyTest, CustomerConesAreClosedUnderDescent) {
  Network net(GetParam().seed);
  TopologyInfo info;
  Build(net, info);
  // For a few roots: every member's customers are also members.
  for (NodeId root = 0; root < net.node_count();
       root += std::max<NodeId>(1, net.node_count() / 7)) {
    const auto cone = info.CustomerCone(root);
    std::vector<bool> in_cone(net.node_count(), false);
    for (NodeId member : cone) in_cone[member] = true;
    EXPECT_TRUE(in_cone[root]);
    for (NodeId member : cone) {
      for (NodeId customer : info.customers[member]) {
        EXPECT_TRUE(in_cone[customer])
            << customer << " missing from cone of " << root;
      }
    }
  }
}

TEST_P(TopologyPropertyTest, RoutingIsSymmetricInHopCount) {
  Network net(GetParam().seed);
  TopologyInfo info;
  Build(net, info);
  Rng rng(GetParam().seed);
  for (int i = 0; i < 50; ++i) {
    const NodeId a = static_cast<NodeId>(rng.NextBelow(net.node_count()));
    const NodeId b = static_cast<NodeId>(rng.NextBelow(net.node_count()));
    EXPECT_EQ(net.HopDistance(a, b), net.HopDistance(b, a));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopologyPropertyTest,
    ::testing::Values(TopoCase{Generator::kTransitStub, 40, 1},
                      TopoCase{Generator::kTransitStub, 120, 2},
                      TopoCase{Generator::kTransitStub, 300, 3},
                      TopoCase{Generator::kPowerLaw, 60, 4},
                      TopoCase{Generator::kPowerLaw, 200, 5},
                      TopoCase{Generator::kPowerLaw, 400, 6}),
    [](const ::testing::TestParamInfo<TopoCase>& info) {
      return std::string(info.param.generator == Generator::kPowerLaw
                             ? "PowerLaw"
                             : "TransitStub") +
             std::to_string(info.param.size) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace adtc
