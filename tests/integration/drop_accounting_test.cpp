// Drop accounting: the world's Metrics cells (net/metrics.h) are the one
// record of a dropped packet. Every other view of a drop is derived from
// or refines them, and must agree with them once a seeded world has run
// to quiescence (no packet left in flight):
//   * the registry's net.drops.<reason> cells, at any shard count;
//   * the adaptive devices' per-policy counters, which refine
//     DropReason::kFiltered when devices are the only processors;
//   * the fault injector's own tallies, which are the only per-fault
//     record of injected link loss, corruption and flaps.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "attack/scenario.h"
#include "core/tcsp.h"
#include "net/topo_gen.h"
#include "sim/faults.h"

namespace adtc {
namespace {

constexpr std::uint32_t kRegions = 2;
constexpr std::uint32_t kStubsPerRegion = 6;
constexpr std::uint64_t kSeed = 77;

/// The ring's region of a node, independent of the shard count.
std::uint32_t RegionOf(NodeId node) {
  return node < kRegions
             ? static_cast<std::uint32_t>(node)
             : static_cast<std::uint32_t>(node - kRegions) / kStubsPerRegion;
}

double Find(const obs::MetricsSnapshot& snapshot, std::string_view name) {
  for (const obs::MetricValue& metric : snapshot) {
    if (metric.name == name) return metric.value;
  }
  ADD_FAILURE() << "metric " << name << " not exported";
  return -1.0;
}

/// Sum of every metric named `<prefix>...<infix>...`.
double SumMatching(const obs::MetricsSnapshot& snapshot,
                   std::string_view prefix, std::string_view infix) {
  double total = 0.0;
  for (const obs::MetricValue& metric : snapshot) {
    const std::string_view name = metric.name;
    if (name.starts_with(prefix) &&
        name.find(infix, prefix.size()) != std::string_view::npos) {
      total += metric.value;
    }
  }
  return total;
}

struct DropWorldResult {
  Metrics metrics;
  obs::MetricsSnapshot snapshot;
};

/// A two-region ring under a spoofed direct flood, with ingress filtering
/// for the victim on every router, run until no event is left. The only
/// packet processors are the NMSes' adaptive devices.
DropWorldResult RunDropWorld(std::size_t num_shards, double flood_pps,
                             FaultInjector* injector) {
  Network net(kSeed, num_shards);
  RegionRingParams topo_params;
  topo_params.regions = kRegions;
  topo_params.stubs_per_region = kStubsPerRegion;
  const TopologyInfo topo = BuildRegionRing(net, topo_params);

  NumberAuthority authority;
  AllocateTopologyPrefixes(authority, net.node_count());
  Tcsp tcsp(net, authority, "drop-key");
  std::vector<std::unique_ptr<IspNms>> nmses;
  for (std::uint32_t r = 0; r < kRegions; ++r) {
    auto nms = std::make_unique<IspNms>("region-" + std::to_string(r), net,
                                        &tcsp.validator());
    for (NodeId node = 0; node < net.node_count(); ++node) {
      if (RegionOf(node) == r) nms->ManageNode(node);
    }
    nmses.push_back(std::move(nms));
  }

  ScenarioParams params;
  params.master_count = 2;
  params.agents_per_master = 8;
  params.reflector_count = 2;
  params.client_count = 4;
  params.client_kind = RequestKind::kUdpRequest;
  // Thin access links, so a fast flood overflows the agents' uplinks.
  params.host_access = {MegabitsPerSecond(2), Milliseconds(2), 16 * 1024};
  params.directive.type = AttackType::kDirectFlood;
  params.directive.spoof = SpoofMode::kRandom;
  params.directive.rate_pps = flood_pps;
  params.directive.packet_bytes = 1000;
  params.directive.duration = Seconds(2);
  Scenario scenario = BuildAttackScenario(net, topo, params);

  if (injector != nullptr) {
    tcsp.AttachFaultInjector(injector);  // exports faults.*
    net.AttachFaultInjector(injector);
    LinkFaults faults;
    faults.loss = 0.02;
    faults.corrupt = 0.02;
    injector->SetDefaultLinkFaults(faults);
    injector->AddLinkFlap(net.host(scenario.victim_host).downlink,
                          Milliseconds(500), Milliseconds(900));
  }

  const Prefix scope = NodePrefix(scenario.victim_node);
  const auto cert = tcsp.Register(AsOrgName(scenario.victim_node), {scope});
  EXPECT_TRUE(cert.ok());
  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.placement = PlacementPolicy::kAllManagedNodes;
  request.control_scope = {scope};
  for (auto& nms : nmses) {
    const DeploymentInstruction instr{
        DeploymentId{DeploymentOriginTag(nms->name()), 1}, cert.value(),
        request, {scenario.victim_node}};
    const Status status =
        nms->ApplyDeployment(instr, tcsp.certificate_authority());
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  scenario.attacker->Launch();
  net.Run(Seconds(3));
  for (Client* client : scenario.clients) client->Stop();
  net.RunToCompletion();

  return {net.metrics(), net.telemetry().registry().TakeSnapshot()};
}

std::uint64_t DroppedAllClasses(const Metrics& metrics, DropReason reason) {
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    total += metrics.dropped(static_cast<TrafficClass>(c), reason);
  }
  return total;
}

void ExpectNetDropsMatchCells(const DropWorldResult& world) {
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    const auto reason = static_cast<DropReason>(r);
    EXPECT_EQ(Find(world.snapshot,
                   "net.drops." + std::string(DropReasonName(reason))),
              static_cast<double>(DroppedAllClasses(world.metrics, reason)))
        << DropReasonName(reason);
  }
}

TEST(DropAccountingTest, NetAndDeviceDropsMatchMetricsCellsAt1And2Shards) {
  const DropWorldResult one = RunDropWorld(1, 400.0, nullptr);
  const DropWorldResult two = RunDropWorld(2, 400.0, nullptr);
  // The world exercised more than one drop reason.
  EXPECT_GT(DroppedAllClasses(one.metrics, DropReason::kFiltered), 0u);
  EXPECT_GT(DroppedAllClasses(one.metrics, DropReason::kQueueFull), 0u);
  for (const DropWorldResult* world : {&one, &two}) {
    ExpectNetDropsMatchCells(*world);
    // The devices are the only processors, so their policy drops are
    // exactly the world's filtered drops.
    const double filtered = static_cast<double>(
        DroppedAllClasses(world->metrics, DropReason::kFiltered));
    EXPECT_EQ(SumMatching(world->snapshot, "device.as", ".drops."),
              filtered);
    EXPECT_EQ(SumMatching(world->snapshot, "device.as", ".dropped_packets"),
              filtered);
  }
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    const auto reason = static_cast<DropReason>(r);
    EXPECT_EQ(DroppedAllClasses(one.metrics, reason),
              DroppedAllClasses(two.metrics, reason))
        << DropReasonName(reason);
  }
}

TEST(DropAccountingTest, LinkFaultDropsEqualInjectorTallies) {
  // A light flood keeps every queue short: a frame the injector marks
  // corrupt but a full queue then refuses is a queue drop, not a fault.
  FaultInjector injector(5);
  const DropWorldResult world = RunDropWorld(1, 20.0, &injector);
  ASSERT_EQ(DroppedAllClasses(world.metrics, DropReason::kQueueFull), 0u);
  const FaultInjectorStats& faults = injector.stats();
  EXPECT_GT(faults.packets_lost, 0u);
  EXPECT_GT(faults.packets_corrupted, 0u);
  EXPECT_GT(faults.link_down_drops, 0u);
  ExpectNetDropsMatchCells(world);
  EXPECT_EQ(Find(world.snapshot, "net.drops.link_fault"),
            Find(world.snapshot, "faults.packets_lost") +
                Find(world.snapshot, "faults.packets_corrupted") +
                Find(world.snapshot, "faults.link_down_drops"));
}

}  // namespace
}  // namespace adtc
