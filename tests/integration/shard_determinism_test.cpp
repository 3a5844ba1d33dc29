// The sharded engine's acceptance gate: one seed, one world, run on 1,
// 2 and 4 shards, must end in the SAME state — every packet counter,
// every host's statistics, every trace tree. This holds because the
// world follows the shard-affinity contract of docs/sharding.md:
// per-entity RNG streams (forked at attach time, on the main thread),
// per-origin packet serials, co-located NMS+devices, and cross-shard
// links whose latency is at least the engine epoch.
//
// Deployments are installed through each region's IspNms directly
// (NMS and devices share a shard, so installation is synchronous and
// pre-run); the cross-shard TCSP path is exercised by the TSan stress
// test instead, where exact-counter equality is not asserted.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/scenario.h"
#include "core/tcsp.h"
#include "obs/telemetry.h"
#include "obs/trace_analysis.h"

namespace adtc {
namespace {

constexpr std::uint32_t kRegions = 4;
constexpr std::uint32_t kStubsPerRegion = 6;
constexpr std::uint64_t kSeed = 2026;

std::uint32_t RegionOf(NodeId node) {
  return node < kRegions
             ? static_cast<std::uint32_t>(node)
             : static_cast<std::uint32_t>(node - kRegions) / kStubsPerRegion;
}

/// Every observable quantity of a finished run, flattened for equality.
struct WorldResult {
  std::vector<std::uint64_t> metrics;        // per-class sends/deliveries/drops
  std::vector<std::uint64_t> victim;         // server resource counters
  std::vector<std::uint64_t> clients;        // per-client request outcomes
  std::vector<double> client_latency;        // per-client latency summaries
  std::uint64_t attack_sent = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t deployments_installed = 0;
  std::size_t span_count = 0;
  std::size_t trace_deployments = 0;
  bool traces_complete = false;

  bool operator==(const WorldResult&) const = default;
};

WorldResult RunShardedWorld(std::size_t num_shards) {
  Network net(kSeed, num_shards);
  RegionRingParams topo_params;
  topo_params.regions = kRegions;
  topo_params.stubs_per_region = kStubsPerRegion;
  const TopologyInfo topo = BuildRegionRing(net, topo_params);

  obs::MemoryTelemetrySink sink;
  net.telemetry().AttachSink(&sink);

  NumberAuthority authority;
  AllocateTopologyPrefixes(authority, net.node_count());
  Tcsp tcsp(net, authority, "shard-key");

  // One NMS per region: all of its managed nodes live on one shard.
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
  params.master_count = 1;
  params.agents_per_master = 8;
  params.reflector_count = 4;
  params.client_count = 8;
  params.client_request_rate = 25.0;
  params.directive.type = AttackType::kDirectFlood;
  params.directive.spoof = SpoofMode::kRandom;
  params.directive.rate_pps = 200.0;
  params.directive.duration = Seconds(2);
  Scenario scenario = BuildAttackScenario(net, topo, params);

  // Subscribe the victim and install ingress filtering region by region:
  // NMS -> device is same-shard, so every install completes inline here,
  // before the first event runs.
  const Prefix scope = NodePrefix(scenario.victim_node);
  const auto cert = tcsp.Register(AsOrgName(scenario.victim_node), {scope});
  EXPECT_TRUE(cert.ok());
  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.placement = PlacementPolicy::kAllManagedNodes;
  request.control_scope = {scope};
  for (auto& nms : nmses) {
    // Each region's NMS is its own issuer, so each deployment is its own
    // trace tree.
    const DeploymentInstruction instr{
        DeploymentId{DeploymentOriginTag(nms->name()), 1}, cert.value(),
        request, {scenario.victim_node}};
    const Status status =
        nms->ApplyDeployment(instr, tcsp.certificate_authority());
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  scenario.attacker->Launch();
  net.Run(Seconds(4));

  WorldResult result;
  const Metrics metrics = net.metrics();
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    result.metrics.push_back(metrics.packets_sent[c]);
    result.metrics.push_back(metrics.packets_delivered[c]);
    result.metrics.push_back(metrics.bytes_sent[c]);
    result.metrics.push_back(metrics.bytes_delivered[c]);
    for (std::size_t r = 0; r < kDropReasonCount; ++r) {
      result.metrics.push_back(metrics.packets_dropped[c][r]);
    }
  }
  result.metrics.push_back(metrics.attack_byte_hops);
  result.metrics.push_back(metrics.legit_byte_hops);

  const ServerStats& v = scenario.victim->stats();
  result.victim = {v.requests_received, v.legit_requests_received,
                   v.replies_sent,      v.denied_cpu,
                   v.legit_denied_cpu,  v.denied_conn_table,
                   v.handshakes_completed};
  for (const Client* client : scenario.clients) {
    result.clients.push_back(client->stats().requests_sent);
    result.clients.push_back(client->stats().responses_received);
    result.clients.push_back(client->stats().timeouts);
    result.client_latency.push_back(client->stats().latency_ms.mean());
    result.client_latency.push_back(client->stats().latency_ms.max());
  }
  result.attack_sent = scenario.AttackPacketsSent();
  result.executed_events = net.engine().executed_events();
  for (const auto& nms : nmses) {
    result.deployments_installed += nms->stats().deployments_installed;
  }

  // Engine-level invariants of the run itself.
  const ShardedStats& engine_stats = net.engine().stats();
  EXPECT_EQ(engine_stats.late_cross_events, 0u)
      << "a component posted cross-shard below the epoch lookahead";
  if (num_shards > 1) {
    EXPECT_GT(engine_stats.cross_shard_events, 0u)
        << "the world was supposed to exercise cross-shard traffic";
    EXPECT_GT(engine_stats.epochs, 0u);
  }

  // Trace-tree completeness: the deployment spans reassemble into one
  // rooted tree per deployment, independent of the shard count.
  result.span_count = sink.spans().size();
  obs::TraceAnalyzer analyzer;
  analyzer.Analyze(sink.spans());
  result.trace_deployments = analyzer.summary().deployment_count;
  result.traces_complete = analyzer.AllComplete();
  return result;
}

TEST(ShardDeterminismTest, EndStateIsIdenticalFor1_2_4Shards) {
  const WorldResult one = RunShardedWorld(1);
  // The world actually did things worth comparing.
  EXPECT_GT(one.attack_sent, 0u);
  EXPECT_GT(one.metrics[0], 0u);  // legitimate packets sent
  EXPECT_GT(one.deployments_installed, 0u);
  EXPECT_TRUE(one.traces_complete);
  EXPECT_EQ(one.trace_deployments, kRegions);

  const WorldResult two = RunShardedWorld(2);
  const WorldResult four = RunShardedWorld(4);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(ShardDeterminismTest, SameShardCountIsBitReproducible) {
  const WorldResult a = RunShardedWorld(4);
  const WorldResult b = RunShardedWorld(4);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace adtc
