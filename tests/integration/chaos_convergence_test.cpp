// Seeded chaos over the fault-injected control plane (Sec. 5.1): heavy
// message loss, duplication and jitter on every control channel, a TCSP
// outage window, and a device that is crashed through the first
// deployment. The invariants under test:
//   * eventual convergence — every managed device ends up carrying every
//     deployment despite the fault plan (retries + anti-entropy resync);
//   * exactly-once effects — no device applies an instruction twice and
//     no NMS double-counts an installation, no matter how many times the
//     channels re-deliver;
//   * graceful degradation — a deploy requested during the TCSP outage
//     takes the peer-mesh relay path instead of failing.
#include <gtest/gtest.h>

#include "core/tcsp.h"
#include "obs/trace_analysis.h"
#include "sim/faults.h"
#include "testutil.h"

namespace adtc {
namespace {

using testing::SmallWorld;

struct ChaosWorld : SmallWorld {
  NumberAuthority authority;
  FaultInjector injector;
  Tcsp tcsp;
  std::vector<std::unique_ptr<IspNms>> nmses;
  /// Records every control-plane span for the trace-completeness check.
  obs::MemoryTelemetrySink sink;

  explicit ChaosWorld(std::uint64_t fault_seed, TcspConfig config)
      : SmallWorld(42),
        injector(fault_seed),
        tcsp(net, authority, "tcsp-signing-key", config) {
    net.telemetry().AttachSink(&sink);
    AllocateTopologyPrefixes(authority, net.node_count());
    for (NodeId node = 0; node < net.node_count(); ++node) {
      auto nms = std::make_unique<IspNms>(
          "isp-" + std::to_string(node), net, &tcsp.validator());
      nms->ManageNode(node);
      tcsp.EnrollIsp(nms.get());
      nmses.push_back(std::move(nms));
    }
    tcsp.AttachFaultInjector(&injector);
  }

  std::size_t TotalDeployments(SubscriberId subscriber) const {
    std::size_t total = 0;
    for (const auto& nms : nmses) {
      total += nms->CountDeployments(subscriber);
    }
    return total;
  }
};

class ChaosConvergenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosConvergenceTest, ConvergesExactlyOnceUnderChaos) {
  TcspConfig config;
  config.retry.initial_backoff = Milliseconds(20);
  config.retry.max_backoff = Milliseconds(500);
  config.retry.max_attempts = 6;
  config.retry.deadline = Seconds(20);
  config.relay_fallback = true;
  ChaosWorld world(GetParam(), config);

  // 30% loss plus duplication and delivery jitter on every channel.
  ChannelFaults faults;
  faults.loss = 0.3;
  faults.duplicate = 0.2;
  faults.jitter_max = Milliseconds(30);
  world.injector.SetDefaultFaults(faults);
  // One device is crashed from the start and recovers at t=10s.
  const NodeId crashed = 5;
  world.injector.AddDeviceOutage(crashed, 0, Seconds(10));
  // The TCSP itself is under attack during [2s, 4s).
  world.injector.AddTcspOutage(Seconds(2), Seconds(4));

  // Both certificates are issued while the TCSP is up.
  const auto cert1 = world.tcsp.Register("as7", {NodePrefix(7)});
  const auto cert2 = world.tcsp.Register("as9", {NodePrefix(9)});
  ASSERT_TRUE(cert1.ok() && cert2.ok());

  ServiceRequest request1;
  request1.kind = ServiceKind::kRemoteIngressFiltering;
  request1.placement = PlacementPolicy::kAllManagedNodes;
  request1.control_scope = {NodePrefix(7)};

  bool completed = false;
  DeploymentReport report1;
  world.tcsp.DeployService(cert1.value(), request1,
                           CompletionPolicy::kLatencyModelled,
                           [&](const DeploymentReport& report) {
                             completed = true;
                             report1 = report;
                           });
  for (auto& nms : world.nmses) nms->StartResync(Seconds(5));

  // Into the TCSP outage window: the second deployment cannot reach the
  // TCSP and degrades to the peer-mesh relay.
  world.net.Run(Seconds(3));
  ServiceRequest request2;
  request2.kind = ServiceKind::kRemoteIngressFiltering;
  request2.placement = PlacementPolicy::kAllManagedNodes;
  request2.control_scope = {NodePrefix(9)};
  const DeploymentReport report2 =
      world.tcsp.DeployService(cert2.value(), request2);
  EXPECT_EQ(report2.path, DeployPath::kRelayed);
  EXPECT_EQ(world.tcsp.stats().relay_fallbacks, 1u);

  world.net.Run(Seconds(60));
  for (auto& nms : world.nmses) nms->StopResync();
  world.net.Run(Seconds(10));

  // The direct deployment completed (possibly with per-ISP retries).
  ASSERT_TRUE(completed);
  EXPECT_EQ(report1.isp_outcomes.size(), world.nmses.size());

  // Eventual convergence: every device carries both deployments.
  EXPECT_EQ(world.TotalDeployments(cert1.value().subscriber),
            world.net.node_count());
  EXPECT_EQ(world.TotalDeployments(cert2.value().subscriber),
            world.net.node_count());
  // The crashed device was recovered by the anti-entropy path.
  EXPECT_EQ(world.nmses[crashed]->CountDeployments(
                cert1.value().subscriber),
            1u);

  // Exactly-once effects: despite duplicated and retried instructions,
  // each device applied at most one effectful install per deployment and
  // each NMS counted each deployment once.
  for (const auto& nms : world.nmses) {
    for (NodeId node : nms->managed_nodes()) {
      const DeviceStats& stats = nms->device(node)->stats();
      EXPECT_LE(stats.installs_applied, 2u)
          << "device " << node << " applied an install twice";
      EXPECT_EQ(nms->device(node)->deployment_count(), 2u);
    }
    EXPECT_LE(nms->stats().deployments_installed, 2u);
    EXPECT_LE(nms->applied_instruction_count(), 2u);
  }

  // The chaos was real: messages were actually lost, and the control
  // plane worked around them.
  EXPECT_GT(world.injector.stats().messages_lost, 0u);
  EXPECT_GT(world.injector.stats().messages_duplicated, 0u);

  // Forensic completeness: after all the loss, duplication, relays and
  // resync sweeps, every deployment's spans still reassemble into a
  // single rooted causal tree (no orphan spans), and no span leaked
  // open.
  EXPECT_EQ(world.net.telemetry().tracer().open_span_count(), 0u);
  obs::TraceAnalyzer analyzer;
  analyzer.Analyze(world.sink.spans());
  EXPECT_EQ(analyzer.summary().deployment_count, 2u);
  for (const auto& [tag, timeline] : analyzer.timelines()) {
    EXPECT_TRUE(timeline.Complete())
        << "deployment " << tag << ": " << timeline.roots.size()
        << " roots, " << timeline.orphan_count << " orphan span(s)";
  }
  EXPECT_TRUE(analyzer.AllComplete());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosConvergenceTest,
                         ::testing::Values(3u, 7u, 31u));

TEST(ChaosConvergenceTest, RouterRestartRecoversViaResync) {
  // A router crash/restart wipes the adaptive device's RAM mid-attack:
  // module graphs and install records are gone. The anti-entropy
  // machinery must notice and re-converge the device, and live traffic
  // must be redirected into it again.
  TcspConfig config;
  ChaosWorld world(/*fault_seed=*/5, config);
  const NodeId home = world.topo.stub_nodes[0];
  const LinkParams fast{GigabitsPerSecond(1), Milliseconds(1), 1024 * 1024};
  auto* server = SpawnHost<Server>(world.net, home, fast);
  ClientConfig cconfig;
  cconfig.server = server->address();
  cconfig.kind = RequestKind::kUdpRequest;
  cconfig.request_rate = 200.0;
  auto* client = SpawnHost<Client>(world.net, world.topo.stub_nodes[5],
                                   fast, cconfig);

  const auto cert = world.tcsp.Register(AsOrgName(home), {NodePrefix(home)});
  ASSERT_TRUE(cert.ok());
  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.placement = PlacementPolicy::kAllManagedNodes;
  request.control_scope = {NodePrefix(home)};
  ASSERT_TRUE(world.tcsp.DeployService(cert.value(), request).status.ok());

  AdaptiveDevice* device = world.nmses[home]->device(home);
  client->Start();
  world.net.Run(Seconds(3));
  ASSERT_TRUE(device->HasDeployment(cert.value().subscriber));
  ASSERT_GT(device->stats().redirected_packets, 0u);
  EXPECT_EQ(device->stats().installs_applied, 1u);

  // Crash at t=5s; arming is idempotent, so re-arming after adding the
  // restart to the already-attached injector schedules exactly one event.
  world.injector.AddRouterRestart(home, Seconds(5));
  world.nmses[home]->ArmRouterRestarts();
  world.nmses[home]->ArmRouterRestarts();
  for (auto& nms : world.nmses) nms->StartResync(Seconds(2));
  world.net.Run(Seconds(9));
  for (auto& nms : world.nmses) nms->StopResync();

  // The restart really happened and really wiped state...
  EXPECT_EQ(device->stats().restarts, 1u);
  EXPECT_EQ(world.nmses[home]->stats().device_restarts, 1u);
  // ...and the control plane re-converged the device: the deployment is
  // back (a second effectful install, not a replayed record) and the
  // still-running traffic is redirected into it again.
  EXPECT_TRUE(device->HasDeployment(cert.value().subscriber));
  EXPECT_EQ(device->deployment_count(), 1u);
  EXPECT_EQ(device->stats().installs_applied, 2u);
  const std::uint64_t redirected = device->stats().redirected_packets;
  world.net.Run(Seconds(1));
  EXPECT_GT(device->stats().redirected_packets, redirected);
}

TEST(ChaosConvergenceTest, FaultFreeInjectorIsBehaviourallyInert) {
  // Attaching an injector with an all-zero plan must not change the
  // outcome of a plain immediate deployment.
  TcspConfig config;
  ChaosWorld world(/*fault_seed=*/1, config);
  const auto cert = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(cert.ok());
  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.placement = PlacementPolicy::kAllManagedNodes;
  request.control_scope = {NodePrefix(7)};
  world.tcsp.DeployService(cert.value(), request);
  world.net.Run(Seconds(5));
  EXPECT_EQ(world.TotalDeployments(cert.value().subscriber),
            world.net.node_count());
  EXPECT_EQ(world.injector.stats().messages_lost, 0u);
  for (const auto& nms : world.nmses) {
    EXPECT_EQ(nms->stats().install_retries, 0u);
  }
}

}  // namespace
}  // namespace adtc
