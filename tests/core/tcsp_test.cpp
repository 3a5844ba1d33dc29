#include "core/tcsp.h"

#include <gtest/gtest.h>

#include "core/traceback_service.h"
#include "sim/faults.h"
#include "testutil.h"

namespace adtc {
namespace {

using testing::SmallWorld;

/// A world with a number authority, a TCSP and one NMS per AS.
struct TcsWorld : SmallWorld {
  NumberAuthority authority;
  Tcsp tcsp;
  std::vector<std::unique_ptr<IspNms>> nmses;

  explicit TcsWorld(std::uint64_t seed = 42, TcspConfig config = {})
      : SmallWorld(seed), tcsp(net, authority, "tcsp-signing-key", config) {
    AllocateTopologyPrefixes(authority, net.node_count());
    // One ISP per AS, each managing its own router.
    for (NodeId node = 0; node < net.node_count(); ++node) {
      auto nms = std::make_unique<IspNms>("isp-" + std::to_string(node), net,
                                          &tcsp.validator());
      nms->ManageNode(node);
      tcsp.EnrollIsp(nms.get());
      nmses.push_back(std::move(nms));
    }
  }
};

TEST(TcspTest, RegistrationVerifiesOwnership) {
  TcsWorld world;
  // as7 registers for its own prefix: accepted.
  const auto good = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good.value().subject, "as7");
  ADTC_EXPECT_OK(world.tcsp.certificate_authority().Verify(
      good.value(), world.net.Now()));

  // as7 claiming as8's prefix: rejected.
  const auto theft = world.tcsp.Register("as7", {NodePrefix(8)});
  EXPECT_FALSE(theft.ok());
  EXPECT_EQ(theft.status().code(), ErrorCode::kPermissionDenied);

  EXPECT_EQ(world.tcsp.stats().registrations_accepted, 1u);
  EXPECT_EQ(world.tcsp.stats().registrations_rejected, 1u);
}

TEST(TcspTest, RegistrationRejectsBadIdentity) {
  TcsWorld world;
  const auto result =
      world.tcsp.Register("as7", {NodePrefix(7)}, /*identity_ok=*/false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kPermissionDenied);
}

TEST(TcspTest, RegistrationRejectsEmptyClaim) {
  TcsWorld world;
  EXPECT_EQ(world.tcsp.Register("as7", {}).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(TcspTest, SubscriberIdsAreUnique) {
  TcsWorld world;
  const auto a = world.tcsp.Register("as1", {NodePrefix(1)});
  const auto b = world.tcsp.Register("as2", {NodePrefix(2)});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value().subscriber, b.value().subscriber);
}

TEST(TcspTest, ImmediateDeployConfiguresAllIsps) {
  TcsWorld world;
  const auto cert = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(cert.ok());

  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.placement = PlacementPolicy::kAllManagedNodes;
  request.control_scope = {NodePrefix(7)};
  const DeploymentReport report =
      world.tcsp.DeployService(cert.value(), request);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.isps_configured, world.net.node_count());
  EXPECT_EQ(report.devices_configured, world.net.node_count());
  // Every device now has the deployment.
  for (auto& nms : world.nmses) {
    EXPECT_EQ(nms->CountDeployments(cert.value().subscriber), 1u);
  }
}

TEST(TcspTest, DeploymentReportCarriesAnalysisProof) {
  TcsWorld world;
  const auto cert = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(cert.ok());
  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.placement = PlacementPolicy::kAllManagedNodes;
  request.control_scope = {NodePrefix(7)};
  const DeploymentReport report =
      world.tcsp.DeployService(cert.value(), request);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.analysis.status, analysis::AnalysisStatus::kProven);
  EXPECT_GT(report.analysis.modules_examined, 0u);
  EXPECT_GT(report.analysis.paths_covered, 0u);
  EXPECT_TRUE(report.analysis.violations.empty());
  // Every NMS admission of the per-stage graphs counted as a proof.
  EXPECT_GT(world.tcsp.validator().analysis_stats().graphs_verified, 0u);
  EXPECT_EQ(world.tcsp.validator().analysis_stats().graphs_rejected, 0u);
}

TEST(TcspTest, RuntimeViolationOfProvenDeploymentFlagsSoundness) {
  // The soundness-oracle loop: a deployment the analyzer proved safe is
  // later quarantined by the runtime guard (a module lied). The NMS must
  // flag the contradiction, count it on the shared validator, and log a
  // kAnalysisSoundness event next to the original violation.
  TcsWorld world;
  const auto cert = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(cert.ok());
  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.placement = PlacementPolicy::kAllManagedNodes;
  request.control_scope = {NodePrefix(7)};
  const DeploymentReport report =
      world.tcsp.DeployService(cert.value(), request);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  ASSERT_TRUE(report.analysis.proven());

  IspNms& nms = *world.nmses.front();
  DeviceEvent quarantine;
  quarantine.kind = EventKind::kSafetyViolation;
  quarantine.subscriber = cert.value().subscriber;
  quarantine.detail = "invariant source_modified";
  nms.OnEvent(quarantine);

  EXPECT_EQ(nms.stats().soundness_flags, 1u);
  EXPECT_EQ(world.tcsp.validator().analysis_stats().soundness_violations, 1u);
  EXPECT_EQ(nms.events().CountOf(EventKind::kAnalysisSoundness), 1u);
  EXPECT_EQ(nms.events().CountOf(EventKind::kSafetyViolation), 1u);

  // A violation from a subscriber with no proven deployment is NOT a
  // soundness flag — nothing was proven about it.
  DeviceEvent unrelated = quarantine;
  unrelated.subscriber = cert.value().subscriber + 1;
  nms.OnEvent(unrelated);
  EXPECT_EQ(nms.stats().soundness_flags, 1u);
  EXPECT_EQ(world.tcsp.validator().analysis_stats().soundness_violations, 1u);
}

TEST(TcspTest, PlacementPolicyRestrictsNodes) {
  TcsWorld world;
  const auto cert = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(cert.ok());
  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.placement = PlacementPolicy::kStubNodesOnly;
  request.control_scope = {NodePrefix(7)};
  const DeploymentReport report =
      world.tcsp.DeployService(cert.value(), request);
  ASSERT_TRUE(report.status.ok());
  EXPECT_EQ(report.devices_configured, world.topo.stub_nodes.size());
}

TEST(TcspTest, AsyncDeploymentModelsLatency) {
  TcsWorld world;
  const auto cert = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(cert.ok());
  ServiceRequest request;
  request.kind = ServiceKind::kDistributedFirewall;
  request.control_scope = {NodePrefix(7)};
  MatchRule deny_udp;
  deny_udp.proto = Protocol::kUdp;
  request.deny_rules = {deny_udp};

  bool completed = false;
  DeploymentReport report;
  world.tcsp.DeployService(cert.value(), request,
                           CompletionPolicy::kLatencyModelled,
                           [&](const DeploymentReport& r) {
                             completed = true;
                             report = r;
                           });
  EXPECT_FALSE(completed);  // nothing happens synchronously
  world.net.Run(Seconds(5));
  ASSERT_TRUE(completed);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_GT(report.Latency(), Milliseconds(80));  // at least two legs
  EXPECT_EQ(report.isps_configured, world.net.node_count());
}

TEST(TcspTest, UnreachableTcspFailsRequests) {
  TcsWorld world;
  const auto cert = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(cert.ok());
  world.tcsp.set_reachable(false);

  EXPECT_EQ(world.tcsp.Register("as8", {NodePrefix(8)}).status().code(),
            ErrorCode::kUnavailable);

  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.control_scope = {NodePrefix(7)};
  const DeploymentReport report =
      world.tcsp.DeployService(cert.value(), request);
  EXPECT_EQ(report.status.code(), ErrorCode::kUnavailable);
  EXPECT_GE(world.tcsp.stats().requests_while_unreachable, 2u);
}

TEST(TcspTest, PeerRelayWorksWithTcspDown) {
  TcsWorld world;
  // Register while the TCSP is still up (the certificate is durable).
  const auto cert = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(cert.ok());
  world.tcsp.set_reachable(false);

  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.control_scope = {NodePrefix(7)};
  // The user contacts one ISP directly; the config floods the peer mesh.
  const DeploymentInstruction instr{DeploymentId{DeploymentOriginTag("as7"), 1},
                                    cert.value(), request,
                                    Tcsp::HomeNodes(request.control_scope)};
  ADTC_ASSERT_OK(world.nmses[0]->RelayDeploy(
      instr, world.tcsp.certificate_authority()));

  std::size_t deployed = 0;
  for (auto& nms : world.nmses) {
    deployed += nms->CountDeployments(cert.value().subscriber);
  }
  EXPECT_EQ(deployed, world.net.node_count());
  EXPECT_GT(world.nmses[0]->stats().relays_forwarded, 0u);
}

TEST(TcspTest, RemoveServiceClearsAllDevices) {
  TcsWorld world;
  const auto cert = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(cert.ok());
  ServiceRequest request;
  request.kind = ServiceKind::kStatistics;
  request.control_scope = {NodePrefix(7)};
  ASSERT_TRUE(world.tcsp.DeployService(cert.value(), request).status.ok());
  ADTC_ASSERT_OK(world.tcsp.RemoveService(cert.value().subscriber));
  for (auto& nms : world.nmses) {
    EXPECT_EQ(nms->CountDeployments(cert.value().subscriber), 0u);
  }
}

TEST(TcspTest, ExpiredCertificateRejectedAtDeploy) {
  TcsWorld world;
  const auto cert = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(cert.ok());
  // Let simulated time pass beyond the certificate's validity.
  world.net.Run(Seconds(31LL * 24 * 3600));
  ServiceRequest request;
  request.kind = ServiceKind::kStatistics;
  request.control_scope = {NodePrefix(7)};
  const DeploymentReport report =
      world.tcsp.DeployService(cert.value(), request);
  EXPECT_EQ(report.status.code(), ErrorCode::kExpired);
}

TEST(TcspTest, HomeNodesDerivedFromScope) {
  const auto homes =
      Tcsp::HomeNodes({NodePrefix(3), NodePrefix(3), NodePrefix(9)});
  EXPECT_EQ(homes, (std::vector<NodeId>{3, 9}));
}

TEST(NmsTest, RejectsScopeOutsideCertificate) {
  TcsWorld world;
  const auto cert = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(cert.ok());
  ServiceRequest request;
  request.kind = ServiceKind::kStatistics;
  request.control_scope = {NodePrefix(8)};  // not owned
  const DeploymentReport report =
      world.tcsp.DeployService(cert.value(), request);
  EXPECT_EQ(report.status.code(), ErrorCode::kPermissionDenied);
  EXPECT_GT(world.nmses[0]->stats().deployments_rejected, 0u);
}

TEST(TcspTest, EnrollIspWiresFullMeshWithoutDuplicates) {
  TcsWorld world;
  // Every enrolled NMS peers with every other exactly once.
  for (const auto& nms : world.nmses) {
    EXPECT_EQ(nms->peer_count(), world.nmses.size() - 1);
  }
  // Re-enrolling must not double the mesh, and AddPeer rejects self and
  // duplicate edges on its own.
  world.tcsp.EnrollIsp(world.nmses[0].get());
  world.tcsp.EnrollIsp(nullptr);
  EXPECT_EQ(world.tcsp.isp_count(), world.nmses.size());
  world.nmses[0]->AddPeer(world.nmses[0].get());
  world.nmses[0]->AddPeer(world.nmses[1].get());
  world.nmses[0]->AddPeer(nullptr);
  EXPECT_EQ(world.nmses[0]->peer_count(), world.nmses.size() - 1);
}

TEST(TcspTest, ReportAggregatesWorstOutcomeAcrossIsps) {
  TcspConfig config;
  config.retry.initial_backoff = Milliseconds(10);
  config.retry.max_attempts = 3;
  TcsWorld world(42, config);
  // One TCSP->NMS channel is a total blackhole; every other ISP is fine.
  FaultInjector injector(1);
  ChannelFaults blackhole;
  blackhole.loss = 1.0;
  injector.SetChannelFaults("tcsp->nms:isp-3", blackhole);
  world.tcsp.AttachFaultInjector(&injector);

  const auto cert = world.tcsp.Register("as7", {NodePrefix(7)});
  ASSERT_TRUE(cert.ok());
  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.placement = PlacementPolicy::kAllManagedNodes;
  request.control_scope = {NodePrefix(7)};
  // With a lossy channel the retries play out through the simulator, so
  // the final report arrives through the completion callback.
  bool completed = false;
  DeploymentReport report;
  world.tcsp.DeployService(cert.value(), request,
                           CompletionPolicy::kLatencyModelled,
                           [&](const DeploymentReport& r) {
                             completed = true;
                             report = r;
                           });
  world.net.Run(Seconds(30));
  ASSERT_TRUE(completed);

  // The report's status is the worst observed outcome, and the per-ISP
  // breakdown shows which ISP failed and how hard the TCSP tried.
  EXPECT_EQ(report.status.code(), ErrorCode::kUnavailable);
  ASSERT_EQ(report.isp_outcomes.size(), world.nmses.size());
  std::size_t failed = 0;
  for (const auto& outcome : report.isp_outcomes) {
    if (outcome.isp == "isp-3") {
      EXPECT_EQ(outcome.status.code(), ErrorCode::kUnavailable);
      EXPECT_EQ(outcome.attempts, config.retry.max_attempts);
      failed++;
    } else {
      EXPECT_TRUE(outcome.status.ok()) << outcome.isp;
    }
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_GT(report.retries, 0u);
  EXPECT_EQ(world.tcsp.stats().deploy_retries, report.retries);
  // The unreachable ISP configured nothing; everyone else converged.
  EXPECT_EQ(world.nmses[3]->CountDeployments(cert.value().subscriber), 0u);
  EXPECT_EQ(world.nmses[0]->CountDeployments(cert.value().subscriber), 1u);
}

TEST(TcspTest, RelayFallbackDeploysThroughPeerMeshWhenTcspDown) {
  TcspConfig config;
  config.relay_fallback = true;
  TcsWorld world(42, config);
  FaultInjector injector(1);
  injector.AddTcspOutage(0, Seconds(10));
  world.tcsp.AttachFaultInjector(&injector);

  // The certificate was issued before the outage (carried by the user),
  // so the peer mesh can still validate it offline.
  CertificateAuthority offline_ca("tcsp-signing-key");
  const OwnershipCertificate cert =
      offline_ca.Issue(77, "as7", {NodePrefix(7)}, 0, Seconds(3600));

  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.placement = PlacementPolicy::kAllManagedNodes;
  request.control_scope = {NodePrefix(7)};
  const DeploymentReport report =
      world.tcsp.DeployService(cert, request);
  world.net.Run(Seconds(5));

  EXPECT_EQ(report.path, DeployPath::kRelayed);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(world.tcsp.stats().relay_fallbacks, 1u);
  // The instruction flooded the whole mesh: every device is configured
  // exactly once even though each NMS hears the offer from many peers.
  for (const auto& nms : world.nmses) {
    EXPECT_EQ(nms->CountDeployments(cert.subscriber), 1u);
    EXPECT_LE(nms->stats().deployments_installed, 1u);
  }
}

TEST(TcspTest, UnreachableTcspWithoutFallbackStaysUnavailable) {
  TcsWorld world;
  FaultInjector injector(1);
  injector.AddTcspOutage(0, Seconds(10));
  world.tcsp.AttachFaultInjector(&injector);
  CertificateAuthority offline_ca("tcsp-signing-key");
  const OwnershipCertificate cert =
      offline_ca.Issue(77, "as7", {NodePrefix(7)}, 0, Seconds(3600));
  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.control_scope = {NodePrefix(7)};
  const DeploymentReport report =
      world.tcsp.DeployService(cert, request);
  EXPECT_EQ(report.status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(report.path, DeployPath::kDirect);
  EXPECT_EQ(world.tcsp.stats().relay_fallbacks, 0u);
}

}  // namespace
}  // namespace adtc
