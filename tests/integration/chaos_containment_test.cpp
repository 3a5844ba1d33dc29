// Whole-system chaos + adversary containment (the Sec. 4.5 threat model
// under the Sec. 5.1 availability argument, combined): data-plane link
// loss/corruption, a flapping link, a router crash/restart, lossy
// control channels AND a fully compromised ISP NMS running every misuse
// scenario at once — bogus deployments under forged certificates,
// mutated replays of a known instruction, stale credentials and a
// module that lies about its effect signature. The invariants:
//   * containment — adversary state exists only on the compromised
//     ISP's own devices (blast radius bounded), every outward offer is
//     rejected with the precise typed Status, and the lying module is
//     quarantined by the runtime guard;
//   * recovery — the crashed router reconverges via anti-entropy resync
//     while the attack is still running;
//   * service — the victim's legitimate traffic keeps flowing, and
//     runtime operations (statistics reads) still complete end to end
//     over the faulty channels;
//   * inertness — an attached injector with an all-zero plan leaves the
//     world's end-state metrics identical to no injector at all.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/containment.h"
#include "attack/adversary.h"
#include "attack/scenario.h"
#include "core/tcsp.h"
#include "sim/faults.h"
#include "testutil.h"

namespace adtc {
namespace {

using testing::SmallWorld;

LinkParams FastLink() {
  return LinkParams{GigabitsPerSecond(1), Milliseconds(1), 1024 * 1024};
}

struct ContainmentWorld : SmallWorld {
  NumberAuthority authority;
  FaultInjector injector;
  Tcsp tcsp;
  std::vector<std::unique_ptr<IspNms>> nmses;

  explicit ContainmentWorld(std::uint64_t fault_seed, TcspConfig config)
      : SmallWorld(42),
        injector(fault_seed),
        tcsp(net, authority, "chaos-key", config) {
    AllocateTopologyPrefixes(authority, net.node_count());
    for (NodeId node = 0; node < net.node_count(); ++node) {
      auto nms = std::make_unique<IspNms>(
          "isp-" + std::to_string(node), net, &tcsp.validator());
      nms->ManageNode(node);
      tcsp.EnrollIsp(nms.get());
      nmses.push_back(std::move(nms));
    }
    // Control plane and data plane share one fault plan (and one shard).
    tcsp.AttachFaultInjector(&injector);
    net.AttachFaultInjector(&injector);
  }

  std::size_t TotalDeployments(SubscriberId subscriber) const {
    std::size_t total = 0;
    for (const auto& nms : nmses) {
      total += nms->CountDeployments(subscriber);
    }
    return total;
  }
};

class ChaosContainmentTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosContainmentTest, AdversaryStaysContainedUnderFaults) {
  TcspConfig config;
  config.retry.initial_backoff = Milliseconds(20);
  config.retry.max_backoff = Milliseconds(500);
  config.retry.max_attempts = 6;
  config.retry.deadline = Seconds(20);
  ContainmentWorld world(GetParam(), config);

  // --- the fault plan: pressure on both planes ---------------------------
  LinkFaults link_faults;
  link_faults.loss = 0.01;
  link_faults.corrupt = 0.005;
  world.injector.SetDefaultLinkFaults(link_faults);
  world.injector.AddLinkFlap(0, Seconds(4), Seconds(4) + Milliseconds(500));
  ChannelFaults channel_faults;
  channel_faults.loss = 0.1;
  channel_faults.duplicate = 0.1;
  channel_faults.jitter_max = Milliseconds(10);
  world.injector.SetDefaultFaults(channel_faults);

  // --- the honest workload: a victim under flood, defended ---------------
  ScenarioParams params;
  params.master_count = 2;
  params.agents_per_master = 8;
  params.client_count = 0;
  params.reflector_count = 2;
  params.directive.type = AttackType::kDirectFlood;
  params.directive.spoof = SpoofMode::kVictim;
  params.directive.rate_pps = 100.0;
  params.directive.duration = Seconds(14);
  Scenario scenario = BuildAttackScenario(world.net, world.topo, params);
  const NodeId victim = scenario.victim_node;

  std::vector<NodeId> free_stubs;
  for (NodeId stub : world.topo.stub_nodes) {
    if (stub != victim) free_stubs.push_back(stub);
  }
  ASSERT_GE(free_stubs.size(), 4u);
  const NodeId evil = free_stubs[0];          // the compromised ISP
  const NodeId honest_origin = free_stubs[1]; // source of a captured instr
  const NodeId client_node = free_stubs[2];

  auto* victim_server = SpawnHost<Server>(world.net, victim, FastLink());
  ClientConfig victim_client_config;
  victim_client_config.server = victim_server->address();
  victim_client_config.kind = RequestKind::kUdpRequest;
  victim_client_config.request_rate = 100.0;
  auto* victim_client = SpawnHost<Client>(world.net, client_node, FastLink(),
                                          victim_client_config);
  // Traffic through the compromised ISP's device, to trip the lying
  // module's runtime mutation.
  auto* evil_server = SpawnHost<Server>(world.net, evil, FastLink());
  ClientConfig evil_client_config;
  evil_client_config.server = evil_server->address();
  evil_client_config.kind = RequestKind::kUdpRequest;
  evil_client_config.request_rate = 100.0;
  auto* evil_client = SpawnHost<Client>(world.net, free_stubs[3], FastLink(),
                                        evil_client_config);

  const auto victim_cert =
      world.tcsp.Register(AsOrgName(victim), {NodePrefix(victim)});
  ASSERT_TRUE(victim_cert.ok());
  ServiceRequest filtering;
  filtering.kind = ServiceKind::kRemoteIngressFiltering;
  filtering.placement = PlacementPolicy::kAllManagedNodes;
  filtering.control_scope = {NodePrefix(victim)};
  ASSERT_TRUE(
      world.tcsp.DeployService(victim_cert.value(), filtering).status.ok());

  // A known, widely-installed instruction the adversary will replay with
  // mutated content: every honest NMS records its id + digest.
  const auto honest_cert = world.tcsp.Register(AsOrgName(honest_origin),
                                               {NodePrefix(honest_origin)});
  ASSERT_TRUE(honest_cert.ok());
  DeploymentInstruction captured;
  captured.id = DeploymentId{DeploymentOriginTag("captured"), 1};
  captured.cert = honest_cert.value();
  captured.request.kind = ServiceKind::kStatistics;
  captured.request.placement = PlacementPolicy::kAllManagedNodes;
  captured.request.control_scope = {NodePrefix(honest_origin)};
  for (auto& nms : world.nmses) {
    ASSERT_TRUE(nms->ApplyDeployment(captured,
                                     world.tcsp.certificate_authority())
                    .ok());
  }

  // The victim's router crashes mid-attack; resync must re-converge it.
  world.injector.AddRouterRestart(victim, Seconds(6));
  world.nmses[victim]->ArmRouterRestarts();
  for (auto& nms : world.nmses) nms->StartResync(Seconds(3));
  // Keep the compromised ISP's detection upcall observable: losing the
  // one safety-violation event would only measure channel luck, not
  // containment.
  world.injector.SetChannelFaults(
      "dev:" + std::to_string(evil) + "->nms:isp-" + std::to_string(evil),
      ChannelFaults{});

  victim_client->Start();
  evil_client->Start();
  scenario.attacker->Launch();
  world.net.Run(Seconds(2));

  // --- the adversary: every misuse scenario from one compromised NMS ----
  Adversary adversary(*world.nmses[evil], world.tcsp.certificate_authority());

  // kLyingSignature: valid certificate, lying module, straight onto the
  // compromised ISP's devices.
  const auto evil_cert =
      world.tcsp.Register(AsOrgName(evil), {NodePrefix(evil)});
  ASSERT_TRUE(evil_cert.ok());
  EXPECT_EQ(adversary.InstallLyingDeployment(evil_cert.value(),
                                             /*misbehave_after=*/50),
            1u);

  // kForgedCertificate / kCompromisedNms: bogus deployment under a
  // fabricated certificate, applied locally and offered to every peer.
  const SubscriberId bogus_subscriber = 4242;
  const Adversary::BogusOutcome bogus = adversary.PushBogusDeployment(
      bogus_subscriber, {NodePrefix(world.topo.transit_nodes[0])},
      world.net.Now());
  EXPECT_EQ(bogus.own_devices_applied, 1u);
  ASSERT_EQ(bogus.peer_outcomes.size(), world.nmses.size() - 1);
  for (const Status& status : bogus.peer_outcomes) {
    EXPECT_EQ(status.code(), ErrorCode::kPermissionDenied)
        << status.ToString();
  }

  // kReplayedInstruction: the captured id, mutated.
  const std::vector<Status> replays = adversary.ReplayMutated(captured);
  ASSERT_EQ(replays.size(), world.nmses.size() - 1);
  for (const Status& status : replays) {
    EXPECT_EQ(status.code(), ErrorCode::kReplayDetected)
        << status.ToString();
  }

  // kExpiredCertificate: genuinely signed (same key as the TCSP), long
  // since expired.
  CertificateAuthority twin_ca("chaos-key");
  const SubscriberId stale_subscriber = 8888;
  const OwnershipCertificate stale =
      twin_ca.Issue(stale_subscriber, "stale-org", {NodePrefix(evil)},
                    /*now=*/0, /*validity=*/Milliseconds(1));
  ServiceRequest stale_request;
  stale_request.kind = ServiceKind::kStatistics;
  stale_request.control_scope = {NodePrefix(evil)};
  const std::vector<Status> stale_outcomes =
      adversary.OfferStaleCertificate(stale, stale_request);
  ASSERT_EQ(stale_outcomes.size(), world.nmses.size() - 1);
  for (const Status& status : stale_outcomes) {
    EXPECT_EQ(status.code(), ErrorCode::kExpired) << status.ToString();
  }

  // Let the chaos, the attack and the recovery machinery all play out.
  world.net.Run(Seconds(12));
  for (auto& nms : world.nmses) nms->StopResync();

  // A runtime operation still completes end to end over the faulty
  // channels: provisional return now, definitive result via the
  // completion callback once every ISP leg has been retried through.
  bool stats_read_done = false;
  Result<Tcsp::StatisticsReport> stats_read = Status(Unavailable("pending"));
  const auto provisional = world.tcsp.ReadStatistics(
      honest_cert.value().subscriber,
      [&](const Result<Tcsp::StatisticsReport>& result) {
        stats_read_done = true;
        stats_read = result;
      });
  world.net.Run(Seconds(10));
  ASSERT_TRUE(stats_read_done);
  ASSERT_TRUE(stats_read.ok()) << stats_read.status().ToString();
  EXPECT_GT(stats_read.value().vantage_points, 0u);

  // --- containment verdict ----------------------------------------------
  // The lying module was caught and quarantined on the offender.
  AdaptiveDevice* evil_device = world.nmses[evil]->device(evil);
  EXPECT_TRUE(evil_device->IsQuarantined(evil_cert.value().subscriber));
  EXPECT_GE(evil_device->stats().safety_violations, 1u);

  // The crashed victim router really restarted and reconverged.
  EXPECT_EQ(world.nmses[victim]->stats().device_restarts, 1u);
  EXPECT_TRUE(world.nmses[victim]->device(victim)->HasDeployment(
      victim_cert.value().subscriber));
  // The honest defence converged world-wide despite all of it.
  EXPECT_EQ(world.TotalDeployments(victim_cert.value().subscriber),
            world.net.node_count());

  // Ground truth for the blast radius: which devices carry any adversary
  // subscriber state.
  const std::vector<SubscriberId> adversary_subscribers = {
      bogus_subscriber, evil_cert.value().subscriber, stale_subscriber};
  analysis::ContainmentInputs inputs;
  inputs.total_devices = world.net.node_count();
  inputs.goodput_floor = 0.5;
  for (NodeId node = 0; node < world.net.node_count(); ++node) {
    const AdaptiveDevice* device = world.nmses[node]->device(node);
    bool affected = false;
    for (SubscriberId subscriber : adversary_subscribers) {
      affected = affected || device->HasDeployment(subscriber);
    }
    if (!affected) continue;
    if (node == evil) {
      inputs.offender_devices_affected++;
    } else {
      inputs.honest_devices_affected++;
    }
  }

  const analysis::ContainmentReport report = analysis::BuildContainmentReport(
      world.net.telemetry().registry().TakeSnapshot(), inputs);
  SCOPED_TRACE(report.ToString());
  EXPECT_TRUE(report.contained);
  EXPECT_EQ(report.honest_nodes_affected, 0u);
  EXPECT_GE(report.nodes_affected, 1u);
  EXPECT_LE(report.blast_radius,
            1.0 / static_cast<double>(world.net.node_count()));
  EXPECT_GE(report.replays_rejected, replays.size());
  EXPECT_GE(report.certs_expired_rejected, stale_outcomes.size());
  EXPECT_GE(report.certs_forged_rejected, bogus.peer_outcomes.size());
  EXPECT_GE(report.quarantines, 1u);
  EXPECT_EQ(report.device_restarts, 1u);
  EXPECT_GE(report.victim_goodput_retained, 0.5);
  // The chaos was real: the data plane actually lost packets to faults.
  EXPECT_GT(report.packets_lost + report.packets_corrupted +
                report.link_down_drops,
            0u);
  EXPECT_GT(world.injector.stats().messages_lost, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosContainmentTest,
                         ::testing::Values(11u, 23u, 47u));

/// Runs one honest fault-free workload and returns the end-state metric
/// snapshot, with an all-zero injector attached (when given) or none.
obs::MetricsSnapshot RunHonestWorld(FaultInjector* injector) {
  SmallWorld world(42);
  NumberAuthority authority;
  TcspConfig config;
  Tcsp tcsp(world.net, authority, "chaos-key", config);
  AllocateTopologyPrefixes(authority, world.net.node_count());
  std::vector<std::unique_ptr<IspNms>> nmses;
  for (NodeId node = 0; node < world.net.node_count(); ++node) {
    auto nms = std::make_unique<IspNms>(
        "isp-" + std::to_string(node), world.net, &tcsp.validator());
    nms->ManageNode(node);
    tcsp.EnrollIsp(nms.get());
    nmses.push_back(std::move(nms));
  }
  if (injector != nullptr) {
    tcsp.AttachFaultInjector(injector);
    world.net.AttachFaultInjector(injector);
  }

  ScenarioParams params;
  params.master_count = 2;
  params.agents_per_master = 6;
  params.client_count = 0;
  params.reflector_count = 2;
  params.directive.type = AttackType::kDirectFlood;
  params.directive.spoof = SpoofMode::kVictim;
  params.directive.rate_pps = 100.0;
  params.directive.duration = Seconds(6);
  Scenario scenario = BuildAttackScenario(world.net, world.topo, params);
  const NodeId victim = scenario.victim_node;

  auto* server = SpawnHost<Server>(world.net, victim, FastLink());
  ClientConfig client_config;
  client_config.server = server->address();
  client_config.kind = RequestKind::kUdpRequest;
  client_config.request_rate = 100.0;
  const NodeId client_node = world.topo.stub_nodes[0] == victim
                                 ? world.topo.stub_nodes[1]
                                 : world.topo.stub_nodes[0];
  auto* client =
      SpawnHost<Client>(world.net, client_node, FastLink(), client_config);

  const auto cert = tcsp.Register(AsOrgName(victim), {NodePrefix(victim)});
  EXPECT_TRUE(cert.ok());
  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.placement = PlacementPolicy::kAllManagedNodes;
  request.control_scope = {NodePrefix(victim)};
  EXPECT_TRUE(tcsp.DeployService(cert.value(), request).status.ok());

  client->Start();
  scenario.attacker->Launch();
  world.net.Run(Seconds(8));
  return world.net.telemetry().registry().TakeSnapshot();
}

/// Strips metrics that merely *observe* the injector (fault counters,
/// event totals) — everything else must be
/// bit-identical between an all-zero injector and none at all.
obs::MetricsSnapshot BehaviouralMetrics(const obs::MetricsSnapshot& in) {
  auto starts_with = [](const std::string& name, std::string_view prefix) {
    return name.size() >= prefix.size() &&
           std::string_view(name).substr(0, prefix.size()) == prefix;
  };
  obs::MetricsSnapshot out;
  for (const obs::MetricValue& metric : in) {
    if (starts_with(metric.name, "faults.") ||
        starts_with(metric.name, "sim.")) {
      continue;
    }
    out.push_back(metric);
  }
  return out;
}

TEST(ChaosContainmentTest, AllZeroInjectorLeavesEndStateIdentical) {
  // The inertness contract, checked differentially on end state (the
  // event *count* legitimately differs — channels schedule instead of
  // running inline — but every behavioural outcome must not).
  FaultInjector injector(9);
  const obs::MetricsSnapshot with_injector =
      BehaviouralMetrics(RunHonestWorld(&injector));
  const obs::MetricsSnapshot without =
      BehaviouralMetrics(RunHonestWorld(nullptr));
  ASSERT_EQ(with_injector.size(), without.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(with_injector[i].name, without[i].name);
    EXPECT_EQ(with_injector[i].value, without[i].value)
        << "metric " << without[i].name
        << " diverged under an all-zero injector";
  }
  // And the all-zero plan consumed no randomness while doing it.
  EXPECT_EQ(injector.stats().messages_lost, 0u);
  EXPECT_EQ(injector.stats().packets_lost, 0u);
  EXPECT_GT(injector.stats().messages_planned, 0u);
  EXPECT_GT(injector.stats().packets_planned, 0u);
}

}  // namespace
}  // namespace adtc
