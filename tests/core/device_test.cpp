#include "core/adaptive_device.h"

#include <gtest/gtest.h>

#include "core/modules/basic.h"
#include "core/modules/match.h"
#include "testutil.h"

namespace adtc {
namespace {

CertificateAuthority& Ca() {
  static CertificateAuthority ca("tcsp-key");
  return ca;
}

OwnershipCertificate CertFor(SubscriberId subscriber, NodeId node) {
  return Ca().Issue(subscriber, "owner-of-" + std::to_string(node),
                    {NodePrefix(node)}, 0, Seconds(3600));
}

RouterContext Ctx(NodeId node = 0,
                  LinkKind in_kind = LinkKind::kPeer) {
  RouterContext ctx;
  ctx.node = node;
  ctx.in_kind = in_kind;
  ctx.now = Seconds(1);
  return ctx;
}

Packet PacketBetween(NodeId src_node, NodeId dst_node) {
  Packet p;
  p.src = HostAddress(src_node, 1);
  p.dst = HostAddress(dst_node, 1);
  p.proto = Protocol::kUdp;
  p.dst_port = 80;
  p.size_bytes = 100;
  return p;
}

/// Malicious modules for the runtime-guard tests.
class SrcRewriter : public Module {
 public:
  int OnPacket(Packet& p, const DeviceContext&) override {
    p.src = Ipv4Address(0xDEAD);
    return 0;
  }
  std::string_view type_name() const override { return "match"; }  // lies
};

class TtlBooster : public Module {
 public:
  int OnPacket(Packet& p, const DeviceContext&) override {
    p.ttl = 255;
    return 0;
  }
  std::string_view type_name() const override { return "match"; }
};

class Amplifier : public Module {
 public:
  int OnPacket(Packet& p, const DeviceContext&) override {
    p.size_bytes *= 10;
    return 0;
  }
  std::string_view type_name() const override { return "match"; }
};

/// Rewrites the source address (a safety violation) only for dst_port
/// 666 and drops everything else, so one flow can be dropped before
/// another flow gets the deployment quarantined.
class ConditionallyEvilModule : public Module {
 public:
  int OnPacket(Packet& p, const DeviceContext&) override {
    if (p.dst_port == 666) {
      p.src = Ipv4Address(0xDEAD);
      return kPortDefault;
    }
    return kPortAlt;
  }
  std::string_view type_name() const override { return "match"; }
  int port_count() const override { return 2; }
};

TEST(AdaptiveDeviceTest, FastPathForUnmatchedTraffic) {
  AdaptiveDevice device(0);
  Packet p = PacketBetween(1, 2);
  EXPECT_EQ(device.Process(p, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.stats().fast_path_packets, 1u);
  EXPECT_EQ(device.stats().redirected_packets, 0u);
}

TEST(AdaptiveDeviceTest, InstallRequiresScopeWithinCertificate) {
  AdaptiveDevice device(0);
  const auto cert = CertFor(1, 5);
  const Status status = device.InstallDeployment(
      {cert,
       {NodePrefix(6)},
       ModuleGraph::Single(std::make_unique<CounterModule>()),
       std::nullopt});
  EXPECT_EQ(status.code(), ErrorCode::kPermissionDenied);
  EXPECT_FALSE(device.HasDeployment(1));
}

TEST(AdaptiveDeviceTest, DestinationStageControlsInboundTraffic) {
  AdaptiveDevice device(0);
  const auto cert = CertFor(1, 5);
  // Owner of node 5 drops all UDP port 80 to itself.
  MatchRule rule;
  rule.proto = Protocol::kUdp;
  rule.dst_port_range = {{80, 80}};
  ADTC_ASSERT_OK(device.InstallDeployment(
      {cert,
       {NodePrefix(5)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<MatchModule>(rule))}));

  Packet inbound = PacketBetween(1, 5);
  EXPECT_EQ(device.Process(inbound, Ctx()), Verdict::kDrop);
  EXPECT_EQ(device.stats().redirected_packets, 1u);
  EXPECT_EQ(device.stats().stage2_runs, 1u);
  EXPECT_EQ(device.stats().stage1_runs, 0u);

  // Traffic not to/from node 5 is untouched.
  Packet unrelated = PacketBetween(1, 2);
  EXPECT_EQ(device.Process(unrelated, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.stats().fast_path_packets, 1u);
}

TEST(AdaptiveDeviceTest, SourceStageControlsOutboundAndSpoofedTraffic) {
  AdaptiveDevice device(0);
  const auto cert = CertFor(1, 5);
  MatchRule all;
  ADTC_ASSERT_OK(device.InstallDeployment(
      {cert,
       {NodePrefix(5)},
       ModuleGraph::Single(std::make_unique<MatchModule>(all)),
       std::nullopt}));
  // A packet whose *source* claims node 5's space is stage-1 processed,
  // wherever it shows up.
  Packet claiming = PacketBetween(5, 2);
  EXPECT_EQ(device.Process(claiming, Ctx()), Verdict::kDrop);
  EXPECT_EQ(device.stats().stage1_runs, 1u);
}

TEST(AdaptiveDeviceTest, BothStagesRunWhenBothOwnersDeployed) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5),
       {NodePrefix(5)},
       ModuleGraph::Single(std::make_unique<CounterModule>()),
       std::nullopt}));
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(2, 6),
       {NodePrefix(6)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<CounterModule>())}));

  Packet p = PacketBetween(5, 6);
  EXPECT_EQ(device.Process(p, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.stats().stage1_runs, 1u);  // source owner (sub 1)
  EXPECT_EQ(device.stats().stage2_runs, 1u);  // destination owner (sub 2)
}

TEST(AdaptiveDeviceTest, SourceStageDropShortCircuitsStageTwo) {
  AdaptiveDevice device(0);
  MatchRule all;
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5),
       {NodePrefix(5)},
       ModuleGraph::Single(std::make_unique<MatchModule>(all)),
       std::nullopt}));
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(2, 6),
       {NodePrefix(6)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<CounterModule>())}));
  Packet p = PacketBetween(5, 6);
  EXPECT_EQ(device.Process(p, Ctx()), Verdict::kDrop);
  EXPECT_EQ(device.stats().stage2_runs, 0u);
}

TEST(AdaptiveDeviceTest, DuplicateDeploymentRejected) {
  AdaptiveDevice device(0);
  const auto cert = CertFor(1, 5);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {cert,
       {NodePrefix(5)},
       ModuleGraph::Single(std::make_unique<CounterModule>()),
       std::nullopt}));
  EXPECT_EQ(device
                .InstallDeployment(
                    {cert,
                     {NodePrefix(5)},
                     ModuleGraph::Single(std::make_unique<CounterModule>()),
                     std::nullopt})
                .code(),
            ErrorCode::kAlreadyExists);
}

TEST(AdaptiveDeviceTest, ScopeCollisionBetweenSubscribersRejected) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5),
       {NodePrefix(5)},
       ModuleGraph::Single(std::make_unique<CounterModule>()),
       std::nullopt}));
  // A second subscriber with a certificate for the same prefix (e.g. a
  // forged-but-signed config mishap) cannot shadow the first.
  EXPECT_EQ(device
                .InstallDeployment(
                    {CertFor(2, 5),
                     {NodePrefix(5)},
                     ModuleGraph::Single(std::make_unique<CounterModule>()),
                     std::nullopt})
                .code(),
            ErrorCode::kAlreadyExists);
}

TEST(AdaptiveDeviceTest, RemoveDeploymentRestoresFastPath) {
  AdaptiveDevice device(0);
  MatchRule all;
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5),
       {NodePrefix(5)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<MatchModule>(all))}));
  Packet p = PacketBetween(1, 5);
  EXPECT_EQ(device.Process(p, Ctx()), Verdict::kDrop);
  ADTC_ASSERT_OK(device.RemoveDeployment(1));
  Packet again = PacketBetween(1, 5);
  EXPECT_EQ(device.Process(again, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.redirect_prefix_count(), 0u);
  EXPECT_EQ(device.RemoveDeployment(1).code(), ErrorCode::kNotFound);
}

TEST(AdaptiveDeviceTest, SourceRewriteQuarantinesDeployment) {
  EventBuffer events;
  AdaptiveDevice device(0, &events);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5),
       {NodePrefix(5)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<SrcRewriter>())}));
  Packet p = PacketBetween(1, 5);
  const Ipv4Address original_src = p.src;
  EXPECT_EQ(device.Process(p, Ctx()), Verdict::kForward);  // fail open
  EXPECT_EQ(p.src, original_src);                           // restored
  EXPECT_TRUE(device.IsQuarantined(1));
  EXPECT_EQ(device.stats().safety_violations, 1u);
  EXPECT_EQ(events.CountOf(EventKind::kSafetyViolation), 1u);

  // Quarantined deployment no longer processes anything.
  Packet second = PacketBetween(1, 5);
  EXPECT_EQ(device.Process(second, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.stats().safety_violations, 1u);
}

TEST(AdaptiveDeviceTest, TtlModificationBlocked) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5),
       {NodePrefix(5)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<TtlBooster>())}));
  Packet p = PacketBetween(1, 5);
  p.ttl = 60;
  device.Process(p, Ctx());
  EXPECT_EQ(p.ttl, 60);
  EXPECT_TRUE(device.IsQuarantined(1));
}

TEST(AdaptiveDeviceTest, AmplificationBlocked) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5),
       {NodePrefix(5)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<Amplifier>())}));
  Packet p = PacketBetween(1, 5);
  p.size_bytes = 100;
  device.Process(p, Ctx());
  EXPECT_EQ(p.size_bytes, 100u);
  EXPECT_TRUE(device.IsQuarantined(1));
}

TEST(AdaptiveDeviceTest, StageGraphAccessor) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5),
       {NodePrefix(5)},
       ModuleGraph::Single(std::make_unique<CounterModule>()),
       std::nullopt}));
  EXPECT_NE(device.StageGraph(1, ProcessingStage::kSourceOwner), nullptr);
  EXPECT_EQ(device.StageGraph(1, ProcessingStage::kDestinationOwner),
            nullptr);
  EXPECT_EQ(device.StageGraph(9, ProcessingStage::kSourceOwner), nullptr);
}

TEST(AdaptiveDeviceTest, MostSpecificOwnerWins) {
  // AS owns the /20; a customer owns a /32 inside it. The customer's
  // deployment must control traffic to its host.
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5),
       {NodePrefix(5)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<CounterModule>())}));
  const Prefix host_prefix = Prefix::Host(HostAddress(5, 9));
  const auto host_cert =
      Ca().Issue(2, "customer", {host_prefix}, 0, Seconds(3600));
  MatchRule all;
  ADTC_ASSERT_OK(device.InstallDeployment(
      {host_cert,
       {host_prefix},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<MatchModule>(all))}));

  Packet to_host = PacketBetween(1, 5);
  to_host.dst = HostAddress(5, 9);
  EXPECT_EQ(device.Process(to_host, Ctx()), Verdict::kDrop);  // customer rule

  Packet to_other = PacketBetween(1, 5);
  to_other.dst = HostAddress(5, 10);
  EXPECT_EQ(device.Process(to_other, Ctx()), Verdict::kForward);  // AS rule
}

TEST(AdaptiveDeviceTest, DropsAttributedPerTaxonomyReason) {
  AdaptiveDevice device(0);
  auto blacklist = std::make_unique<BlacklistModule>();
  blacklist->Add(Prefix::Host(HostAddress(9, 1)));
  MatchRule rule;
  rule.dst_port_range = {{7000, 7000}};
  std::vector<std::unique_ptr<Module>> modules;
  modules.push_back(std::move(blacklist));
  modules.push_back(std::make_unique<MatchModule>(rule));
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5), {NodePrefix(5)}, std::nullopt,
       ModuleGraph::Chain(std::move(modules))}));

  Packet listed = PacketBetween(9, 5);
  EXPECT_EQ(device.Process(listed, Ctx()), Verdict::kDrop);
  Packet matched = PacketBetween(3, 5);
  matched.dst_port = 7000;
  EXPECT_EQ(device.Process(matched, Ctx()), Verdict::kDrop);
  Packet clean = PacketBetween(3, 5);
  EXPECT_EQ(device.Process(clean, Ctx()), Verdict::kForward);

  const DeviceStats& stats = device.stats();
  using R = DatapathDropReason;
  EXPECT_EQ(stats.drops_by_reason[static_cast<std::size_t>(R::kBlacklist)],
            1u);
  EXPECT_EQ(
      stats.drops_by_reason[static_cast<std::size_t>(R::kFirewallRule)], 1u);
  EXPECT_EQ(stats.dropped_packets(), 2u);

  // A repeated flow is attributed the same reason on every packet.
  Packet listed_again = PacketBetween(9, 5);
  EXPECT_EQ(device.Process(listed_again, Ctx()), Verdict::kDrop);
  EXPECT_EQ(stats.drops_by_reason[static_cast<std::size_t>(R::kBlacklist)],
            2u);
}

TEST(AdaptiveDeviceTest, FlightRecorderCapturesVerdicts) {
  AdaptiveDevice device(7);
  obs::FlightRecorder recorder(16);
  device.AttachFlightRecorder(&recorder);
  ASSERT_EQ(device.flight_recorder(), &recorder);
  auto blacklist = std::make_unique<BlacklistModule>();
  blacklist->Add(Prefix::Host(HostAddress(9, 1)));
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5), {NodePrefix(5)}, std::nullopt,
       ModuleGraph::Single(std::move(blacklist))}));

  Packet fast = PacketBetween(1, 2);       // no redirect-table match
  Packet dropped = PacketBetween(9, 5);    // blacklist drop
  Packet forwarded = PacketBetween(3, 5);  // redirected, clean
  EXPECT_EQ(device.Process(fast, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.Process(dropped, Ctx()), Verdict::kDrop);
  EXPECT_EQ(device.Process(forwarded, Ctx()), Verdict::kForward);
  // A repeated drop is recorded again with the same reason.
  Packet dropped_again = PacketBetween(9, 5);
  EXPECT_EQ(device.Process(dropped_again, Ctx()), Verdict::kDrop);

  const auto records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_FALSE(records[0].redirected);
  EXPECT_FALSE(records[0].dropped);
  EXPECT_TRUE(records[1].dropped);
  EXPECT_EQ(records[1].drop_reason, DatapathDropReason::kBlacklist);
  EXPECT_TRUE(records[2].redirected);
  EXPECT_FALSE(records[2].dropped);
  EXPECT_TRUE(records[3].dropped);
  EXPECT_EQ(records[3].drop_reason, DatapathDropReason::kBlacklist);
  EXPECT_TRUE(records[3].redirected);
  for (const obs::VerdictRecord& record : records) {
    EXPECT_EQ(record.node, 7u);
    EXPECT_EQ(record.at, Seconds(1));
  }

  // Detaching restores the zero-cost path: nothing further is recorded.
  device.AttachFlightRecorder(nullptr);
  Packet later = PacketBetween(1, 2);
  (void)device.Process(later, Ctx());
  EXPECT_EQ(recorder.total_recorded(), 4u);
}

// --- configuration changes apply to the next packet of a flow ----------

TEST(AdaptiveDeviceTest, BlacklistEditAppliesToNextPacketOfFlow) {
  AdaptiveDevice device(0);
  auto blacklist = std::make_unique<BlacklistModule>();
  BlacklistModule* list = blacklist.get();
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5),
       {NodePrefix(5)},
       ModuleGraph::Single(std::move(blacklist)),
       std::nullopt}));

  for (int i = 0; i < 2; ++i) {
    Packet before = PacketBetween(5, 2);
    EXPECT_EQ(device.Process(before, Ctx()), Verdict::kForward);
  }
  list->Add(HostAddress(5, 1));
  Packet blocked = PacketBetween(5, 2);
  EXPECT_EQ(device.Process(blocked, Ctx()), Verdict::kDrop);

  EXPECT_TRUE(list->Remove(Prefix::Host(HostAddress(5, 1))));
  Packet unblocked = PacketBetween(5, 2);
  EXPECT_EQ(device.Process(unblocked, Ctx()), Verdict::kForward);
}

TEST(AdaptiveDeviceTest, RuleToggleAppliesToNextPacketOfFlow) {
  AdaptiveDevice device(0);
  MatchRule rule;
  rule.proto = Protocol::kUdp;
  rule.dst_port_range = {{80, 80}};
  auto match = std::make_unique<MatchModule>(rule);
  MatchModule* firewall = match.get();
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 6),
       {NodePrefix(6)},
       std::nullopt,
       ModuleGraph::Single(std::move(match))}));

  for (int i = 0; i < 2; ++i) {
    Packet armed = PacketBetween(1, 6);
    EXPECT_EQ(device.Process(armed, Ctx()), Verdict::kDrop);
  }

  firewall->set_active(false);
  Packet disarmed = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(disarmed, Ctx()), Verdict::kForward);

  firewall->set_active(true);
  Packet rearmed = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(rearmed, Ctx()), Verdict::kDrop);
}

TEST(AdaptiveDeviceTest, QuarantineFailsOpenOnNextPacketOfFlow) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 6),
       {NodePrefix(6)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<ConditionallyEvilModule>())}));

  for (int i = 0; i < 2; ++i) {
    Packet dropped = PacketBetween(1, 6);
    EXPECT_EQ(device.Process(dropped, Ctx()), Verdict::kDrop);
  }
  // Another flow trips the runtime safety guard.
  Packet evil = PacketBetween(1, 6);
  evil.dst_port = 666;
  EXPECT_EQ(device.Process(evil, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.stats().safety_violations, 1u);
  ASSERT_TRUE(device.IsQuarantined(1));

  // The first flow's next packet is no longer processed: it fails open.
  Packet after = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(after, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.stats().dropped_packets(), 2u);
}

TEST(AdaptiveDeviceTest, RemovalAppliesToNextPacketOfFlow) {
  AdaptiveDevice device(0);
  MatchRule all;
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 6),
       {NodePrefix(6)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<MatchModule>(all))}));
  for (int i = 0; i < 2; ++i) {
    Packet dropped = PacketBetween(1, 6);
    EXPECT_EQ(device.Process(dropped, Ctx()), Verdict::kDrop);
  }
  ADTC_ASSERT_OK(device.RemoveDeployment(1));
  Packet after = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(after, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.stats().fast_path_packets, 1u);
}

TEST(AdaptiveDeviceTest, InstallAppliesToNextPacketOfFlow) {
  AdaptiveDevice device(0);
  // The flow 1->6 takes the fast path before any owner of 6 deploys.
  Packet before = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(before, Ctx()), Verdict::kForward);
  MatchRule all;
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 6),
       {NodePrefix(6)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<MatchModule>(all))}));
  Packet after = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(after, Ctx()), Verdict::kDrop);
}

// --- every packet of a repeated flow is processed in full ---------------

TEST(AdaptiveDeviceTest, RepeatedFlowMovesCountersOnEveryPacket) {
  AdaptiveDevice device(0);
  MatchRule rule;
  rule.proto = Protocol::kUdp;
  rule.dst_port_range = {{80, 80}};
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 6),
       {NodePrefix(6)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<MatchModule>(rule))}));
  for (int i = 0; i < 2; ++i) {
    Packet p = PacketBetween(1, 6);
    EXPECT_EQ(device.Process(p, Ctx()), Verdict::kDrop);
  }
  EXPECT_EQ(device.stats().redirected_packets, 2u);
  EXPECT_EQ(device.stats().stage2_runs, 2u);
  EXPECT_EQ(device.stats().dropped_packets(), 2u);
  const ModuleGraph* graph =
      device.StageGraph(1, ProcessingStage::kDestinationOwner);
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->packets_processed(), 2u);
  EXPECT_EQ(graph->packets_dropped(), 2u);
}

TEST(AdaptiveDeviceTest, StatefulStageRunsOnEveryPacketOfFlow) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 6),
       {NodePrefix(6)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<CounterModule>())}));
  for (int i = 0; i < 4; ++i) {
    Packet p = PacketBetween(1, 6);
    EXPECT_EQ(device.Process(p, Ctx()), Verdict::kForward);
  }
  EXPECT_EQ(device.stats().stage2_runs, 4u);
  ModuleGraph* graph =
      device.StageGraph(1, ProcessingStage::kDestinationOwner);
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->packets_processed(), 4u);
  const CounterModule* counter = graph->FindModule<CounterModule>();
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->packets(), 4u);
}

TEST(AdaptiveDeviceTest, PayloadTruncationAppliesToEveryPacketOfFlow) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 6),
       {NodePrefix(6)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<PayloadDeleteModule>(40))}));
  for (int i = 0; i < 3; ++i) {
    Packet p = PacketBetween(1, 6);
    p.size_bytes = 512;
    p.payload_hash = 0x1234;
    EXPECT_EQ(device.Process(p, Ctx()), Verdict::kForward);
    EXPECT_EQ(p.size_bytes, 40u);
    EXPECT_EQ(p.payload_hash, 0u);
  }
}

TEST(AdaptiveDeviceTest, SourceStageDropShortCircuitsEveryPacketOfFlow) {
  AdaptiveDevice device(0);
  MatchRule all;
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5),
       {NodePrefix(5)},
       ModuleGraph::Single(std::make_unique<MatchModule>(all)),
       std::nullopt}));
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(2, 6),
       {NodePrefix(6)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<CounterModule>())}));
  for (int i = 0; i < 3; ++i) {
    Packet p = PacketBetween(5, 6);
    EXPECT_EQ(device.Process(p, Ctx()), Verdict::kDrop);
  }
  // Stage 2's device counter and its graph's tallies never move.
  EXPECT_EQ(device.stats().stage1_runs, 3u);
  EXPECT_EQ(device.stats().stage2_runs, 0u);
  EXPECT_EQ(device.StageGraph(1, ProcessingStage::kSourceOwner)
                ->packets_dropped(),
            3u);
  EXPECT_EQ(device.StageGraph(2, ProcessingStage::kDestinationOwner)
                ->packets_processed(),
            0u);
}

}  // namespace
}  // namespace adtc
