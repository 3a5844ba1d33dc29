// Flow verdict cache (core/adaptive_device.h): the cache must be
// invisible — every verdict and every packet mutation must be identical
// with the cache on and off, across installs, removals, quarantines and
// module reconfiguration. These tests pin the invalidation rules and run
// a differential cached-vs-uncached comparison over the same workload
// shapes bench_t4 measures.
#include <gtest/gtest.h>

#include <functional>

#include "core/adaptive_device.h"
#include "core/modules/basic.h"
#include "core/modules/match.h"
#include "testutil.h"

namespace adtc {
namespace {

CertificateAuthority& Ca() {
  static CertificateAuthority ca("flow-cache-key");
  return ca;
}

OwnershipCertificate CertFor(SubscriberId subscriber, NodeId node) {
  return Ca().Issue(subscriber, "owner-of-" + std::to_string(node),
                    {NodePrefix(node)}, 0, Seconds(3600));
}

RouterContext Ctx() {
  RouterContext ctx;
  ctx.node = 0;
  ctx.in_kind = LinkKind::kPeer;
  ctx.now = Seconds(1);
  return ctx;
}

Packet PacketBetween(NodeId src_node, NodeId dst_node,
                     std::uint16_t dst_port = 80,
                     std::uint32_t size = 512) {
  Packet p;
  p.src = HostAddress(src_node, 1);
  p.dst = HostAddress(dst_node, 1);
  p.proto = Protocol::kUdp;
  p.dst_port = dst_port;
  p.size_bytes = size;
  return p;
}

ModuleGraph MatchDropGraph(std::uint16_t port) {
  MatchRule rule;
  rule.proto = Protocol::kUdp;
  rule.dst_port_range = {{port, port}};
  return ModuleGraph::Single(std::make_unique<MatchModule>(rule));
}

TEST(FlowCacheTest, RepeatedFlowHitsCache) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment({CertFor(1, 6),
                                           {NodePrefix(6)},
                                           std::nullopt,
                                           MatchDropGraph(80)}));
  Packet first = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(first, Ctx()), Verdict::kDrop);
  EXPECT_EQ(device.stats().flow_cache_misses, 1u);
  EXPECT_EQ(device.stats().flow_cache_hits, 0u);
  EXPECT_EQ(device.flow_cache_size(), 1u);

  Packet second = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(second, Ctx()), Verdict::kDrop);
  EXPECT_EQ(device.stats().flow_cache_hits, 1u);
  // The cached drop keeps every counter moving as if the modules ran.
  EXPECT_EQ(device.stats().redirected_packets, 2u);
  EXPECT_EQ(device.stats().stage2_runs, 2u);
  EXPECT_EQ(device.stats().dropped_packets(), 2u);
  const ModuleGraph* graph =
      device.StageGraph(1, ProcessingStage::kDestinationOwner);
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->packets_processed(), 2u);
  EXPECT_EQ(graph->packets_dropped(), 2u);
}

TEST(FlowCacheTest, FastPathFlowsAreCachedToo) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment({CertFor(1, 6),
                                           {NodePrefix(6)},
                                           std::nullopt,
                                           MatchDropGraph(80)}));
  Packet a = PacketBetween(1, 2);
  Packet b = PacketBetween(1, 2);
  EXPECT_EQ(device.Process(a, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.Process(b, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.stats().fast_path_packets, 2u);
  EXPECT_EQ(device.stats().flow_cache_hits, 1u);
}

TEST(FlowCacheTest, DisablingTheCacheStopsHits) {
  AdaptiveDevice device(0);
  device.set_flow_cache_enabled(false);
  ADTC_ASSERT_OK(device.InstallDeployment({CertFor(1, 6),
                                           {NodePrefix(6)},
                                           std::nullopt,
                                           MatchDropGraph(80)}));
  for (int i = 0; i < 3; ++i) {
    Packet p = PacketBetween(1, 6);
    EXPECT_EQ(device.Process(p, Ctx()), Verdict::kDrop);
  }
  EXPECT_EQ(device.stats().flow_cache_hits, 0u);
  EXPECT_EQ(device.stats().flow_cache_misses, 0u);
  EXPECT_EQ(device.flow_cache_size(), 0u);
}

TEST(FlowCacheTest, RemovalEvictsCachedVerdict) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment({CertFor(1, 6),
                                           {NodePrefix(6)},
                                           std::nullopt,
                                           MatchDropGraph(80)}));
  Packet warm = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(warm, Ctx()), Verdict::kDrop);
  Packet hit = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(hit, Ctx()), Verdict::kDrop);
  ASSERT_EQ(device.stats().flow_cache_hits, 1u);

  ADTC_ASSERT_OK(device.RemoveDeployment(1));
  Packet after = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(after, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.stats().flow_cache_hits, 1u);  // no stale replay
}

TEST(FlowCacheTest, InstallEvictsCachedLookups) {
  AdaptiveDevice device(0);
  // The flow 1->6 is cached as fast-path before any owner of 6 deploys.
  Packet warm = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(warm, Ctx()), Verdict::kForward);
  ADTC_ASSERT_OK(device.InstallDeployment({CertFor(1, 6),
                                           {NodePrefix(6)},
                                           std::nullopt,
                                           MatchDropGraph(80)}));
  Packet after = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(after, Ctx()), Verdict::kDrop);
}

TEST(FlowCacheTest, BlacklistMutationEvictsCachedVerdict) {
  AdaptiveDevice device(0);
  auto blacklist = std::make_unique<BlacklistModule>();
  BlacklistModule* list = blacklist.get();
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 5),
       {NodePrefix(5)},
       ModuleGraph::Single(std::move(blacklist)),
       std::nullopt}));

  // Not listed yet: forwarded, and the forward verdict is cached.
  Packet before = PacketBetween(5, 2);
  EXPECT_EQ(device.Process(before, Ctx()), Verdict::kForward);
  Packet cached = PacketBetween(5, 2);
  EXPECT_EQ(device.Process(cached, Ctx()), Verdict::kForward);
  ASSERT_EQ(device.stats().flow_cache_hits, 1u);

  // Listing the source bumps the graph's config revision; the cached
  // forward must not survive.
  list->Add(HostAddress(5, 1));
  Packet blocked = PacketBetween(5, 2);
  EXPECT_EQ(device.Process(blocked, Ctx()), Verdict::kDrop);

  // Unlisting restores forwarding the same way.
  EXPECT_TRUE(list->Remove(Prefix::Host(HostAddress(5, 1))));
  Packet unblocked = PacketBetween(5, 2);
  EXPECT_EQ(device.Process(unblocked, Ctx()), Verdict::kForward);
}

TEST(FlowCacheTest, RuleToggleEvictsCachedVerdict) {
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

  Packet warm = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(warm, Ctx()), Verdict::kDrop);
  Packet hit = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(hit, Ctx()), Verdict::kDrop);
  ASSERT_EQ(device.stats().flow_cache_hits, 1u);

  firewall->set_active(false);
  Packet disarmed = PacketBetween(1, 6);
  EXPECT_EQ(device.Process(disarmed, Ctx()), Verdict::kForward);
}

/// Misbehaves only for dst_port 666 (rewrites the source address, a
/// safety violation that quarantines the deployment); drops everything
/// else. Claims purity so well-behaved flows are fully cached — the test
/// then checks quarantine evicts them.
class ConditionallyEvilModule : public Module {
 public:
  int OnPacket(Packet& p, const DeviceContext&) override {
    if (p.dst_port == 666) {
      p.src = Ipv4Address(0xDEAD);
      return kPortDefault;
    }
    return kPortAlt;  // drop
  }
  std::string_view type_name() const override { return "match"; }
  int port_count() const override { return 2; }
  Cacheability cacheability() const override { return Cacheability::kPure; }
};

TEST(FlowCacheTest, QuarantineEvictsCachedVerdict) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 6),
       {NodePrefix(6)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<ConditionallyEvilModule>())}));

  // A well-behaved flow is dropped and the drop is cached.
  Packet warm = PacketBetween(1, 6, /*dst_port=*/80);
  EXPECT_EQ(device.Process(warm, Ctx()), Verdict::kDrop);
  Packet hit = PacketBetween(1, 6, /*dst_port=*/80);
  EXPECT_EQ(device.Process(hit, Ctx()), Verdict::kDrop);
  ASSERT_EQ(device.stats().flow_cache_hits, 1u);

  // A different flow trips the runtime safety guard: quarantine.
  Packet evil = PacketBetween(1, 6, /*dst_port=*/666);
  EXPECT_EQ(device.Process(evil, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.stats().safety_violations, 1u);
  ASSERT_TRUE(device.IsQuarantined(1));

  // The cached drop for the well-behaved flow must be gone: a
  // quarantined deployment no longer processes anything.
  Packet after = PacketBetween(1, 6, /*dst_port=*/80);
  EXPECT_EQ(device.Process(after, Ctx()), Verdict::kForward);
}

TEST(FlowCacheTest, StatefulStagesRerunOnEveryPacket) {
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
  // Lookup results are still served from the cache (hits advance), but
  // the stateful stage physically executes each time.
  EXPECT_EQ(device.stats().flow_cache_hits, 3u);
  EXPECT_EQ(device.stats().stage2_runs, 4u);
  const ModuleGraph* graph =
      device.StageGraph(1, ProcessingStage::kDestinationOwner);
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->packets_processed(), 4u);
  const CounterModule* counter =
      device.StageGraph(1, ProcessingStage::kDestinationOwner)
          ->FindModule<CounterModule>();
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->packets(), 4u);
}

TEST(FlowCacheTest, PayloadTruncationIsReplayedOnHits) {
  AdaptiveDevice device(0);
  ADTC_ASSERT_OK(device.InstallDeployment(
      {CertFor(1, 6),
       {NodePrefix(6)},
       std::nullopt,
       ModuleGraph::Single(std::make_unique<PayloadDeleteModule>(40))}));
  Packet miss = PacketBetween(1, 6, 80, /*size=*/512);
  EXPECT_EQ(device.Process(miss, Ctx()), Verdict::kForward);
  EXPECT_EQ(miss.size_bytes, 40u);

  Packet hit = PacketBetween(1, 6, 80, /*size=*/512);
  EXPECT_EQ(device.Process(hit, Ctx()), Verdict::kForward);
  EXPECT_EQ(device.stats().flow_cache_hits, 1u);
  EXPECT_EQ(hit.size_bytes, 40u);  // transform replayed without the module
}

TEST(FlowCacheTest, Stage1DropShortCircuitIsPreservedOnHits) {
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
  // Stage 2 never runs — neither physically nor as replayed counters.
  EXPECT_EQ(device.stats().stage2_runs, 0u);
  EXPECT_EQ(device.StageGraph(2, ProcessingStage::kDestinationOwner)
                ->packets_processed(),
            0u);
}

// --- differential: cache on vs cache off ----------------------------------

/// Two identically configured devices, one with the cache disabled.
/// Every packet is processed by both; verdicts and packet mutations must
/// match exactly, whatever the workload does.
struct DifferentialHarness {
  AdaptiveDevice cached{0};
  AdaptiveDevice uncached{0};

  DifferentialHarness() { uncached.set_flow_cache_enabled(false); }

  /// Installs the same deployment shape on both devices.
  void Install(SubscriberId subscriber, NodeId node,
               const std::function<ModuleGraph()>& source,
               const std::function<ModuleGraph()>& destination) {
    DeploymentSpec a;
    a.cert = CertFor(subscriber, node);
    a.scope = {NodePrefix(node)};
    if (source) a.source_stage = source();
    if (destination) a.destination_stage = destination();
    DeploymentSpec b;
    b.cert = a.cert;
    b.scope = a.scope;
    if (source) b.source_stage = source();
    if (destination) b.destination_stage = destination();
    ADTC_ASSERT_OK(cached.InstallDeployment(std::move(a)));
    ADTC_ASSERT_OK(uncached.InstallDeployment(std::move(b)));
  }

  /// Feeds one packet to both devices; returns the (asserted equal)
  /// verdict.
  Verdict Feed(const Packet& packet) {
    Packet a = packet;
    Packet b = packet;
    const Verdict va = cached.Process(a, Ctx());
    const Verdict vb = uncached.Process(b, Ctx());
    EXPECT_EQ(va, vb) << "verdict diverged";
    EXPECT_EQ(a.size_bytes, b.size_bytes) << "packet mutation diverged";
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.ttl, b.ttl);
    return va;
  }
};

ModuleGraph MixedRuleChain() {
  // Rules over several ports; port 80 and 3000 drop, the rest pass.
  std::vector<std::unique_ptr<Module>> modules;
  for (const std::uint16_t port : {80, 3000}) {
    MatchRule rule;
    rule.proto = Protocol::kUdp;
    rule.dst_port_range = {{port, port}};
    modules.push_back(std::make_unique<MatchModule>(rule));
  }
  modules.push_back(std::make_unique<PayloadDeleteModule>(64));
  return ModuleGraph::Chain(std::move(modules));
}

TEST(FlowCacheDifferentialTest, VerdictSequencesIdenticalAcrossWorkloads) {
  DifferentialHarness h;
  auto blacklist_graph = [] {
    auto module = std::make_unique<BlacklistModule>();
    module->Add(HostAddress(7, 1));
    return ModuleGraph::Single(std::move(module));
  };
  h.Install(1, 5, blacklist_graph, nullptr);
  h.Install(2, 6, nullptr, MixedRuleChain);

  std::size_t drops = 0;
  // Three passes over a mixed flow population: fast-path misses,
  // redirect-one-stage, redirect-two-stage, blacklisted sources, rule
  // hits and payload truncation — second and third passes replay from
  // the cache on the cached device.
  for (int pass = 0; pass < 3; ++pass) {
    for (const NodeId src : {NodeId{1}, NodeId{5}, NodeId{7}}) {
      for (const NodeId dst : {NodeId{2}, NodeId{6}}) {
        for (const std::uint16_t port : {80, 443, 3000, 9}) {
          const Verdict v =
              h.Feed(PacketBetween(src, dst, port, /*size=*/400));
          if (v == Verdict::kDrop) drops++;
        }
      }
    }
  }
  EXPECT_GT(drops, 0u);  // the workload actually exercises drops
  EXPECT_GT(h.cached.stats().flow_cache_hits, 0u);  // and the cache
}

TEST(FlowCacheDifferentialTest, MutationsMidStreamStayIdentical) {
  DifferentialHarness h;
  h.Install(2, 6, nullptr, MixedRuleChain);

  auto firewall = [](AdaptiveDevice& device) {
    return device.StageGraph(2, ProcessingStage::kDestinationOwner)
        ->FindModule<MatchModule>();
  };

  EXPECT_EQ(h.Feed(PacketBetween(1, 6, 80)), Verdict::kDrop);
  EXPECT_EQ(h.Feed(PacketBetween(1, 6, 80)), Verdict::kDrop);

  // Disarm the firewall on both devices mid-stream.
  firewall(h.cached)->set_active(false);
  firewall(h.uncached)->set_active(false);
  EXPECT_EQ(h.Feed(PacketBetween(1, 6, 80)), Verdict::kForward);

  // Re-arm: the drop comes back on both.
  firewall(h.cached)->set_active(true);
  firewall(h.uncached)->set_active(true);
  EXPECT_EQ(h.Feed(PacketBetween(1, 6, 80)), Verdict::kDrop);

  // Removal ends processing on both.
  ADTC_ASSERT_OK(h.cached.RemoveDeployment(2));
  ADTC_ASSERT_OK(h.uncached.RemoveDeployment(2));
  EXPECT_EQ(h.Feed(PacketBetween(1, 6, 80)), Verdict::kForward);
}

}  // namespace
}  // namespace adtc
