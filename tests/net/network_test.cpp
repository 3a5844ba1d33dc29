#include "net/network.h"

#include <gtest/gtest.h>

#include "host/host.h"

namespace adtc {
namespace {

/// Records everything delivered to it.
class SinkHost : public Host {
 public:
  void HandlePacket(Packet&& packet) override {
    received.push_back(std::move(packet));
  }
  std::vector<Packet> received;
};

LinkParams FastLink() {
  return LinkParams{GigabitsPerSecond(1), Milliseconds(1), 1024 * 1024};
}

/// Two routers, one host on each.
struct TwoNodeWorld {
  Network net{7};
  NodeId a, b;
  SinkHost* host_a;
  SinkHost* host_b;

  TwoNodeWorld() {
    a = net.AddNode(NodeRole::kStub);
    b = net.AddNode(NodeRole::kStub);
    net.Connect(a, b, FastLink(), LinkKind::kPeer);
    host_a = SpawnHost<SinkHost>(net, a, FastLink());
    host_b = SpawnHost<SinkHost>(net, b, FastLink());
    net.FinalizeRouting();
  }
};

TEST(NetworkTest, DeliversAcrossTwoNodes) {
  TwoNodeWorld world;
  Packet packet = world.host_a->MakePacket(world.host_b->address(),
                                           Protocol::kUdp, 100);
  world.host_a->SendPacket(std::move(packet));
  world.net.Run(Seconds(1));
  ASSERT_EQ(world.host_b->received.size(), 1u);
  EXPECT_EQ(world.host_b->received[0].src, world.host_a->address());
  EXPECT_EQ(world.host_b->received[0].size_bytes, 100u);
  EXPECT_EQ(world.net.metrics().delivered(TrafficClass::kLegitimate), 1u);
}

TEST(NetworkTest, DeliversToLocalHostSameNode) {
  Network net(9);
  const NodeId node = net.AddNode(NodeRole::kStub);
  // A lone node still routes to itself.
  auto* first = SpawnHost<SinkHost>(net, node, FastLink());
  auto* second = SpawnHost<SinkHost>(net, node, FastLink());
  net.FinalizeRouting();
  first->SendPacket(first->MakePacket(second->address(), Protocol::kUdp, 64));
  net.Run(Seconds(1));
  EXPECT_EQ(second->received.size(), 1u);
}

TEST(NetworkTest, TtlDecrementsPerRouterHop) {
  TwoNodeWorld world;
  Packet packet = world.host_a->MakePacket(world.host_b->address(),
                                           Protocol::kUdp, 64);
  packet.ttl = 64;
  world.host_a->SendPacket(std::move(packet));
  world.net.Run(Seconds(1));
  ASSERT_EQ(world.host_b->received.size(), 1u);
  // Two routers on the path (a and b); b performs local delivery without
  // spending TTL, a forwards and decrements.
  EXPECT_EQ(world.host_b->received[0].ttl, 63);
}

TEST(NetworkTest, TtlExpiryDropsPacket) {
  TwoNodeWorld world;
  world.net.set_icmp_errors_enabled(false);
  Packet packet = world.host_a->MakePacket(world.host_b->address(),
                                           Protocol::kUdp, 64);
  packet.ttl = 0;
  world.host_a->SendPacket(std::move(packet));
  world.net.Run(Seconds(1));
  EXPECT_TRUE(world.host_b->received.empty());
  EXPECT_EQ(world.net.metrics().dropped(TrafficClass::kLegitimate,
                                        DropReason::kTtlExpired),
            1u);
}

TEST(NetworkTest, TtlExpiryEmitsIcmpTimeExceeded) {
  TwoNodeWorld world;
  world.net.set_icmp_errors_enabled(true);
  Packet packet = world.host_a->MakePacket(world.host_b->address(),
                                           Protocol::kUdp, 64);
  packet.ttl = 0;
  world.host_a->SendPacket(std::move(packet));
  world.net.Run(Seconds(1));
  ASSERT_EQ(world.host_a->received.size(), 1u);
  EXPECT_EQ(world.host_a->received[0].proto, Protocol::kIcmp);
  EXPECT_EQ(world.host_a->received[0].icmp, IcmpType::kTimeExceeded);
}

TEST(NetworkTest, MissingHostGeneratesDestUnreachable) {
  TwoNodeWorld world;
  // Slot 50 under node b is unoccupied.
  Packet packet = world.host_a->MakePacket(HostAddress(world.b, 50),
                                           Protocol::kUdp, 64);
  world.host_a->SendPacket(std::move(packet));
  world.net.Run(Seconds(1));
  ASSERT_EQ(world.host_a->received.size(), 1u);
  EXPECT_EQ(world.host_a->received[0].icmp, IcmpType::kDestUnreachable);
  EXPECT_EQ(world.net.metrics().dropped(TrafficClass::kLegitimate,
                                        DropReason::kNoHost),
            1u);
}

TEST(NetworkTest, UnroutableAddressDropsNoRoute) {
  TwoNodeWorld world;
  world.net.set_icmp_errors_enabled(false);
  // A node id beyond the topology.
  Packet packet = world.host_a->MakePacket(HostAddress(999, 1),
                                           Protocol::kUdp, 64);
  world.host_a->SendPacket(std::move(packet));
  world.net.Run(Seconds(1));
  EXPECT_EQ(world.net.metrics().dropped(TrafficClass::kLegitimate,
                                        DropReason::kNoRoute),
            1u);
}

TEST(NetworkTest, DownHostBlackholes) {
  TwoNodeWorld world;
  world.host_b->SetUp(false);
  world.host_a->SendPacket(world.host_a->MakePacket(
      world.host_b->address(), Protocol::kUdp, 64));
  world.net.Run(Seconds(1));
  EXPECT_TRUE(world.host_b->received.empty());
  EXPECT_EQ(world.net.metrics().dropped(TrafficClass::kLegitimate,
                                        DropReason::kHostDown),
            1u);
}

TEST(NetworkTest, QueueOverflowDropsTail) {
  Network net(11);
  const NodeId a = net.AddNode(NodeRole::kStub);
  const NodeId b = net.AddNode(NodeRole::kStub);
  // Slow, tiny-buffer link: 1 Mbps, 2 KB buffer.
  net.Connect(a, b, LinkParams{MegabitsPerSecond(1), Milliseconds(1), 2048},
              LinkKind::kPeer);
  auto* src = SpawnHost<SinkHost>(net, a, FastLink());
  auto* dst = SpawnHost<SinkHost>(net, b, FastLink());
  net.FinalizeRouting();

  for (int i = 0; i < 100; ++i) {
    src->SendPacket(src->MakePacket(dst->address(), Protocol::kUdp, 1000));
  }
  net.Run(Seconds(5));
  EXPECT_LT(dst->received.size(), 100u);
  EXPECT_GT(dst->received.size(), 0u);
  EXPECT_GT(net.metrics().dropped(TrafficClass::kLegitimate,
                                  DropReason::kQueueFull),
            0u);
}

TEST(NetworkTest, SerialisationDelayOrdersDeliveries) {
  TwoNodeWorld world;
  for (int i = 0; i < 10; ++i) {
    Packet packet = world.host_a->MakePacket(world.host_b->address(),
                                             Protocol::kUdp, 1000);
    packet.dst_port = static_cast<std::uint16_t>(i);
    world.host_a->SendPacket(std::move(packet));
  }
  world.net.Run(Seconds(1));
  ASSERT_EQ(world.host_b->received.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(world.host_b->received[i].dst_port, i);  // FIFO preserved
  }
}

TEST(NetworkTest, ProcessorCanDropPackets) {
  struct DropAll : PacketProcessor {
    Verdict Process(Packet&, const RouterContext&) override {
      return Verdict::kDrop;
    }
    std::string_view name() const override { return "drop-all"; }
  };
  TwoNodeWorld world;
  DropAll dropper;
  world.net.AddProcessor(world.b, &dropper);
  world.host_a->SendPacket(world.host_a->MakePacket(
      world.host_b->address(), Protocol::kUdp, 64));
  world.net.Run(Seconds(1));
  EXPECT_TRUE(world.host_b->received.empty());
  EXPECT_EQ(world.net.metrics().dropped(TrafficClass::kLegitimate,
                                        DropReason::kFiltered),
            1u);
}

TEST(NetworkTest, RemoveProcessorRestoresFlow) {
  struct DropAll : PacketProcessor {
    Verdict Process(Packet&, const RouterContext&) override {
      return Verdict::kDrop;
    }
    std::string_view name() const override { return "drop-all"; }
  };
  TwoNodeWorld world;
  DropAll dropper;
  world.net.AddProcessor(world.b, &dropper);
  world.net.RemoveProcessor(world.b, &dropper);
  world.host_a->SendPacket(world.host_a->MakePacket(
      world.host_b->address(), Protocol::kUdp, 64));
  world.net.Run(Seconds(1));
  EXPECT_EQ(world.host_b->received.size(), 1u);
}

TEST(NetworkTest, HopDistanceAndPaths) {
  Network net(13);
  // Chain: 0 - 1 - 2 - 3.
  for (int i = 0; i < 4; ++i) net.AddNode(NodeRole::kTransit);
  for (NodeId i = 0; i < 3; ++i) {
    net.Connect(i, i + 1, FastLink(), LinkKind::kPeer);
  }
  net.FinalizeRouting();
  EXPECT_EQ(net.HopDistance(0, 3), 3u);
  EXPECT_EQ(net.HopDistance(0, 0), 0u);
  EXPECT_EQ(net.NextHop(0, 3), 1u);
  EXPECT_EQ(net.PathBetween(0, 3),
            (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(NetworkTest, HopCounterTracksPathLength) {
  Network net(17);
  for (int i = 0; i < 4; ++i) net.AddNode(NodeRole::kTransit);
  for (NodeId i = 0; i < 3; ++i) {
    net.Connect(i, i + 1, FastLink(), LinkKind::kPeer);
  }
  auto* src = SpawnHost<SinkHost>(net, 0, FastLink());
  auto* dst = SpawnHost<SinkHost>(net, 3, FastLink());
  net.FinalizeRouting();
  src->SendPacket(src->MakePacket(dst->address(), Protocol::kUdp, 64));
  net.Run(Seconds(1));
  ASSERT_EQ(dst->received.size(), 1u);
  EXPECT_EQ(dst->received[0].hops, 4);  // routers 0,1,2,3 all touched it
}

TEST(NetworkTest, MetricsCountBytesByClass) {
  TwoNodeWorld world;
  Packet attack = world.host_a->MakePacket(world.host_b->address(),
                                           Protocol::kUdp, 500);
  attack.klass = TrafficClass::kAttack;
  world.host_a->SendPacket(std::move(attack));
  world.net.Run(Seconds(1));
  EXPECT_EQ(world.net.metrics().bytes_sent[static_cast<std::size_t>(
                TrafficClass::kAttack)],
            500u);
  EXPECT_GT(world.net.metrics().attack_byte_hops, 0u);
}

TEST(NetworkTest, IcmpErrorsAreRateLimited) {
  TwoNodeWorld world;
  // 100 packets to a missing host: at most ~10 ICMP errors (bucket).
  for (int i = 0; i < 100; ++i) {
    world.host_a->SendPacket(world.host_a->MakePacket(
        HostAddress(world.b, 50), Protocol::kUdp, 64));
  }
  world.net.Run(Seconds(1));
  EXPECT_LE(world.host_a->received.size(), 12u);
  EXPECT_GE(world.host_a->received.size(), 1u);
}

TEST(NetworkTest, LinkDrainTieFollowsEventOrder) {
  // The sender's uplink buffer holds exactly one packet. Packet A's
  // serialisation finishes at `t`. At exactly `t`, an event posted before
  // A was sent still finds A in the buffer (queue_full); one posted after
  // A was sent finds it gone. This is the order a drain event posted at
  // send time would give, and neither "finish <= now" nor "finish < now"
  // alone reproduces it.
  Network net(13);
  const NodeId a = net.AddNode(NodeRole::kStub);
  const NodeId b = net.AddNode(NodeRole::kStub);
  net.Connect(a, b, FastLink(), LinkKind::kPeer);
  const LinkParams one_packet{MegabitsPerSecond(8), Milliseconds(1), 1000};
  auto* src = SpawnHost<SinkHost>(net, a, one_packet);
  auto* dst = SpawnHost<SinkHost>(net, b, FastLink());
  net.FinalizeRouting();

  auto send = [&](std::uint16_t port) {
    Packet packet = src->MakePacket(dst->address(), Protocol::kUdp, 1000);
    packet.dst_port = port;
    src->SendPacket(std::move(packet));
  };
  const SimTime sent_at = Milliseconds(1);
  const SimTime t = sent_at + TransmissionDelay(1000, one_packet.rate);
  ShardRef shard = net.control();
  shard.Post(t, [&] { send(2); });  // posted before A is sent
  shard.Post(sent_at, [&] {
    send(1);                         // A
    shard.Post(t, [&] { send(3); });  // posted after A is sent
  });
  net.Run(Seconds(1));

  ASSERT_EQ(dst->received.size(), 2u);
  EXPECT_EQ(dst->received[0].dst_port, 1);
  EXPECT_EQ(dst->received[1].dst_port, 3);
  EXPECT_EQ(net.metrics().dropped(TrafficClass::kLegitimate,
                                  DropReason::kQueueFull),
            1u);
}

}  // namespace
}  // namespace adtc
