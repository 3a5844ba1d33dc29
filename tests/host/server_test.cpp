#include "host/server.h"

#include <gtest/gtest.h>

#include "host/client.h"

namespace adtc {
namespace {

LinkParams FastLink() {
  return LinkParams{GigabitsPerSecond(1), Milliseconds(1), 1024 * 1024};
}

struct ServerWorld {
  Network net{42};
  NodeId a, b;
  Server* server;

  explicit ServerWorld(ServerConfig config = {}) {
    a = net.AddNode(NodeRole::kStub);
    b = net.AddNode(NodeRole::kStub);
    net.Connect(a, b, FastLink(), LinkKind::kPeer);
    server = SpawnHost<Server>(net, b, FastLink(), config);
    net.FinalizeRouting();
  }
};

class ProbeHost : public Host {
 public:
  void HandlePacket(Packet&& packet) override {
    received.push_back(std::move(packet));
  }
  std::vector<Packet> received;
};

TEST(ServerTest, SynGetsSynAck) {
  ServerWorld world;
  auto* probe = SpawnHost<ProbeHost>(world.net, world.a, FastLink());
  Packet syn = probe->MakePacket(world.server->address(), Protocol::kTcp, 40);
  syn.tcp_flags = tcp::kSyn;
  syn.dst_port = 80;
  syn.src_port = 5555;
  probe->SendPacket(std::move(syn));
  world.net.Run(Seconds(1));
  ASSERT_EQ(probe->received.size(), 1u);
  EXPECT_EQ(probe->received[0].tcp_flags, tcp::kSyn | tcp::kAck);
  EXPECT_EQ(probe->received[0].src, world.server->address());
  EXPECT_EQ(probe->received[0].dst_port, 5555);
  EXPECT_EQ(world.server->half_open_count(), 1u);
}

TEST(ServerTest, AckCompletesHandshakeAndFreesSlot) {
  ServerWorld world;
  auto* probe = SpawnHost<ProbeHost>(world.net, world.a, FastLink());
  Packet syn = probe->MakePacket(world.server->address(), Protocol::kTcp, 40);
  syn.tcp_flags = tcp::kSyn;
  syn.src_port = 5555;
  probe->SendPacket(std::move(syn));
  world.net.Run(Milliseconds(100));
  Packet ack = probe->MakePacket(world.server->address(), Protocol::kTcp, 40);
  ack.tcp_flags = tcp::kAck;
  ack.src_port = 5555;
  probe->SendPacket(std::move(ack));
  world.net.Run(Seconds(1));
  EXPECT_EQ(world.server->half_open_count(), 0u);
  EXPECT_EQ(world.server->stats().handshakes_completed, 1u);
}

TEST(ServerTest, ConnectionTableFillsUnderSynFlood) {
  ServerConfig config;
  config.conn_table_size = 16;
  config.syn_timeout = Seconds(30);  // no expiry within the test
  ServerWorld world(config);
  auto* probe = SpawnHost<ProbeHost>(world.net, world.a, FastLink());
  for (int i = 0; i < 50; ++i) {
    Packet syn =
        probe->MakePacket(world.server->address(), Protocol::kTcp, 40);
    syn.tcp_flags = tcp::kSyn;
    syn.src_port = static_cast<std::uint16_t>(1000 + i);
    probe->SendPacket(std::move(syn));
  }
  world.net.Run(Seconds(1));
  EXPECT_EQ(world.server->half_open_count(), 16u);
  EXPECT_EQ(world.server->stats().denied_conn_table, 34u);
}

TEST(ServerTest, HalfOpenEntriesExpire) {
  ServerConfig config;
  config.conn_table_size = 16;
  config.syn_timeout = Milliseconds(500);
  ServerWorld world(config);
  auto* probe = SpawnHost<ProbeHost>(world.net, world.a, FastLink());
  Packet syn = probe->MakePacket(world.server->address(), Protocol::kTcp, 40);
  syn.tcp_flags = tcp::kSyn;
  syn.src_port = 1000;
  probe->SendPacket(std::move(syn));
  world.net.Run(Seconds(2));
  // Expiry is lazy (on the next SYN); send one more to trigger it.
  Packet second =
      probe->MakePacket(world.server->address(), Protocol::kTcp, 40);
  second.tcp_flags = tcp::kSyn;
  second.src_port = 1001;
  probe->SendPacket(std::move(second));
  world.net.Run(Seconds(1));
  EXPECT_EQ(world.server->half_open_count(), 1u);  // only the fresh one
  EXPECT_EQ(world.server->stats().half_open_timeouts, 1u);
}

/// Hands a segment from (src slot 9 on node a, `port`) straight to the
/// server at the current time, so each case controls Now() exactly.
void Segment(ServerWorld& world, std::uint8_t flags, std::uint16_t port) {
  Packet packet;
  packet.src = HostAddress(world.a, 9);
  packet.dst = world.server->address();
  packet.proto = Protocol::kTcp;
  packet.size_bytes = 40;
  packet.tcp_flags = flags;
  packet.src_port = port;
  packet.dst_port = 80;
  world.server->HandlePacket(std::move(packet));
}

ServerConfig ShortTimeout(std::uint32_t table_size = 16) {
  ServerConfig config;
  config.conn_table_size = table_size;
  config.syn_timeout = Milliseconds(500);
  return config;
}

TEST(ServerTest, ReSynRefreshesExpiryAndTimesOutOnceAtTheLaterExpiry) {
  ServerWorld world(ShortTimeout());
  Segment(world, tcp::kSyn, 1000);                  // expires at 500 ms
  world.net.RunUntil(Milliseconds(300));
  Segment(world, tcp::kSyn, 1000);                  // now expires at 800 ms
  Segment(world, tcp::kSyn, 1000);                  // same instant
  world.net.RunUntil(Milliseconds(600));
  Segment(world, tcp::kSyn, 2000);
  EXPECT_EQ(world.server->stats().half_open_timeouts, 0u);
  EXPECT_EQ(world.server->half_open_count(), 2u);
  world.net.RunUntil(Milliseconds(800));
  Segment(world, tcp::kSyn, 3000);
  EXPECT_EQ(world.server->stats().half_open_timeouts, 1u);
  EXPECT_EQ(world.server->half_open_count(), 2u);  // 2000 and 3000
}

TEST(ServerTest, AckThenReSynOfTheSameKey) {
  ServerWorld world(ShortTimeout());
  Segment(world, tcp::kSyn, 1000);                  // expires at 500 ms
  world.net.RunUntil(Milliseconds(100));
  Segment(world, tcp::kAck, 1000);
  EXPECT_EQ(world.server->stats().handshakes_completed, 1u);
  EXPECT_EQ(world.server->half_open_count(), 0u);
  world.net.RunUntil(Milliseconds(200));
  Segment(world, tcp::kSyn, 1000);                  // expires at 700 ms
  world.net.RunUntil(Milliseconds(500));
  Segment(world, tcp::kSyn, 2000);
  EXPECT_EQ(world.server->stats().half_open_timeouts, 0u);
  EXPECT_EQ(world.server->half_open_count(), 2u);
  world.net.RunUntil(Milliseconds(700));
  Segment(world, tcp::kSyn, 3000);
  EXPECT_EQ(world.server->stats().half_open_timeouts, 1u);
  EXPECT_EQ(world.server->half_open_count(), 2u);
  EXPECT_EQ(world.server->stats().handshakes_completed, 1u);
}

TEST(ServerTest, HalfOpenEntryExpiresAtExactlyItsDeadline) {
  ServerWorld world(ShortTimeout());
  Segment(world, tcp::kSyn, 1000);                  // expires at 500 ms
  world.net.RunUntil(Milliseconds(500) - 1);
  Segment(world, tcp::kSyn, 2000);
  EXPECT_EQ(world.server->stats().half_open_timeouts, 0u);
  world.net.RunUntil(Milliseconds(500));
  Segment(world, tcp::kSyn, 3000);
  EXPECT_EQ(world.server->stats().half_open_timeouts, 1u);
  EXPECT_EQ(world.server->half_open_count(), 2u);
}

TEST(ServerTest, FullTableFreesUpThroughExpiry) {
  ServerWorld world(ShortTimeout(/*table_size=*/4));
  for (std::uint16_t port = 1; port <= 4; ++port) {
    Segment(world, tcp::kSyn, port);
  }
  world.net.RunUntil(Milliseconds(100));
  Segment(world, tcp::kSyn, 5);                     // table full
  EXPECT_EQ(world.server->stats().denied_conn_table, 1u);
  EXPECT_EQ(world.server->half_open_count(), 4u);
  world.net.RunUntil(Milliseconds(500));
  Segment(world, tcp::kSyn, 6);                     // all four expire first
  EXPECT_EQ(world.server->stats().half_open_timeouts, 4u);
  EXPECT_EQ(world.server->stats().denied_conn_table, 1u);
  EXPECT_EQ(world.server->half_open_count(), 1u);
}

TEST(ServerTest, RstOnUnknownTcpSegment) {
  ServerWorld world;
  auto* probe = SpawnHost<ProbeHost>(world.net, world.a, FastLink());
  Packet stray = probe->MakePacket(world.server->address(), Protocol::kTcp,
                                   40);
  stray.tcp_flags = tcp::kFin;
  stray.src_port = 7777;
  probe->SendPacket(std::move(stray));
  world.net.Run(Seconds(1));
  ASSERT_EQ(probe->received.size(), 1u);
  EXPECT_EQ(probe->received[0].tcp_flags, tcp::kRst);
  EXPECT_EQ(world.server->stats().rsts_sent, 1u);
}

TEST(ServerTest, UdpServiceRepliesWithConfiguredSize) {
  ServerConfig config;
  config.udp_reply_bytes = 1500;  // DNS-style amplification
  ServerWorld world(config);
  auto* probe = SpawnHost<ProbeHost>(world.net, world.a, FastLink());
  Packet request =
      probe->MakePacket(world.server->address(), Protocol::kUdp, 60);
  request.dst_port = 80;
  request.src_port = 3333;
  probe->SendPacket(std::move(request));
  world.net.Run(Seconds(1));
  ASSERT_EQ(probe->received.size(), 1u);
  EXPECT_EQ(probe->received[0].size_bytes, 1500u);
  EXPECT_EQ(probe->received[0].dst_port, 3333);
}

TEST(ServerTest, UdpToWrongPortIgnored) {
  ServerWorld world;
  auto* probe = SpawnHost<ProbeHost>(world.net, world.a, FastLink());
  Packet request =
      probe->MakePacket(world.server->address(), Protocol::kUdp, 60);
  request.dst_port = 9999;
  probe->SendPacket(std::move(request));
  world.net.Run(Seconds(1));
  EXPECT_TRUE(probe->received.empty());
}

TEST(ServerTest, IcmpEchoReply) {
  ServerWorld world;
  auto* probe = SpawnHost<ProbeHost>(world.net, world.a, FastLink());
  Packet ping =
      probe->MakePacket(world.server->address(), Protocol::kIcmp, 64);
  ping.icmp = IcmpType::kEchoRequest;
  probe->SendPacket(std::move(ping));
  world.net.Run(Seconds(1));
  ASSERT_EQ(probe->received.size(), 1u);
  EXPECT_EQ(probe->received[0].icmp, IcmpType::kEchoReply);
}

TEST(ServerTest, CpuExhaustionDeniesService) {
  ServerConfig config;
  config.cpu_capacity_rps = 10.0;
  config.cpu_burst = 5.0;
  ServerWorld world(config);
  auto* probe = SpawnHost<ProbeHost>(world.net, world.a, FastLink());
  // 100 requests in a burst: only ~5 (burst) + handful (refill) served.
  for (int i = 0; i < 100; ++i) {
    Packet request =
        probe->MakePacket(world.server->address(), Protocol::kUdp, 60);
    request.dst_port = 80;
    request.src_port = static_cast<std::uint16_t>(1000 + i);
    probe->SendPacket(std::move(request));
  }
  world.net.Run(Seconds(1));
  EXPECT_GT(world.server->stats().denied_cpu, 80u);
  EXPECT_LT(probe->received.size(), 20u);
}

TEST(ServerTest, CpuHeadroomDropsUnderLoad) {
  ServerConfig config;
  config.cpu_capacity_rps = 100.0;
  config.cpu_burst = 50.0;
  ServerWorld world(config);
  EXPECT_NEAR(world.server->CpuHeadroom(), 1.0, 1e-9);
  auto* probe = SpawnHost<ProbeHost>(world.net, world.a, FastLink());
  for (int i = 0; i < 200; ++i) {
    Packet request =
        probe->MakePacket(world.server->address(), Protocol::kUdp, 60);
    request.dst_port = 80;
    probe->SendPacket(std::move(request));
  }
  world.net.Run(Milliseconds(50));
  EXPECT_LT(world.server->CpuHeadroom(), 0.2);
}

TEST(ServerTest, ReplyToAttackRequestIsReflectedClass) {
  ServerWorld world;
  auto* probe = SpawnHost<ProbeHost>(world.net, world.a, FastLink());
  Packet attack =
      probe->MakePacket(world.server->address(), Protocol::kTcp, 40);
  attack.tcp_flags = tcp::kSyn;
  attack.klass = TrafficClass::kAttack;
  probe->SendPacket(std::move(attack));
  world.net.Run(Seconds(1));
  ASSERT_EQ(probe->received.size(), 1u);
  EXPECT_EQ(probe->received[0].klass, TrafficClass::kReflected);
}

}  // namespace
}  // namespace adtc
