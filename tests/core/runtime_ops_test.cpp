// Runtime operations of Fig. 5's third phase: activate, modify
// parameters and read logs through the TCSP.
#include <gtest/gtest.h>

#include "attack/agent.h"
#include "core/tcsp.h"
#include "host/client.h"
#include "host/server.h"
#include "sim/faults.h"
#include "testutil.h"

namespace adtc {
namespace {

using testing::SmallWorld;

LinkParams FastLink() {
  return LinkParams{GigabitsPerSecond(1), Milliseconds(1), 1024 * 1024};
}

struct OpsWorld : SmallWorld {
  NumberAuthority authority;
  Tcsp tcsp;
  std::vector<std::unique_ptr<IspNms>> nmses;
  Server* server;
  NodeId server_as;
  OwnershipCertificate cert;

  explicit OpsWorld(std::uint64_t seed = 5)
      : SmallWorld(seed), tcsp(net, authority, "ops-key") {
    AllocateTopologyPrefixes(authority, net.node_count());
    for (NodeId node = 0; node < net.node_count(); ++node) {
      auto nms = std::make_unique<IspNms>("isp-" + std::to_string(node),
                                          net, &tcsp.validator());
      nms->ManageNode(node);
      tcsp.EnrollIsp(nms.get());
      nmses.push_back(std::move(nms));
    }
    server_as = topo.stub_nodes[0];
    server = SpawnHost<Server>(net, server_as, FastLink());
    auto result = tcsp.Register(AsOrgName(server_as), {NodePrefix(server_as)});
    EXPECT_TRUE(result.ok());
    cert = result.value();
  }
};

TEST(RuntimeOpsTest, FirewallRulesCanBeDisarmedAndRearmed) {
  OpsWorld world;
  ServiceRequest request;
  request.kind = ServiceKind::kDistributedFirewall;
  request.control_scope = {NodePrefix(world.server_as)};
  MatchRule deny_udp;
  deny_udp.proto = Protocol::kUdp;
  request.deny_rules = {deny_udp};
  ASSERT_TRUE(world.tcsp.DeployService(world.cert, request).status.ok());

  ClientConfig client_config;
  client_config.server = world.server->address();
  client_config.kind = RequestKind::kUdpRequest;
  client_config.request_rate = 50.0;
  Client* client = SpawnHost<Client>(world.net, world.topo.stub_nodes[5],
                                     FastLink(), client_config);
  client->Start();

  // Armed: UDP blocked.
  world.net.Run(Seconds(2));
  EXPECT_LT(client->stats().SuccessRatio(), 0.05);

  // Disarm via the TCSP: traffic flows again.
  ADTC_ASSERT_OK(world.tcsp.SetFirewallRulesActive(
      world.cert.subscriber, false));
  const auto before = client->stats().responses_received;
  world.net.Run(Seconds(2));
  EXPECT_GT(client->stats().responses_received, before + 50);

  // Re-arm: blocked again.
  ADTC_ASSERT_OK(world.tcsp.SetFirewallRulesActive(
      world.cert.subscriber, true));
  const auto after_rearm = client->stats().responses_received;
  world.net.Run(Seconds(2));
  EXPECT_LT(client->stats().responses_received, after_rearm + 10);
}

TEST(RuntimeOpsTest, RateLimitParameterChange) {
  OpsWorld world;
  ServiceRequest request;
  request.kind = ServiceKind::kDistributedFirewall;
  request.control_scope = {NodePrefix(world.server_as)};
  request.inbound_rate_limit_pps = 1000.0;
  ASSERT_TRUE(world.tcsp.DeployService(world.cert, request).status.ok());

  AttackDirective directive;
  directive.type = AttackType::kDirectFlood;
  directive.victim = world.server->address();
  directive.flood_proto = Protocol::kUdp;
  directive.spoof = SpoofMode::kNone;
  directive.rate_pps = 200.0;
  directive.duration = Seconds(10);
  auto* agent = SpawnHost<AgentHost>(world.net, world.topo.stub_nodes[7],
                                     FastLink(), directive);
  agent->StartFlood();
  world.net.Run(Seconds(2));
  const auto unlimited = world.net.metrics().dropped(
      TrafficClass::kAttack, DropReason::kFiltered);
  EXPECT_EQ(unlimited, 0u);  // 200 pps < 1000 pps limit

  // Tighten the limit to 10 pps at runtime.
  ADTC_ASSERT_OK(world.tcsp.SetRateLimit(world.cert.subscriber, 10.0));
  world.net.Run(Seconds(4));
  EXPECT_GT(world.net.metrics().dropped(TrafficClass::kAttack,
                                        DropReason::kFiltered),
            200u);
}

TEST(RuntimeOpsTest, ReadStatisticsAggregatesVantagePoints) {
  OpsWorld world;
  ServiceRequest request;
  request.kind = ServiceKind::kStatistics;
  request.control_scope = {NodePrefix(world.server_as)};
  ASSERT_TRUE(world.tcsp.DeployService(world.cert, request).status.ok());

  ClientConfig client_config;
  client_config.server = world.server->address();
  client_config.kind = RequestKind::kUdpRequest;
  client_config.request_rate = 50.0;
  SpawnHost<Client>(world.net, world.topo.stub_nodes[5], FastLink(),
                    client_config)
      ->Start();
  world.net.Run(Seconds(3));

  const auto report = world.tcsp.ReadStatistics(world.cert.subscriber);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().vantage_points, 0u);
  EXPECT_GT(report.value().packets, 100u);
  EXPECT_GT(report.value().bytes, report.value().packets * 30);

  const auto logs = world.tcsp.ReadLogs(world.cert.subscriber);
  ASSERT_TRUE(logs.ok());
  EXPECT_NE(logs.value().find("vantage"), std::string::npos);
}

const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const Result<T>& result) {
  return result.status();
}

/// Runs `op(done)` where it must finish inline: `done` fires exactly
/// once, before the call returns, with the returned status. Returns it.
template <typename R, typename Op>
R ExpectDoneOnceInline(Op op) {
  int calls = 0;
  Status seen = InternalError("done never fired");
  const R returned = op([&](const R& result) {
    ++calls;
    seen = StatusOf(result);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen.ToString(), StatusOf(returned).ToString());
  return returned;
}

/// Runs every runtime operation of `subscriber` with a `done` callback
/// and checks each finishes inline with `code`.
void ExpectEveryOpFailsInline(Tcsp& tcsp, SubscriberId subscriber,
                              ErrorCode code) {
  using StatsResult = Result<Tcsp::StatisticsReport>;
  EXPECT_EQ(ExpectDoneOnceInline<Status>([&](auto done) {
              return tcsp.SetFirewallRulesActive(subscriber, true, done);
            }).code(),
            code);
  EXPECT_EQ(ExpectDoneOnceInline<Status>([&](auto done) {
              return tcsp.SetRateLimit(subscriber, 5.0, done);
            }).code(),
            code);
  EXPECT_EQ(ExpectDoneOnceInline<StatsResult>([&](auto done) {
              return tcsp.ReadStatistics(subscriber, done);
            }).status().code(),
            code);
  EXPECT_EQ(ExpectDoneOnceInline<Result<std::string>>([&](auto done) {
              return tcsp.ReadLogs(subscriber, 5, done);
            }).status().code(),
            code);
}

TEST(RuntimeOpsTest, OpsFailWhenNothingDeployed) {
  OpsWorld world;
  EXPECT_EQ(world.tcsp.SetFirewallRulesActive(world.cert.subscriber, true)
                .code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(world.tcsp.SetRateLimit(world.cert.subscriber, 5.0).code(),
            ErrorCode::kNotFound);
  EXPECT_FALSE(world.tcsp.ReadStatistics(world.cert.subscriber).ok());
  EXPECT_FALSE(world.tcsp.ReadLogs(world.cert.subscriber).ok());
  ExpectEveryOpFailsInline(world.tcsp, world.cert.subscriber,
                           ErrorCode::kNotFound);
}

TEST(RuntimeOpsTest, OpsFailWhenTcspDown) {
  OpsWorld world;
  ServiceRequest request;
  request.kind = ServiceKind::kStatistics;
  request.control_scope = {NodePrefix(world.server_as)};
  ASSERT_TRUE(world.tcsp.DeployService(world.cert, request).status.ok());
  world.tcsp.set_reachable(false);
  EXPECT_EQ(world.tcsp.ReadStatistics(world.cert.subscriber)
                .status()
                .code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(world.tcsp.SetRateLimit(world.cert.subscriber, 5.0).code(),
            ErrorCode::kUnavailable);
  const obs::Counter& refused = world.tcsp.stats().requests_while_unreachable;
  const std::uint64_t refused_before = refused.value();
  ExpectEveryOpFailsInline(world.tcsp, world.cert.subscriber,
                           ErrorCode::kUnavailable);
  EXPECT_EQ(refused.value(), refused_before + 4);
}

/// An OpsWorld whose services have settled: statistics (counters plus a
/// sampled log) for the server, and a firewall with one deny rule and a
/// rate limiter for a second owner. A one-second flood at the server has
/// come and gone, so nothing the reads see changes any more.
struct SettledOpsWorld : OpsWorld {
  OwnershipCertificate firewall_cert;

  SettledOpsWorld() {
    ServiceRequest statistics;
    statistics.kind = ServiceKind::kStatistics;
    statistics.control_scope = {NodePrefix(server_as)};
    EXPECT_TRUE(tcsp.DeployService(cert, statistics).status.ok());

    const NodeId owner = topo.stub_nodes[1];
    auto registered = tcsp.Register(AsOrgName(owner), {NodePrefix(owner)});
    EXPECT_TRUE(registered.ok());
    firewall_cert = registered.value();
    ServiceRequest firewall;
    firewall.kind = ServiceKind::kDistributedFirewall;
    firewall.control_scope = {NodePrefix(owner)};
    MatchRule deny_tcp;
    deny_tcp.proto = Protocol::kTcp;
    firewall.deny_rules = {deny_tcp};
    firewall.inbound_rate_limit_pps = 1000.0;
    EXPECT_TRUE(tcsp.DeployService(firewall_cert, firewall).status.ok());

    AttackDirective directive;
    directive.type = AttackType::kDirectFlood;
    directive.victim = server->address();
    directive.flood_proto = Protocol::kUdp;
    directive.spoof = SpoofMode::kNone;
    directive.rate_pps = 200.0;
    directive.duration = Seconds(1);
    SpawnHost<AgentHost>(net, topo.stub_nodes[7], FastLink(), directive)
        ->StartFlood();
    net.Run(Seconds(3));
  }
};

/// Runs `op(done)` over faulty channels: the call returns the
/// provisional kUnavailable, and `done` fires exactly once while the
/// world runs long enough for every retry budget to play out. Returns
/// the result `done` delivered.
template <typename R, typename Op>
R ExpectDoneOnceLater(Network& net, Op op) {
  int calls = 0;
  R delivered = Status(InternalError("done never fired"));
  const R provisional = op([&](const R& result) {
    ++calls;
    delivered = result;
  });
  EXPECT_EQ(StatusOf(provisional).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(StatusOf(provisional).message(), "runtime operation in flight");
  EXPECT_EQ(calls, 0);
  net.Run(Seconds(40));  // past the retry deadline (30 s)
  EXPECT_EQ(calls, 1);
  return delivered;
}

TEST(RuntimeOpsTest, OpsConvergeOverLossyDuplicatingChannels) {
  SettledOpsWorld reference;
  SettledOpsWorld world;
  FaultInjector injector(17);
  ChannelFaults faults;
  faults.loss = 0.2;
  faults.duplicate = 0.3;
  for (const auto& nms : world.nmses) {
    injector.SetChannelFaults("tcsp->nms:" + nms->name(), faults);
  }
  world.tcsp.AttachFaultInjector(&injector);
  const SubscriberId observed = world.cert.subscriber;
  const SubscriberId filtered = world.firewall_cert.subscriber;
  using StatsResult = Result<Tcsp::StatisticsReport>;

  // The fault-free twin answers inline; the faulty world must reach the
  // same answer through retries and duplicate deliveries.
  const StatsResult expected_stats =
      reference.tcsp.ReadStatistics(observed);
  ASSERT_TRUE(expected_stats.ok()) << expected_stats.status().ToString();
  ASSERT_GT(expected_stats.value().packets, 0u);
  const StatsResult stats =
      ExpectDoneOnceLater<StatsResult>(world.net, [&](auto done) {
        return world.tcsp.ReadStatistics(observed, done);
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().vantage_points,
            expected_stats.value().vantage_points);
  EXPECT_EQ(stats.value().packets, expected_stats.value().packets);
  EXPECT_EQ(stats.value().bytes, expected_stats.value().bytes);

  const Result<std::string> expected_logs =
      reference.tcsp.ReadLogs(observed, 5);
  ASSERT_TRUE(expected_logs.ok()) << expected_logs.status().ToString();
  ASSERT_NE(expected_logs.value().find("vantage"), std::string::npos);
  std::string per_isp_logs;  // each NMS's own tail, in enrolment order
  for (const auto& nms : reference.nmses) {
    per_isp_logs += nms->ReadLogsLocal(observed, 5).logs;
  }
  EXPECT_EQ(expected_logs.value(), per_isp_logs);
  const Result<std::string> logs =
      ExpectDoneOnceLater<Result<std::string>>(world.net, [&](auto done) {
        return world.tcsp.ReadLogs(observed, 5, done);
      });
  ASSERT_TRUE(logs.ok()) << logs.status().ToString();
  EXPECT_EQ(logs.value(), expected_logs.value());

  const Status expected_disarm =
      reference.tcsp.SetFirewallRulesActive(filtered, false);
  ADTC_EXPECT_OK(expected_disarm);
  EXPECT_EQ(ExpectDoneOnceLater<Status>(world.net,
                                        [&](auto done) {
                                          return world.tcsp
                                              .SetFirewallRulesActive(
                                                  filtered, false, done);
                                        })
                .ToString(),
            expected_disarm.ToString());

  const Status expected_retarget = reference.tcsp.SetRateLimit(filtered, 50.0);
  ADTC_EXPECT_OK(expected_retarget);
  EXPECT_EQ(ExpectDoneOnceLater<Status>(world.net,
                                        [&](auto done) {
                                          return world.tcsp.SetRateLimit(
                                              filtered, 50.0, done);
                                        })
                .ToString(),
            expected_retarget.ToString());

  // The channels really were faulty.
  EXPECT_GT(injector.stats().messages_lost, 0u);
  EXPECT_GT(injector.stats().messages_duplicated, 0u);
}

}  // namespace
}  // namespace adtc
