#include "worlds.h"

#include <algorithm>

namespace adtc::perfbench {
namespace {

/// Everything the benchmark decides at random is drawn from the world's
/// own RNG after the topology exists, so a seed fixes the whole world.
std::vector<NodeId> Shuffled(std::vector<NodeId> nodes, Rng& rng) {
  for (std::size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng.NextBelow(i)]);
  }
  return nodes;
}

void Expect(World& world, bool ok, const std::string& what) {
  if (!ok) world.failures.push_back(what);
}

OwnershipCertificate RegisterOwner(World& world, NodeId node) {
  Result<OwnershipCertificate> cert =
      world.ctrl.Register(AsOrgName(node), {NodePrefix(node)});
  Expect(world, cert.ok(), "register " + AsOrgName(node) + " failed");
  return cert.ok() ? cert.value() : OwnershipCertificate{};
}

/// Port the benchmark's UDP floods target; no server answers on it.
constexpr std::uint16_t kFloodPort = 9;

/// Firewall that drops UDP to the flood port on traffic towards `owner`.
ServiceRequest FirewallRequest(NodeId owner) {
  ServiceRequest request;
  request.kind = ServiceKind::kDistributedFirewall;
  request.control_scope = {NodePrefix(owner)};
  MatchRule deny;
  deny.proto = Protocol::kUdp;
  deny.dst_port_range = std::make_pair(kFloodPort, kFloodPort);
  request.deny_rules = {deny};
  return request;
}

// --- reflector-tcs ---------------------------------------------------------
//
// The paper's headline world (Sec. 4.3): a TCP reflector attack on one
// web site, defended by TCS remote ingress filtering on half of the
// ASes. Background request/reply traffic between hosts that own no TCS
// service keeps most packets on the device fast path.
constexpr SimDuration kReflectorDuration = Seconds(4);

void BuildReflectorTcs(World& world) {
  TransitStubParams topo_params;
  topo_params.transit_count = 8;
  topo_params.stub_count = 80;
  world.topo = BuildTransitStub(world.net, topo_params);
  world.EnrolIsps();

  ScenarioParams params;
  params.master_count = 3;
  params.agents_per_master = 10;
  params.reflector_count = 6;
  params.client_count = 20;
  params.client_request_rate = 20.0;
  params.directive.type = AttackType::kReflector;
  params.directive.reflector_proto = Protocol::kTcp;
  params.directive.rate_pps = 250.0;
  params.directive.duration = kReflectorDuration;
  Scenario scenario = BuildAttackScenario(world.net, world.topo, params);
  world.goodput_clients = scenario.clients;

  // Background: UDP request/reply pairs between hosts on other stubs.
  Rng& rng = world.net.rng();
  std::vector<NodeId> others;
  for (NodeId stub : world.topo.stub_nodes) {
    if (stub != scenario.victim_node) others.push_back(stub);
  }
  std::vector<Ipv4Address> servers;
  for (std::size_t i = 0; i < 24; ++i) {
    const NodeId node = others[rng.NextBelow(others.size())];
    servers.push_back(
        SpawnHost<Server>(world.net, node, params.host_access)->address());
  }
  for (std::size_t i = 0; i < 96; ++i) {
    ClientConfig config;
    config.server = servers[rng.NextBelow(servers.size())];
    config.kind = RequestKind::kUdpRequest;
    config.request_rate = 150.0;
    const NodeId node = others[rng.NextBelow(others.size())];
    SpawnHost<Client>(world.net, node, params.host_access, config)->Start();
  }

  // Half adoption, stratified so the seed moves which ASes adopt but not
  // how many of each kind: half of the transit ASes, ASes hosting half
  // of the agents (anti-spoof drops a spoofed packet at the agent's own
  // edge), half of the other stubs, and the victim's own ISP (it sells
  // the service).
  std::vector<std::size_t> agents_at(world.net.node_count(), 0);
  for (HostId agent : scenario.agent_hosts) {
    agents_at[world.net.host_node(agent)]++;
  }
  std::size_t covered = 0;
  std::vector<NodeId> other_stubs;
  for (NodeId node : Shuffled(world.topo.stub_nodes, rng)) {
    if (agents_at[node] == 0) {
      other_stubs.push_back(node);
    } else if (2 * covered < scenario.agent_hosts.size()) {
      covered += agents_at[node];
      world.Adopt(node);
    }
  }
  const std::vector<NodeId> transit = Shuffled(world.topo.transit_nodes, rng);
  for (std::size_t i = 0; i < transit.size() / 2; ++i) world.Adopt(transit[i]);
  for (std::size_t i = 0; i < other_stubs.size() / 2; ++i) {
    world.Adopt(other_stubs[i]);
  }
  if (world.nmses[scenario.victim_node]->device_count() == 0) {
    world.Adopt(scenario.victim_node);
  }

  // Ingress filtering runs at customer edges: the stub border routers.
  ServiceRequest request;
  request.kind = ServiceKind::kRemoteIngressFiltering;
  request.placement = PlacementPolicy::kStubNodesOnly;
  request.control_scope = {NodePrefix(scenario.victim_node)};
  const DeploymentReport report =
      world.ctrl.Deploy(RegisterOwner(world, scenario.victim_node), request);
  Expect(world, report.status.ok(),
         "ingress filtering deploy: " + report.status.ToString());

  scenario.attacker->Launch();
  world.duration = kReflectorDuration;
}

void CheckReflectorTcs(World& world) {
  const Metrics metrics = world.net.metrics();
  Expect(world,
         metrics.dropped(TrafficClass::kLegitimate, DropReason::kFiltered) == 0,
         "legitimate packets were filtered");
  Expect(world,
         metrics.dropped(TrafficClass::kAttack, DropReason::kFiltered) > 0,
         "ingress filtering dropped no attack packet");
}

// --- ring-flood --------------------------------------------------------------
//
// Bare forwarding on the sharded engine: a spoofed UDP flood across the
// region ring with no TCS adoption (so no device on any path), no TCP
// anywhere and no control-plane call.
constexpr SimDuration kRingDuration = Seconds(10);

void BuildRingFlood(World& world) {
  RegionRingParams topo_params;
  topo_params.regions = 4;
  topo_params.stubs_per_region = 16;
  world.topo = BuildRegionRing(world.net, topo_params);

  ScenarioParams params;
  params.master_count = 2;
  params.agents_per_master = 12;
  params.reflector_count = 0;
  params.client_count = 24;
  params.client_kind = RequestKind::kUdpRequest;
  params.client_request_rate = 40.0;
  params.directive.type = AttackType::kDirectFlood;
  params.directive.flood_proto = Protocol::kUdp;
  params.directive.victim_port = kFloodPort;
  params.directive.rate_pps = 2000.0;
  params.directive.duration = kRingDuration;
  params.victim_config.cpu_capacity_rps = 1e6;
  params.victim_config.cpu_burst = 1e5;
  Scenario scenario = BuildAttackScenario(world.net, world.topo, params);
  world.goodput_clients = scenario.clients;

  scenario.attacker->Launch();
  world.duration = kRingDuration;
}

void CheckRingFlood(World& world) {
  const ShardedStats& stats = world.net.engine().stats();
  Expect(world, stats.late_cross_events == 0, "late cross-shard events");
  Expect(world, stats.cross_shard_events > 0, "no cross-shard traffic");
}

// --- deploy-churn -------------------------------------------------------------
//
// Every AS adopts TCS. Owners deploy and withdraw a firewall on a fixed
// simulated-time schedule (open loop) while a spoofed UDP flood hits
// them and their clients keep doing TCP handshakes.
constexpr SimDuration kChurnDuration = Seconds(12);
constexpr SimDuration kChurnSlot = Milliseconds(4);
constexpr std::size_t kChurnOwners = 16;

struct ChurnOwner {
  NodeId node = kInvalidNode;
  OwnershipCertificate cert;
  bool deployed = false;
};

void ChurnToggle(World& world, ChurnOwner& owner) {
  if (owner.deployed) {
    const Status status = world.ctrl.Withdraw(owner.cert.subscriber);
    Expect(world, status.ok(), "withdraw: " + status.ToString());
  } else {
    const DeploymentReport report =
        world.ctrl.Deploy(owner.cert, FirewallRequest(owner.node));
    Expect(world, report.status.ok(), "deploy: " + report.status.ToString());
    Expect(world, report.devices_configured == world.ManagedDevices(),
           "deploy configured " + std::to_string(report.devices_configured) +
               " of " + std::to_string(world.ManagedDevices()) + " devices");
  }
  owner.deployed = !owner.deployed;
}

void BuildDeployChurn(World& world) {
  TransitStubParams topo_params;
  topo_params.transit_count = 6;
  topo_params.stub_count = 50;
  world.topo = BuildTransitStub(world.net, topo_params);
  world.EnrolIsps();
  for (NodeId node = 0; node < world.net.node_count(); ++node) {
    world.Adopt(node);
  }

  Rng& rng = world.net.rng();
  const std::vector<NodeId> stubs = Shuffled(world.topo.stub_nodes, rng);
  const LinkParams access{MegabitsPerSecond(20), Milliseconds(2), 64 * 1024};
  const LinkParams owner_access{MegabitsPerSecond(100), Milliseconds(2),
                                256 * 1024};
  // Owners on the first stubs, clients and agents on the rest.
  auto owners = std::make_shared<std::vector<ChurnOwner>>(kChurnOwners);
  const std::size_t rest = stubs.size() - kChurnOwners;
  for (std::size_t i = 0; i < kChurnOwners; ++i) {
    ChurnOwner& owner = (*owners)[i];
    owner.node = stubs[i];
    const Ipv4Address address =
        SpawnHost<Server>(world.net, owner.node, owner_access)->address();
    for (int c = 0; c < 2; ++c) {
      ClientConfig config;
      config.server = address;
      config.request_rate = 10.0;
      Client* client = SpawnHost<Client>(
          world.net, stubs[kChurnOwners + rng.NextBelow(rest)], access,
          config);
      client->Start();
      world.goodput_clients.push_back(client);
    }
    for (int a = 0; a < 2; ++a) {
      AttackDirective directive;
      directive.type = AttackType::kDirectFlood;
      directive.victim = address;
      directive.victim_port = kFloodPort;
      directive.rate_pps = 800.0;
      directive.duration = kChurnDuration;
      SpawnHost<AgentHost>(world.net,
                           stubs[kChurnOwners + rng.NextBelow(rest)], access,
                           directive)
          ->StartFlood();
    }
  }

  for (ChurnOwner& owner : *owners) {
    owner.cert = RegisterOwner(world, owner.node);
  }
  // Initial state: every other owner protected.
  for (std::size_t i = 0; i < kChurnOwners; i += 2) {
    ChurnToggle(world, (*owners)[i]);
  }
  // Open loop: one toggle per slot, owners in turn, whatever the host
  // time each call takes.
  const std::int64_t slots = kChurnDuration / kChurnSlot;
  for (std::int64_t k = 1; k < slots; ++k) {
    world.net.control().Post(k * kChurnSlot, [&world, owners, k] {
      ChurnToggle(world, (*owners)[static_cast<std::size_t>(k) % kChurnOwners]);
    });
  }
  world.duration = kChurnDuration;
}

void CheckDeployChurn(World& world) {
  // At least ten deploys must lie past the p99 of one world.
  Expect(world, world.ctrl.deploy_ns().size() >= 1000,
         "too few deploys for a p99");
}

constexpr Workload kWorkloads[] = {
    {"reflector-tcs", 1, BuildReflectorTcs, CheckReflectorTcs},
    {"ring-flood", 2, BuildRingFlood, CheckRingFlood},
    {"deploy-churn", 1, BuildDeployChurn, CheckDeployChurn},
};

}  // namespace

World::World(std::uint64_t seed, std::size_t shards)
    : net(seed, shards), tcsp(net, authority, "perfbench-key"), ctrl(tcsp) {}

void World::EnrolIsps() {
  AllocateTopologyPrefixes(authority, net.node_count());
  for (NodeId node = 0; node < net.node_count(); ++node) {
    nmses.push_back(std::make_unique<IspNms>("isp-" + std::to_string(node),
                                             net, &tcsp.validator()));
    tcsp.EnrollIsp(nmses.back().get());
  }
}

std::size_t World::ManagedDevices() const {
  std::size_t total = 0;
  for (const auto& nms : nmses) total += nms->device_count();
  return total;
}

std::uint64_t World::DedupRecords() {
  std::uint64_t total = 0;
  for (const auto& nms : nmses) {
    total += nms->applied_instruction_count();
    for (NodeId node : nms->managed_nodes()) {
      total += nms->device(node)->applied_install_count();
    }
  }
  return total;
}

double World::Goodput() const {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  for (const Client* client : goodput_clients) {
    sent += client->stats().requests_sent;
    ok += client->stats().responses_received;
  }
  return sent > 0 ? static_cast<double>(ok) / static_cast<double>(sent) : 0.0;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const Workload& workload : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += workload.name;
  }
  return names;
}

}  // namespace adtc::perfbench
