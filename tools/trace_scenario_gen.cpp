// trace_scenario_gen — produces a JSONL telemetry timeline for
// adtc_trace to analyze (and for the trace_schema_smoke ctest to
// validate).
//
// Runs a small fault-injected control-plane scenario — message loss,
// duplication and jitter on every channel, a TCSP outage forcing the
// peer-mesh relay fallback, a crashed device recovered by anti-entropy
// resync — with a JSONL sink attached, then appends datapath verdict
// lines from a flight-recorded device chewing through a mixed packet
// workload. The result exercises every record type the offline analyzer
// knows: span, sample, verdict.
//
//   trace_scenario_gen <out.jsonl> [fault_seed]
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/modules/basic.h"
#include "core/modules/match.h"
#include "core/ownership.h"
#include "core/tcsp.h"
#include "net/topo_gen.h"
#include "obs/flight_recorder.h"
#include "sim/faults.h"

namespace adtc {
namespace {

/// The chaos-convergence scenario in miniature: two deployments (one
/// direct, one relayed through the peer mesh while the TCSP is down)
/// over lossy channels, converged by retries and resync.
void RunControlPlaneScenario(const std::string& path,
                             std::uint64_t fault_seed) {
  Network net(/*seed=*/42);
  TransitStubParams params;
  params.transit_count = 3;
  params.stub_count = 9;
  TopologyInfo topo = BuildTransitStub(net, params);
  (void)topo;

  NumberAuthority authority;
  FaultInjector injector(fault_seed);
  TcspConfig config;
  config.retry.initial_backoff = Milliseconds(20);
  config.retry.max_backoff = Milliseconds(500);
  config.retry.max_attempts = 6;
  config.retry.deadline = Seconds(20);
  config.relay_fallback = true;
  Tcsp tcsp(net, authority, "trace-gen-key", config);

  if (!net.telemetry().OpenJsonlTimeline(path)) {
    std::cerr << "trace_scenario_gen: cannot open " << path << "\n";
    std::exit(2);
  }
  net.telemetry().sampler().Start(Milliseconds(500));

  AllocateTopologyPrefixes(authority, net.node_count());
  std::vector<std::unique_ptr<IspNms>> nmses;
  for (NodeId node = 0; node < net.node_count(); ++node) {
    auto nms = std::make_unique<IspNms>("isp-" + std::to_string(node), net,
                                        &tcsp.validator());
    nms->ManageNode(node);
    tcsp.EnrollIsp(nms.get());
    nmses.push_back(std::move(nms));
  }
  tcsp.AttachFaultInjector(&injector);

  ChannelFaults faults;
  faults.loss = 0.3;
  faults.duplicate = 0.2;
  faults.jitter_max = Milliseconds(30);
  injector.SetDefaultFaults(faults);
  injector.AddDeviceOutage(/*node=*/5, 0, Seconds(10));
  injector.AddTcspOutage(Seconds(2), Seconds(4));

  const auto cert1 = tcsp.Register("as7", {NodePrefix(7)});
  const auto cert2 = tcsp.Register("as9", {NodePrefix(9)});
  if (!cert1.ok() || !cert2.ok()) {
    std::cerr << "trace_scenario_gen: registration failed\n";
    std::exit(2);
  }

  ServiceRequest request1;
  request1.kind = ServiceKind::kRemoteIngressFiltering;
  request1.placement = PlacementPolicy::kAllManagedNodes;
  request1.control_scope = {NodePrefix(7)};
  tcsp.DeployService(cert1.value(), request1,
                     CompletionPolicy::kLatencyModelled,
                     [](const DeploymentReport&) {});
  for (auto& nms : nmses) nms->StartResync(Seconds(5));

  // Into the TCSP outage: the second deployment takes the relay path.
  net.Run(Seconds(3));
  ServiceRequest request2;
  request2.kind = ServiceKind::kRemoteIngressFiltering;
  request2.placement = PlacementPolicy::kAllManagedNodes;
  request2.control_scope = {NodePrefix(9)};
  (void)tcsp.DeployService(cert2.value(), request2);

  net.Run(Seconds(60));
  for (auto& nms : nmses) nms->StopResync();
  net.Run(Seconds(10));
  net.telemetry().FlushSinks();
}

/// Appends flight-recorder verdict lines: a standalone device with a
/// blacklist + port-match chain processing a deterministic packet mix
/// (fast-path misses, redirected forwards, blacklist and rule drops,
/// repeated flows).
void AppendDatapathVerdicts(const std::string& path) {
  obs::FlightRecorder recorder(4096);
  AdaptiveDevice device(0);
  device.AttachFlightRecorder(&recorder);

  CertificateAuthority ca("trace-gen-dp-key");
  const auto cert = ca.Issue(1, "victim", {NodePrefix(6)}, 0, Seconds(1e6));

  auto blacklist = std::make_unique<BlacklistModule>();
  blacklist->Add(Prefix::Host(HostAddress(13, 1)));
  MatchRule rule;
  rule.dst_port_range = {{9000, 9100}};
  std::vector<std::unique_ptr<Module>> modules;
  modules.push_back(std::move(blacklist));
  modules.push_back(std::make_unique<MatchModule>(rule));
  DeploymentSpec spec;
  spec.cert = cert;
  spec.scope = {NodePrefix(6)};
  spec.destination_stage = ModuleGraph::Chain(std::move(modules));
  if (!device.InstallDeployment(std::move(spec)).ok()) {
    std::cerr << "trace_scenario_gen: datapath install failed\n";
    std::exit(2);
  }

  RouterContext ctx;
  for (int i = 0; i < 64; ++i) {
    Packet p;
    p.src = HostAddress(static_cast<NodeId>(10 + (i % 5)), 1);
    // Two in three packets hit the protected prefix; the rest miss.
    p.dst = HostAddress(i % 3 == 0 ? 2 : 6, 1);
    p.proto = Protocol::kUdp;
    p.src_port = static_cast<std::uint16_t>(40000 + (i % 4));
    p.dst_port = static_cast<std::uint16_t>(i % 7 == 0 ? 9050 : 80);
    p.size_bytes = 512;
    (void)device.Process(p, ctx);
  }

  std::ofstream out(path, std::ios::app);
  if (!out.good()) {
    std::cerr << "trace_scenario_gen: cannot append to " << path << "\n";
    std::exit(2);
  }
  recorder.WriteJsonl(out);
}

}  // namespace
}  // namespace adtc

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: trace_scenario_gen <out.jsonl> [fault_seed]\n";
    return 2;
  }
  const std::string path = argv[1];
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7u;
  adtc::RunControlPlaneScenario(path, seed);
  adtc::AppendDatapathVerdicts(path);
  std::cout << "trace_scenario_gen: wrote " << path << "\n";
  return 0;
}
