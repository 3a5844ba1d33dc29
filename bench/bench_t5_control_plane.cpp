// T5 — Figs. 4-5 / Sec. 5.1: control-plane latency and resilience.
//
// "a network user may initiate the deployment of a specific service ...
//  The TCSP maps the request to service components and instructs network
//  management systems of appropriate ISPs" — and, when the TCSP is
//  unreachable ("e.g. because of an ongoing DDoS attack on the TCSP"),
//  users go to an ISP NMS directly and configs relay peer-to-peer.
//
// Regenerates: worldwide deployment convergence time vs. ISP count and
// per-ISP device count; registration latency; the TCSP-down relay path.
#include "bench_util.h"
#include "obs/trace_analysis.h"
#include "sim/faults.h"

using namespace adtc;
using namespace adtc::bench;

namespace {

/// A world where ISPs manage groups of ASes (isp_count ISPs, each with
/// net.node_count()/isp_count devices).
struct GroupedWorld {
  Network net;
  TopologyInfo topo;
  NumberAuthority authority;
  Tcsp tcsp;
  std::vector<std::unique_ptr<IspNms>> nmses;

  GroupedWorld(std::uint64_t seed, std::uint32_t stub_count,
               std::size_t isp_count, TcspConfig config = {})
      : net(seed), tcsp(net, authority, "t5-key", config) {
    TransitStubParams params;
    params.transit_count = 8;
    params.stub_count = stub_count;
    topo = BuildTransitStub(net, params);
    AllocateTopologyPrefixes(authority, net.node_count());
    for (std::size_t i = 0; i < isp_count; ++i) {
      auto nms = std::make_unique<IspNms>("isp-" + std::to_string(i), net,
                                          &tcsp.validator());
      tcsp.EnrollIsp(nms.get());
      nmses.push_back(std::move(nms));
    }
    for (NodeId node = 0; node < net.node_count(); ++node) {
      nmses[node % isp_count]->ManageNode(node);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  BenchResultFile results("T5", ExtractJsonFlag(&argc, argv));
  PrintHeader("T5 (Figs. 4-5, Sec. 5.1) — control plane",
              "single registration, worldwide deployment in sub-second "
              "latency; peer relay survives a TCSP outage");

  // --- deployment convergence ---
  Table table("worldwide deployment latency (modelled control-plane "
              "timing: 40 ms/leg, 5 ms per device config)");
  table.SetHeader({"ISPs", "devices total", "devices/ISP",
                   "deployment latency", "devices configured"});
  for (const std::size_t isp_count : {4, 16, 64}) {
    for (const std::uint32_t stubs : {56u, 248u}) {
      GroupedWorld world(7, stubs, isp_count);
      const NodeId subject = world.topo.stub_nodes[0];
      const auto cert =
          world.tcsp.Register(AsOrgName(subject), {NodePrefix(subject)});
      if (!cert.ok()) return 1;
      ServiceRequest request;
      request.kind = ServiceKind::kRemoteIngressFiltering;
      request.control_scope = {NodePrefix(subject)};

      DeploymentReport report;
      world.tcsp.DeployService(cert.value(), request,
                               CompletionPolicy::kLatencyModelled,
                               [&](const DeploymentReport& r) { report = r; });
      world.net.Run(Seconds(60));
      table.AddRow({Table::Int(static_cast<long long>(isp_count)),
                    Table::Int(static_cast<long long>(world.net.node_count())),
                    Table::Num(static_cast<double>(world.net.node_count()) /
                                   static_cast<double>(isp_count),
                               1),
                    Table::Num(ToMilliseconds(report.Latency()), 0) + " ms",
                    Table::Int(static_cast<long long>(
                        report.devices_configured))});
      const std::string tag = "/isps=" + std::to_string(isp_count) +
                              ",stubs=" + std::to_string(stubs);
      results.AddScalar("deploy_latency_ms" + tag,
                        ToMilliseconds(report.Latency()));
      results.AddScalar("devices_configured" + tag,
                        static_cast<double>(report.devices_configured));
    }
  }
  table.Print(std::cout);

  // --- registration ---
  {
    Table reg("service registration (Fig. 4)");
    reg.SetHeader({"step", "outcome / latency"});
    GroupedWorld world(9, 56, 8);
    const NodeId subject = world.topo.stub_nodes[3];
    SimTime completed_at = -1;
    bool ok = false;
    world.tcsp.RegisterAsync(
        AsOrgName(subject), {NodePrefix(subject)},
        [&](Result<OwnershipCertificate> result) {
          ok = result.ok();
          completed_at = world.net.Now();
        });
    world.net.Run(Seconds(5));
    reg.AddRow({"identity + ownership verification round trip",
                ok ? Table::Num(ToMilliseconds(completed_at), 0) + " ms"
                   : "FAILED"});
    results.AddScalar("registration_latency_ms",
                      ok ? ToMilliseconds(completed_at) : -1.0);
    const auto rejected = world.tcsp.Register("as1", {NodePrefix(2)});
    reg.AddRow({"foreign-prefix claim", rejected.status().ToString()});
    reg.Print(std::cout);
  }

  // --- TCSP outage: peer relay ---
  {
    Table relay("TCSP under DDoS: direct-to-ISP fallback (Sec. 5.1)");
    relay.SetHeader({"path", "outcome", "devices configured"});
    GroupedWorld world(11, 56, 8);
    const NodeId subject = world.topo.stub_nodes[0];
    const auto cert =
        world.tcsp.Register(AsOrgName(subject), {NodePrefix(subject)});
    if (!cert.ok()) return 1;
    world.tcsp.set_reachable(false);

    ServiceRequest request;
    request.kind = ServiceKind::kRemoteIngressFiltering;
    request.control_scope = {NodePrefix(subject)};

    const DeploymentReport via_tcsp =
        world.tcsp.DeployService(cert.value(), request);
    relay.AddRow({"via TCSP (down)", via_tcsp.status.ToString(), "0"});

    // The user stamps its own deployment id for the direct path.
    const DeploymentInstruction instr{
        DeploymentId{DeploymentOriginTag(AsOrgName(subject)), 1},
        cert.value(), request, Tcsp::HomeNodes(request.control_scope)};
    const Status via_relay = world.nmses[0]->RelayDeploy(
        instr, world.tcsp.certificate_authority());
    std::size_t configured = 0;
    for (auto& nms : world.nmses) {
      configured += nms->CountDeployments(cert.value().subscriber);
    }
    relay.AddRow({"direct to one ISP, peer relay", via_relay.ToString(),
                  Table::Int(static_cast<long long>(configured))});
    relay.Print(std::cout);
    results.AddScalar("relay_devices_configured",
                      static_cast<double>(configured));
    results.AddScalar("relay_ok", via_relay.ok() ? 1.0 : 0.0);
  }
  // --- degraded mode: convergence vs. control-channel loss rate ---
  {
    Table degraded(
        "degraded control plane: convergence vs. message loss (retries "
        "with capped exponential backoff, anti-entropy resync every 2 s)");
    degraded.SetHeader({"loss rate", "converged at", "devices configured",
                        "retries", "messages lost"});
    for (const double loss : {0.0, 0.1, 0.2, 0.3}) {
      TcspConfig config;
      config.retry.initial_backoff = Milliseconds(50);
      config.retry.max_backoff = Seconds(1);
      config.retry.max_attempts = 8;
      config.retry.deadline = Seconds(30);
      GroupedWorld world(13, 56, 8, config);
      FaultInjector injector(13);
      ChannelFaults faults;
      faults.loss = loss;
      faults.jitter_max = Milliseconds(10);
      injector.SetDefaultFaults(faults);
      world.tcsp.AttachFaultInjector(&injector);

      const NodeId subject = world.topo.stub_nodes[0];
      const auto cert =
          world.tcsp.Register(AsOrgName(subject), {NodePrefix(subject)});
      if (!cert.ok()) return 1;
      ServiceRequest request;
      request.kind = ServiceKind::kRemoteIngressFiltering;
      request.control_scope = {NodePrefix(subject)};

      DeploymentReport report;
      world.tcsp.DeployService(cert.value(), request,
                               CompletionPolicy::kLatencyModelled,
                               [&](const DeploymentReport& r) { report = r; });
      for (auto& nms : world.nmses) nms->StartResync(Seconds(2));
      // Advance until every device carries the deployment (or time out):
      // the point where the lossy control plane has fully converged.
      SimTime converged_at = -1;
      for (int step = 0; step < 120; ++step) {
        world.net.Run(Milliseconds(250));
        std::size_t configured = 0;
        for (auto& nms : world.nmses) {
          configured += nms->CountDeployments(cert.value().subscriber);
        }
        if (configured == world.net.node_count()) {
          converged_at = world.net.Now();
          break;
        }
      }
      for (auto& nms : world.nmses) nms->StopResync();

      std::size_t configured = 0;
      for (auto& nms : world.nmses) {
        configured += nms->CountDeployments(cert.value().subscriber);
      }
      std::uint64_t retries = world.tcsp.stats().deploy_retries;
      for (auto& nms : world.nmses) {
        retries += nms->stats().install_retries;
      }
      degraded.AddRow(
          {Table::Num(loss * 100.0, 0) + " %",
           converged_at >= 0
               ? Table::Num(ToMilliseconds(converged_at), 0) + " ms"
               : "did not converge",
           Table::Int(static_cast<long long>(configured)),
           Table::Int(static_cast<long long>(retries)),
           Table::Int(static_cast<long long>(
               injector.stats().messages_lost))});
      const std::string tag = "/loss=" + Table::Num(loss, 1);
      results.AddScalar("degraded_converge_ms" + tag,
                        converged_at >= 0 ? ToMilliseconds(converged_at)
                                          : -1.0);
      results.AddScalar("degraded_devices_configured" + tag,
                        static_cast<double>(configured));
      results.AddScalar("degraded_retries" + tag,
                        static_cast<double>(retries));
    }
    degraded.Print(std::cout);
  }

  // --- trace-derived forensics: convergence percentiles + retry
  // amplification, reassembled from the causal deployment traces ---
  {
    Table traces(
        "trace-derived forensics (causal span reassembly over a lossy "
        "control plane: 8 deployments, 25% loss, 10% duplication)");
    traces.SetHeader({"metric", "value"});
    TcspConfig config;
    config.retry.initial_backoff = Milliseconds(50);
    config.retry.max_backoff = Seconds(1);
    config.retry.max_attempts = 8;
    config.retry.deadline = Seconds(30);
    GroupedWorld world(17, 56, 8, config);
    FaultInjector injector(17);
    ChannelFaults faults;
    faults.loss = 0.25;
    faults.duplicate = 0.1;
    faults.jitter_max = Milliseconds(10);
    injector.SetDefaultFaults(faults);
    world.tcsp.AttachFaultInjector(&injector);
    obs::MemoryTelemetrySink sink;
    world.net.telemetry().AttachSink(&sink);

    for (std::size_t i = 0; i < 8; ++i) {
      const NodeId subject = world.topo.stub_nodes[i];
      const auto cert =
          world.tcsp.Register(AsOrgName(subject), {NodePrefix(subject)});
      if (!cert.ok()) return 1;
      ServiceRequest request;
      request.kind = ServiceKind::kRemoteIngressFiltering;
      request.control_scope = {NodePrefix(subject)};
      world.tcsp.DeployService(cert.value(), request,
                               CompletionPolicy::kLatencyModelled,
                               [](const DeploymentReport&) {});
      world.net.Run(Seconds(2));
    }
    world.net.Run(Seconds(45));

    obs::TraceAnalyzer analyzer;
    analyzer.Analyze(sink.spans());
    const obs::TraceSummary& summary = analyzer.summary();
    traces.AddRow({"deployments reassembled",
                   Table::Int(static_cast<long long>(
                       summary.deployment_count))});
    traces.AddRow({"complete causal trees",
                   Table::Int(static_cast<long long>(
                       summary.complete_count))});
    traces.AddRow({"convergence p50",
                   Table::Num(ToMilliseconds(summary.convergence_p50), 0) +
                       " ms"});
    traces.AddRow({"convergence p95",
                   Table::Num(ToMilliseconds(summary.convergence_p95), 0) +
                       " ms"});
    traces.AddRow({"convergence p99",
                   Table::Num(ToMilliseconds(summary.convergence_p99), 0) +
                       " ms"});
    traces.AddRow({"retry amplification (attempts/call)",
                   Table::Num(summary.retry_amplification, 2)});
    traces.Print(std::cout);
    results.AddScalar("trace_deployments",
                      static_cast<double>(summary.deployment_count));
    results.AddScalar("trace_complete_timelines",
                      static_cast<double>(summary.complete_count));
    results.AddScalar("trace_convergence_p50_ms",
                      ToMilliseconds(summary.convergence_p50));
    results.AddScalar("trace_convergence_p95_ms",
                      ToMilliseconds(summary.convergence_p95));
    results.AddScalar("trace_convergence_p99_ms",
                      ToMilliseconds(summary.convergence_p99));
    results.AddScalar("trace_retry_amplification",
                      summary.retry_amplification);
  }

  if (!results.Write()) return 1;
  std::printf(
      "\nreading: one registration covers every enrolled ISP; worldwide\n"
      "deployment completes in ~(2 legs + devices x config-time) per ISP,\n"
      "i.e. sub-second even at hundreds of devices; with the TCSP down the\n"
      "peer relay still configures the whole world.\n");
  return 0;
}
