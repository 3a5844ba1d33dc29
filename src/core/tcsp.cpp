#include "core/tcsp.h"

#include <algorithm>
#include <memory>
#include <optional>

namespace adtc {

Tcsp::Tcsp(Network& net, NumberAuthority& authority,
           std::string signing_key, TcspConfig config)
    : net_(net),
      authority_(authority),
      ca_(std::move(signing_key)),
      validator_(MakeStandardValidator()),
      config_(config) {
  net_.telemetry().registry().AddCollector(
      this, [this](obs::MetricsSnapshot& out) {
        out.push_back({"tcsp.registrations_accepted",
                       static_cast<double>(stats_.registrations_accepted)});
        out.push_back({"tcsp.registrations_rejected",
                       static_cast<double>(stats_.registrations_rejected)});
        out.push_back({"tcsp.deployments_completed",
                       static_cast<double>(stats_.deployments_completed)});
        out.push_back({"tcsp.deployments_failed",
                       static_cast<double>(stats_.deployments_failed)});
        out.push_back(
            {"tcsp.requests_while_unreachable",
             static_cast<double>(stats_.requests_while_unreachable)});
        out.push_back(
            {"tcsp.enrolled_isps", static_cast<double>(isps_.size())});
        out.push_back({"tcsp.deploy_retries",
                       static_cast<double>(stats_.deploy_retries)});
        out.push_back({"tcsp.relay_fallbacks",
                       static_cast<double>(stats_.relay_fallbacks)});
        out.push_back({"tcsp.runtime_ops",
                       static_cast<double>(stats_.runtime_ops)});
        const AnalysisStats& analysis = validator_.analysis_stats();
        out.push_back({"analysis.graphs_verified",
                       static_cast<double>(analysis.graphs_verified)});
        out.push_back({"analysis.graphs_rejected",
                       static_cast<double>(analysis.graphs_rejected)});
        out.push_back({"analysis.violations_found",
                       static_cast<double>(analysis.violations_found)});
        out.push_back({"analysis.soundness_violations",
                       static_cast<double>(analysis.soundness_violations)});
        out.push_back({"analysis.plans_verified",
                       static_cast<double>(analysis.plans_verified)});
        out.push_back({"analysis.plans_rejected",
                       static_cast<double>(analysis.plans_rejected)});
        out.push_back(
            {"analysis.plan_soundness_violations",
             static_cast<double>(analysis.plan_soundness_violations)});
        if (injector_ != nullptr) {
          const FaultInjectorStats& fs = injector_->stats();
          out.push_back({"faults.messages_planned",
                         static_cast<double>(fs.messages_planned)});
          out.push_back({"faults.messages_lost",
                         static_cast<double>(fs.messages_lost)});
          out.push_back({"faults.messages_duplicated",
                         static_cast<double>(fs.messages_duplicated)});
          out.push_back({"faults.messages_delayed",
                         static_cast<double>(fs.messages_delayed)});
          out.push_back({"faults.messages_reordered",
                         static_cast<double>(fs.messages_reordered)});
          out.push_back({"faults.partition_blocks",
                         static_cast<double>(fs.partition_blocks)});
          out.push_back({"faults.packets_planned",
                         static_cast<double>(fs.packets_planned)});
          out.push_back({"faults.packets_lost",
                         static_cast<double>(fs.packets_lost)});
          out.push_back({"faults.packets_corrupted",
                         static_cast<double>(fs.packets_corrupted)});
          out.push_back({"faults.link_down_drops",
                         static_cast<double>(fs.link_down_drops)});
        }
      });
}

Tcsp::~Tcsp() { net_.telemetry().registry().RemoveCollectors(this); }

/// Tracer of this world if any telemetry sink is attached, else nullptr
/// (spans no-op).
obs::Tracer* Tcsp::tracer() const {
  return net_.telemetry().tracing_enabled() ? &net_.telemetry().tracer()
                                            : nullptr;
}

void Tcsp::EnrollIsp(IspNms* nms) {
  if (nms == nullptr) return;
  for (IspNms* existing : isps_) {
    if (existing == nms) return;  // already enrolled
  }
  for (IspNms* existing : isps_) {
    existing->AddPeer(nms);
    nms->AddPeer(existing);
  }
  isps_.push_back(nms);
  nms->set_retry_policy(config_.retry);
  nms->set_peer_latency(config_.nms_peer_latency);
  if (injector_ != nullptr) {
    nms->AttachFaultInjector(injector_);
  }
}

void Tcsp::AttachFaultInjector(FaultInjector* injector) {
  injector_ = injector;
  isp_channels_.clear();  // rebuilt lazily against the new plan
  for (IspNms* nms : isps_) {
    nms->AttachFaultInjector(injector);
  }
}

bool Tcsp::TcspReachable() const {
  return reachable_ &&
         (injector_ == nullptr || injector_->TcspUp(net_.Now()));
}

ControlChannel& Tcsp::IspChannel(IspNms* nms) {
  auto it = isp_channels_.find(nms);
  if (it == isp_channels_.end()) {
    auto channel = std::make_unique<ControlChannel>(
        net_.control(), nms->sched(), control_rng_,
        "tcsp->nms:" + nms->name(), injector_);
    // The tracer's address is stable for the world's lifetime and no-ops
    // without a sink, so the channel is always wired for tracing.
    channel->SetTracer(&net_.telemetry().tracer());
    it = isp_channels_.emplace(nms, std::move(channel)).first;
  }
  return *it->second;
}

Result<OwnershipCertificate> Tcsp::Register(const std::string& subject,
                                            std::vector<Prefix> claimed,
                                            bool identity_ok) {
  obs::ScopedSpan span(tracer(), "tcsp.register");
  if (tracer() != nullptr) {
    tracer()->Annotate(span.id(), "subject", subject);
  }
  if (!TcspReachable()) {
    stats_.requests_while_unreachable++;
    span.Fail();
    return Status(Unavailable("TCSP unreachable"));
  }
  // "The TCSP checks the identity of the network user" — modelled as a
  // boolean outcome of the offline/online CA-style verification.
  if (!identity_ok) {
    stats_.registrations_rejected++;
    span.Fail();
    return Status(PermissionDenied("identity verification failed"));
  }
  if (claimed.empty()) {
    stats_.registrations_rejected++;
    span.Fail();
    return Status(InvalidArgument("no prefixes claimed"));
  }
  // "the TcSP checks with Internet number authorities if the IP addresses
  //  are indeed owned by the service requester."
  {
    obs::ScopedSpan verify_span(tracer(), "tcsp.verify_ownership");
    for (const Prefix& prefix : claimed) {
      if (const Status held = authority_.VerifyOwnership(subject, prefix);
          !held.ok()) {
        stats_.registrations_rejected++;
        verify_span.Fail();
        span.Fail();
        return Status(held.code(), "ownership of " + prefix.ToString() +
                                       " not verified for '" + subject +
                                       "': " + held.message());
      }
    }
  }
  stats_.registrations_accepted++;
  return ca_.Issue(next_subscriber_++, subject, std::move(claimed),
                   net_.Now(), config_.certificate_validity);
}

void Tcsp::RegisterAsync(
    std::string subject, std::vector<Prefix> claimed,
    std::function<void(Result<OwnershipCertificate>)> done) {
  const SimDuration total = config_.user_to_tcsp_latency +
                            config_.authority_query_latency +
                            config_.user_to_tcsp_latency;
  net_.control().PostIn(
      total, [this, subject = std::move(subject),
              claimed = std::move(claimed), done = std::move(done)] {
        done(Register(subject, claimed));
      });
}

Result<OwnershipCertificate> Tcsp::RegisterDelegate(
    const OwnershipCertificate& owner_cert, std::string delegate_name,
    std::vector<Prefix> delegated_prefixes) {
  if (!TcspReachable()) {
    stats_.requests_while_unreachable++;
    return Status(Unavailable("TCSP unreachable"));
  }
  if (const Status verified = ca_.Verify(owner_cert, net_.Now());
      !verified.ok()) {
    stats_.registrations_rejected++;
    return verified;
  }
  if (delegated_prefixes.empty()) {
    stats_.registrations_rejected++;
    return Status(InvalidArgument("no prefixes delegated"));
  }
  // A party may only hand over what it itself controls.
  for (const Prefix& prefix : delegated_prefixes) {
    if (!owner_cert.CoversPrefix(prefix)) {
      stats_.registrations_rejected++;
      return Status(PermissionDenied(
          "delegated prefix " + prefix.ToString() +
          " outside the owner's certified address space"));
    }
  }
  stats_.registrations_accepted++;
  return ca_.Issue(next_subscriber_++, std::move(delegate_name),
                   std::move(delegated_prefixes), net_.Now(),
                   config_.certificate_validity);
}

std::vector<NodeId> Tcsp::HomeNodes(const std::vector<Prefix>& prefixes) {
  std::vector<NodeId> nodes;
  for (const Prefix& prefix : prefixes) {
    const NodeId node = AddressNode(prefix.address());
    bool seen = false;
    for (NodeId existing : nodes) seen = seen || existing == node;
    if (!seen) nodes.push_back(node);
  }
  return nodes;
}

DeploymentReport Tcsp::DeployService(
    const OwnershipCertificate& cert, const ServiceRequest& request,
    CompletionPolicy policy,
    std::function<void(const DeploymentReport&)> done) {
  const bool modelled = policy == CompletionPolicy::kLatencyModelled;
  const SimTime requested_at = net_.Now();
  // The deploy span stays open across the scheduled ISP callbacks; its id
  // is captured explicitly (the active-span stack does not survive
  // scheduler Post hops).
  obs::SpanId deploy_span = obs::kNoSpan;
  if (tracer() != nullptr) {
    deploy_span = tracer()->StartSpan("tcsp.deploy");
    tracer()->SetSubscriber(deploy_span, cert.subscriber);
    tracer()->Annotate(deploy_span, "mode",
                       modelled ? "latency-modelled" : "immediate");
  }
  // Hands the finished report to the caller: synchronously for
  // kImmediate, after the user->TCSP response latency for
  // kLatencyModelled.
  auto deliver = [this, modelled](
                     const DeploymentReport& report,
                     std::function<void(const DeploymentReport&)>& cb) {
    if (!cb) return;
    if (!modelled) {
      cb(report);
      return;
    }
    net_.control().PostIn(config_.user_to_tcsp_latency,
                          [report, cb = std::move(cb)] { cb(report); });
  };

  // Every deployment gets one instruction with one id, shared by every
  // ISP: however many times any channel re-delivers it, each NMS and
  // device applies it exactly once.
  DeploymentInstruction instr;
  instr.id = DeploymentId{0, next_deployment_seq_++};
  instr.cert = cert;
  instr.request = request;
  instr.home_nodes = HomeNodes(request.control_scope);

  // The causal identity every hop of this deployment stamps its spans
  // with: channels open call/attempt spans under the deploy root, and
  // the offline analyzer reassembles the lifecycle by this tag.
  const obs::TraceContext trace = obs::TraceContext::ForDeployment(
      instr.id.origin, instr.id.seq, deploy_span);
  AnnotateTrace(tracer(), deploy_span, trace);

  // Static admission analysis, attached to the report either way the
  // deployment travels. Each NMS re-runs the authoritative gate on the
  // same shared validator before installing anything.
  const analysis::AnalysisReport analysis =
      AnalyzeRequest(cert, request, instr.home_nodes);

  if (!TcspReachable()) {
    stats_.requests_while_unreachable++;
    if (config_.relay_fallback && !isps_.empty()) {
      return RelayFallback(instr, analysis, requested_at, deploy_span,
                           done);
    }
    if (tracer() != nullptr) tracer()->EndSpan(deploy_span, /*ok=*/false);
    DeploymentReport report;
    report.status = Unavailable("TCSP unreachable");
    report.analysis = analysis;
    report.requested_at = requested_at;
    report.completed_at = requested_at;
    deliver(report, done);
    return report;
  }

  // Network-wide plan admission ahead of fan-out: snapshot the concrete
  // placement (which routers get which graphs, under which ACL budgets)
  // and prove path coverage, cross-device termination, composed
  // rate/overhead bounds and budget feasibility. A rejected plan never
  // reaches an ISP; the witness path travels back on the report.
  analysis::PlanReport plan;  // stays kNotRun unless analyzable
  analysis::PlanView plan_view;
  const bool plan_analyzable = config_.verify_plan && !isps_.empty() &&
                               net_.routing_ready() &&
                               BuildPlanView(request, instr.home_nodes,
                                             &plan_view);
  if (plan_analyzable) {
    const analysis::NetworkView net_view = BuildNetworkView(net_);
    plan = validator_.AnalyzePlan(net_view, plan_view);
    if (plan.status == analysis::PlanStatus::kRejected) {
      stats_.deployments_failed++;
      if (tracer() != nullptr) tracer()->EndSpan(deploy_span, /*ok=*/false);
      DeploymentReport rejected;
      const analysis::PlanViolation& first = plan.violations.front();
      rejected.status = SafetyViolation(
          "static plan analysis rejected deployment: " +
          std::string(analysis::PlanInvariantKindName(first.kind)) + " — " +
          first.detail + " [witness: " +
          analysis::PlanWitnessToString(net_view, first.witness_nodes) +
          "]");
      rejected.analysis = analysis;
      rejected.plan = std::move(plan);
      rejected.requested_at = requested_at;
      rejected.completed_at = net_.Now();
      deliver(rejected, done);
      return rejected;
    }
    if (plan.proven() && plan_view.require_coverage) {
      // The coverage proof becomes the plan-soundness oracle's ground
      // truth: attack traffic later observed at these victims would
      // contradict it (ReportUncoveredPathTraffic).
      proven_plans_[cert.subscriber] = instr.home_nodes;
    }
  }

  // The request reaches the TCSP, which instructs every ISP in parallel
  // over its control channel; each ISP configures its selected devices
  // sequentially. The report completes when the slowest ISP answered
  // (or its retry budget ran out). Every ISP is attempted even after a
  // failure; the report carries the worst observed outcome.
  auto report = std::make_shared<DeploymentReport>();
  report->requested_at = requested_at;
  report->analysis = analysis;
  report->plan = std::move(plan);

  if (isps_.empty()) {
    report->completed_at = requested_at;
    stats_.deployments_completed++;
    if (tracer() != nullptr) tracer()->EndSpan(deploy_span);
    deliver(*report, done);
    return *report;
  }

  report->isp_outcomes.resize(isps_.size());
  for (std::size_t i = 0; i < isps_.size(); ++i) {
    report->isp_outcomes[i].isp = isps_[i]->name();
  }
  FanOutToIsps(
      [&](IspNms* nms) {
        ControlChannel::CallOptions opts;
        opts.retry = config_.retry;
        opts.trace = trace;
        if (modelled) {
          // Count configurable devices for this ISP to model config time.
          std::size_t selected = 0;
          for (NodeId node : nms->managed_nodes()) {
            if (PlacementSelectsNode(request, net_, node)) {
              ++selected;
            }
          }
          opts.request_latency =
              config_.user_to_tcsp_latency + config_.tcsp_to_isp_latency +
              static_cast<SimDuration>(selected) * config_.device_config_time;
          // The NMS's acknowledgement rides the same control network
          // back. (Also keeps a cross-shard ISP channel inside the epoch
          // contract: a zero-latency response leg cannot legally cross
          // shards.)
          opts.response_latency = config_.tcsp_to_isp_latency;
        }
        return opts;
      },
      [this, instr](std::size_t, IspNms* nms) -> Status {
        // The channel runs this with its per-try "ctrl.attempt" span
        // active, so the NMS/device spans created inside parent under the
        // delivering attempt. A retried or duplicated copy re-runs this
        // handler; ApplyDeployment replays its record by id instead of
        // re-installing.
        return nms->ApplyDeployment(instr, ca_);
      },
      [this, report, subscriber = cert.subscriber](
          std::size_t i, const Status& status, const CallOutcome& outcome) {
        IspOutcome& slot = report->isp_outcomes[i];
        slot.status = status;
        slot.attempts = outcome.attempts;
        if (outcome.attempts > 1) {
          const std::uint32_t extra = outcome.attempts - 1;
          report->retries += extra;
          stats_.deploy_retries += extra;
        }
        if (status.ok()) {
          report->isps_configured++;
          slot.devices_configured = isps_[i]->CountDeployments(subscriber);
          report->devices_configured += slot.devices_configured;
        }
      },
      [this, report, deploy_span,
       done = std::move(done)](const Status& worst) {
        report->status = worst;
        report->completed_at = net_.Now();
        if (report->status.ok()) {
          stats_.deployments_completed++;
        } else {
          stats_.deployments_failed++;
        }
        if (tracer() != nullptr) {
          tracer()->EndSpan(deploy_span, report->status.ok());
        }
        if (done) done(*report);
      });
  // kImmediate with no injector: every channel completed inline above
  // and the report is final. Otherwise: provisional snapshot
  // (completed_at still 0) and the outcome arrives through `done`.
  return *report;
}

analysis::AnalysisReport Tcsp::AnalyzeRequest(
    const OwnershipCertificate& cert, const ServiceRequest& request,
    const std::vector<NodeId>& home_nodes) const {
  StageGraphs reference = BuildStageGraphs(
      request, LegitimateForwarderSet(net_, home_nodes));
  analysis::AnalysisReport merged;  // stays kNotRun with no graphs
  for (const auto* stage : {&reference.source_stage,
                            &reference.destination_stage}) {
    if (!stage->has_value()) continue;
    DeploymentAnalysis one = validator_.AnalyzeDeployment(
        cert, request.control_scope, **stage);
    // First rejection wins (it carries the witness); otherwise keep the
    // first stage's proof.
    if (merged.status == analysis::AnalysisStatus::kNotRun ||
        (!one.report.proven() && merged.proven())) {
      merged = std::move(one.report);
    }
  }
  return merged;
}

namespace {

/// Filter-table entries one stage graph of `request` consumes on its
/// router — the ACL-budget currency of *Optimal Filtering for DDoS
/// Attacks* (deny rules dominate; everything else is one entry).
std::uint32_t RulesRequired(const ServiceRequest& request) {
  switch (request.kind) {
    case ServiceKind::kDistributedFirewall:
      return static_cast<std::uint32_t>(request.deny_rules.size()) +
             (request.inbound_rate_limit_pps.has_value() ? 1u : 0u);
    case ServiceKind::kRemoteIngressFiltering:
      return std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(request.control_scope.size()));
    case ServiceKind::kAnomalyReaction:
      return 2;  // per-source limiter + aggregate backstop
    case ServiceKind::kTraceback:
    case ServiceKind::kStatistics:
      return 1;
  }
  return 1;
}

/// Filtering services promise to stop attack traffic; observation
/// services only watch it. Coverage is additionally only *required* when
/// the user asked for blanket placement — an explicitly narrowed
/// placement (one stub, a radius) is the user opting into partial
/// coverage, which the verifier reports through bounds, not rejection.
bool RequiresCoverage(const ServiceRequest& request) {
  const bool filtering =
      request.kind == ServiceKind::kRemoteIngressFiltering ||
      request.kind == ServiceKind::kDistributedFirewall ||
      request.kind == ServiceKind::kAnomalyReaction;
  return filtering && request.placement == PlacementPolicy::kAllManagedNodes;
}

}  // namespace

bool Tcsp::BuildPlanView(const ServiceRequest& request,
                         const std::vector<NodeId>& home_nodes,
                         analysis::PlanView* out) const {
  StageGraphs reference = BuildStageGraphs(
      request, LegitimateForwarderSet(net_, home_nodes));
  if (!reference.source_stage.has_value() &&
      !reference.destination_stage.has_value()) {
    return false;
  }
  const std::uint32_t rules = RulesRequired(request);
  out->budgets.assign(net_.node_count(), analysis::FilterBudget{});
  for (IspNms* nms : isps_) {
    for (NodeId node : nms->managed_nodes()) {
      out->budgets[node] = nms->node_filter_budget(node);
      if (!PlacementSelectsNode(request, net_, node)) continue;
      for (const auto* stage : {&reference.source_stage,
                                &reference.destination_stage}) {
        if (!stage->has_value()) continue;
        analysis::PlacementView placement;
        placement.node = static_cast<int>(node);
        placement.graph = BuildGraphView(**stage);
        placement.rules_required = rules;
        out->placements.push_back(std::move(placement));
      }
    }
  }
  if (out->placements.empty()) return false;
  // Attack ingress = every router with attached hosts: hosts are the
  // only packet sources in this world, so those routers are where
  // adversarial traffic enters the topology.
  std::vector<char> seen(net_.node_count(), 0);
  for (std::size_t h = 0; h < net_.host_count(); ++h) {
    const NodeId node = net_.host_node(static_cast<HostId>(h));
    if (!seen[node]) {
      seen[node] = 1;
      out->ingress_nodes.push_back(static_cast<int>(node));
    }
  }
  for (NodeId victim : home_nodes) {
    out->victim_nodes.push_back(static_cast<int>(victim));
  }
  out->require_coverage = RequiresCoverage(request);
  return true;
}

bool Tcsp::ReportUncoveredPathTraffic(SubscriberId subscriber,
                                      NodeId at_node) {
  const auto it = proven_plans_.find(subscriber);
  if (it == proven_plans_.end()) return false;
  validator_.CountPlanSoundnessViolation();
  DeviceEvent flag;
  flag.kind = EventKind::kPlanSoundness;
  flag.at = net_.Now();
  flag.node = at_node;
  flag.subscriber = subscriber;
  flag.detail =
      "attack traffic reached victim node " + std::to_string(at_node) +
      " along a path the plan verifier had proven covered";
  for (IspNms* nms : isps_) {
    nms->OnEvent(flag);
  }
  return true;
}

DeploymentReport Tcsp::RelayFallback(
    const DeploymentInstruction& instr,
    const analysis::AnalysisReport& analysis, SimTime requested_at,
    obs::SpanId deploy_span,
    const std::function<void(const DeploymentReport&)>& done) {
  stats_.relay_fallbacks++;
  if (tracer() != nullptr) {
    tracer()->Annotate(deploy_span, "path", "relayed");
  }
  DeploymentReport report;
  report.path = DeployPath::kRelayed;
  report.analysis = analysis;
  report.requested_at = requested_at;
  // The user contacts the first enrolled ISP directly; the instruction
  // floods the peer mesh from there (and anti-entropy resync catches
  // any peer a faulty relay missed).
  IspNms* entry = isps_.front();
  Status status;
  {
    obs::ScopedActivation activation(tracer(), deploy_span);
    status = entry->RelayDeploy(instr, ca_);
  }
  report.status = status;
  for (IspNms* nms : isps_) {
    IspOutcome outcome;
    outcome.isp = nms->name();
    // attempts == 0 marks ISPs reached via the mesh, not instructed
    // directly; their status is unknowable from an unreachable TCSP, so
    // only the device snapshot is reported.
    outcome.attempts = nms == entry ? 1 : 0;
    outcome.status = nms == entry ? status : Status::Ok();
    outcome.devices_configured =
        nms->CountDeployments(instr.cert.subscriber);
    if (outcome.devices_configured > 0) report.isps_configured++;
    report.devices_configured += outcome.devices_configured;
    report.isp_outcomes.push_back(std::move(outcome));
  }
  report.completed_at = net_.Now();
  if (report.status.ok()) {
    stats_.deployments_completed++;
  } else {
    stats_.deployments_failed++;
  }
  if (tracer() != nullptr) {
    tracer()->EndSpan(deploy_span, report.status.ok());
  }
  if (done) done(report);
  return report;
}

void Tcsp::FanOutToIsps(
    const std::function<ControlChannel::CallOptions(IspNms*)>& options,
    std::function<Status(std::size_t, IspNms*)> request,
    std::function<void(std::size_t, const Status&, const CallOutcome&)>
        answered,
    std::function<void(const Status&)> finished) {
  // Shared by every ISP's call: a retried or duplicated copy re-runs
  // `request`, and whichever ISP answers last fires `finished`.
  struct FanOut {
    std::function<Status(std::size_t, IspNms*)> request;
    std::function<void(std::size_t, const Status&, const CallOutcome&)>
        answered;
    std::function<void(const Status&)> finished;
    Status worst;
    std::size_t pending;
  };
  auto fan = std::make_shared<FanOut>(
      FanOut{std::move(request), std::move(answered), std::move(finished),
             Status::Ok(), isps_.size()});
  if (isps_.empty()) {
    fan->finished(fan->worst);
    return;
  }
  for (std::size_t i = 0; i < isps_.size(); ++i) {
    IspNms* nms = isps_[i];
    const ControlChannel::CallOptions opts = options(nms);
    IspChannel(nms).Call(
        [fan, i, nms] { return fan->request(i, nms); },
        [fan, i](const Status& status, const CallOutcome& outcome) {
          fan->worst = WorseStatus(fan->worst, status);
          if (fan->answered) fan->answered(i, status, outcome);
          if (--fan->pending == 0) fan->finished(fan->worst);
        },
        opts);
  }
}

template <typename R>
R Tcsp::RelayRuntimeOp(
    std::function<RuntimeOpResult(IspNms*)> local,
    std::function<R(const Status& worst,
                    const std::vector<RuntimeOpResult>& slots)>
        fold,
    std::function<void(const R&)> done) {
  if (!TcspReachable()) {
    stats_.requests_while_unreachable++;
    const R result = Status(Unavailable("TCSP unreachable"));
    if (done) done(result);
    return result;
  }
  stats_.runtime_ops++;
  // Per-ISP overwrite slots, so a duplicated request copy is idempotent.
  auto slots = std::make_shared<std::vector<RuntimeOpResult>>(isps_.size());
  auto final_result = std::make_shared<std::optional<R>>();
  FanOutToIsps(
      [this](IspNms*) {
        ControlChannel::CallOptions opts;
        opts.retry = config_.retry;
        return opts;
      },
      [slots, local = std::move(local)](std::size_t i,
                                        IspNms* nms) -> Status {
        (*slots)[i] = local(nms);
        return Status::Ok();
      },
      nullptr,
      [slots, final_result, fold = std::move(fold),
       done = std::move(done)](const Status& worst) {
        *final_result = fold(worst, *slots);
        if (done) done(**final_result);
      });
  // Fault-free same-shard channels completed inline; otherwise the
  // outcome is still converging through retries and arrives via `done`.
  if (final_result->has_value()) return **final_result;
  return Status(Unavailable("runtime operation in flight"));
}

Status Tcsp::SetFirewallRulesActive(
    SubscriberId subscriber, bool active,
    std::function<void(const Status&)> done) {
  return RelayRuntimeOp<Status>(
      [subscriber, active](IspNms* nms) {
        return nms->SetFirewallRulesActiveLocal(subscriber, active);
      },
      [subscriber](const Status& worst,
                   const std::vector<RuntimeOpResult>& slots) -> Status {
        std::size_t touched = 0;
        for (const RuntimeOpResult& slot : slots) touched += slot.touched;
        if (!worst.ok() || touched > 0) return worst;
        return NotFound("no firewall rules deployed for subscriber " +
                        std::to_string(subscriber));
      },
      std::move(done));
}

Status Tcsp::SetRateLimit(SubscriberId subscriber, double rate_pps,
                          std::function<void(const Status&)> done) {
  return RelayRuntimeOp<Status>(
      [subscriber, rate_pps](IspNms* nms) {
        return nms->SetRateLimitLocal(subscriber, rate_pps);
      },
      [subscriber](const Status& worst,
                   const std::vector<RuntimeOpResult>& slots) -> Status {
        std::size_t touched = 0;
        for (const RuntimeOpResult& slot : slots) touched += slot.touched;
        if (!worst.ok() || touched > 0) return worst;
        return NotFound("no rate limiters deployed for subscriber " +
                        std::to_string(subscriber));
      },
      std::move(done));
}

Result<Tcsp::StatisticsReport> Tcsp::ReadStatistics(
    SubscriberId subscriber,
    std::function<void(const Result<StatisticsReport>&)> done) {
  return RelayRuntimeOp<Result<StatisticsReport>>(
      [subscriber](IspNms* nms) {
        return nms->ReadStatisticsLocal(subscriber);
      },
      [](const Status& worst, const std::vector<RuntimeOpResult>& slots)
          -> Result<StatisticsReport> {
        if (!worst.ok()) return worst;
        StatisticsReport report;
        for (const RuntimeOpResult& slot : slots) {
          report.vantage_points += slot.touched;
          report.packets += slot.packets;
          report.bytes += slot.bytes;
        }
        if (report.vantage_points == 0) {
          return Status(NotFound("no statistics service deployed"));
        }
        return report;
      },
      std::move(done));
}

Result<std::string> Tcsp::ReadLogs(
    SubscriberId subscriber, std::size_t max_lines_per_device,
    std::function<void(const Result<std::string>&)> done) {
  return RelayRuntimeOp<Result<std::string>>(
      [subscriber, max_lines_per_device](IspNms* nms) {
        return nms->ReadLogsLocal(subscriber, max_lines_per_device);
      },
      [](const Status& worst, const std::vector<RuntimeOpResult>& slots)
          -> Result<std::string> {
        if (!worst.ok()) return worst;
        std::string logs;
        std::size_t loggers = 0;
        // Slots concatenate in enrolment order, so the aggregate is
        // deterministic no matter which channel answered last.
        for (const RuntimeOpResult& slot : slots) {
          logs += slot.logs;
          loggers += slot.touched;
        }
        if (loggers == 0) {
          return Status(NotFound("no logging service deployed"));
        }
        return logs;
      },
      std::move(done));
}

Status Tcsp::RemoveService(SubscriberId subscriber) {
  if (!TcspReachable()) {
    stats_.requests_while_unreachable++;
    return Unavailable("TCSP unreachable");
  }
  bool any = false;
  for (IspNms* nms : isps_) {
    const Status status = nms->RemoveService(subscriber);
    if (status.ok()) any = true;
  }
  if (any) proven_plans_.erase(subscriber);
  return any ? Status::Ok()
             : NotFound("subscriber has no deployments anywhere");
}

}  // namespace adtc
