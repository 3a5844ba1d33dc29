#include "core/nms.h"

#include <algorithm>
#include <cassert>

#include "obs/span.h"
#include "obs/trace_context.h"

namespace adtc {
namespace {

std::uint64_t DeployKey(SubscriberId subscriber, ServiceKind kind) {
  return (static_cast<std::uint64_t>(subscriber) << 8) |
         static_cast<std::uint64_t>(kind);
}

// FNV-1a, the same construction DeploymentSpecDigest uses device-side.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((value >> (i * 8)) & 0xff)) * kFnvPrime;
  }
  return h;
}

std::uint64_t FnvMix(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t InstructionDigest(const DeploymentInstruction& instr) {
  std::uint64_t h = kFnvOffset;
  h = FnvMix(h, instr.id.origin);
  h = FnvMix(h, instr.id.seq);
  h = FnvMix(h, static_cast<std::uint64_t>(instr.cert.subscriber));
  h = FnvMix(h, instr.cert.subject);
  h = FnvMix(h, static_cast<std::uint64_t>(instr.cert.expires_at));
  for (const std::uint8_t byte : instr.cert.signature) {
    h = (h ^ byte) * kFnvPrime;
  }
  h = FnvMix(h, static_cast<std::uint64_t>(instr.request.kind));
  for (const Prefix& prefix : instr.request.control_scope) {
    h = FnvMix(h, (static_cast<std::uint64_t>(prefix.address().bits()) << 8) |
                      prefix.length());
  }
  for (const NodeId node : instr.home_nodes) {
    h = FnvMix(h, static_cast<std::uint64_t>(node));
  }
  return h;
}

/// Forwards one device's events into DeliverEvent with the node id
/// attached, so the upcall can ride that device's event channel.
struct IspNms::DeviceEventProxy : EventSink {
  DeviceEventProxy(IspNms* nms, NodeId node) : nms(nms), node(node) {}
  void OnEvent(const DeviceEvent& event) override {
    nms->DeliverEvent(node, event);
  }
  IspNms* nms;
  NodeId node;
};

IspNms::IspNms(std::string isp_name, Network& net,
               const SafetyValidator* validator)
    : name_(std::move(isp_name)),
      net_(net),
      sched_(net.control()),
      validator_(validator),
      control_rng_(DeploymentOriginTag(name_)) {
  const std::string prefix = "nms." + name_ + ".";
  net_.telemetry().registry().AddCollector(
      this, [this, prefix](obs::MetricsSnapshot& out) {
        out.push_back({prefix + "deployments_installed",
                       static_cast<double>(stats_.deployments_installed)});
        out.push_back({prefix + "deployments_rejected",
                       static_cast<double>(stats_.deployments_rejected)});
        out.push_back({prefix + "relays_forwarded",
                       static_cast<double>(stats_.relays_forwarded)});
        out.push_back({prefix + "relays_received",
                       static_cast<double>(stats_.relays_received)});
        out.push_back({prefix + "events_received",
                       static_cast<double>(stats_.events_received)});
        out.push_back({prefix + "events_dropped",
                       static_cast<double>(event_log_.dropped_events())});
        out.push_back({prefix + "devices",
                       static_cast<double>(devices_.size())});
        out.push_back({prefix + "duplicate_instructions",
                       static_cast<double>(stats_.duplicate_instructions)});
        out.push_back({prefix + "install_retries",
                       static_cast<double>(stats_.install_retries)});
        out.push_back({prefix + "installs_deferred",
                       static_cast<double>(stats_.installs_deferred)});
        out.push_back({prefix + "retry_sweeps",
                       static_cast<double>(stats_.retry_sweeps)});
        out.push_back({prefix + "resync_rounds",
                       static_cast<double>(stats_.resync_rounds)});
        out.push_back({prefix + "resync_installs",
                       static_cast<double>(stats_.resync_installs)});
        out.push_back({prefix + "soundness_flags",
                       static_cast<double>(stats_.soundness_flags)});
        out.push_back({prefix + "replays_rejected",
                       static_cast<double>(stats_.replays_rejected)});
        out.push_back({prefix + "certs_expired_rejected",
                       static_cast<double>(stats_.certs_expired_rejected)});
        out.push_back({prefix + "certs_forged_rejected",
                       static_cast<double>(stats_.certs_forged_rejected)});
        out.push_back(
            {prefix + "quarantines_propagated",
             static_cast<double>(stats_.quarantines_propagated)});
        out.push_back({prefix + "device_restarts",
                       static_cast<double>(stats_.device_restarts)});
        out.push_back({prefix + "quarantine_latency",
                       static_cast<double>(max_quarantine_latency_)});
      });
}

IspNms::~IspNms() {
  net_.telemetry().registry().RemoveCollectors(this);
}

void IspNms::ManageNode(NodeId node) {
  if (devices_.contains(node)) return;
  if (managed_.empty()) {
    sched_ = net_.shard_at(node);  // first device pins the NMS's shard
  } else {
    assert(net_.shard_at(node).SameShard(sched_) &&
           "an NMS and all its managed devices must share one shard");
  }
  // Events travel device->proxy->event channel->OnEvent, so upcalls can
  // be lost/delayed like any other management message when an injector
  // is attached.
  auto proxy = std::make_unique<DeviceEventProxy>(this, node);
  auto device = std::make_unique<AdaptiveDevice>(node, proxy.get());
  device->BindTelemetry(&net_.telemetry());
  net_.AddProcessor(node, device.get());
  devices_.emplace(node, std::move(device));
  event_proxies_.emplace(node, std::move(proxy));
  managed_.push_back(node);
  ArmRouterRestartsFor(node);
}

AdaptiveDevice* IspNms::device(NodeId node) {
  const auto it = devices_.find(node);
  return it != devices_.end() ? it->second.get() : nullptr;
}

void IspNms::AttachFaultInjector(FaultInjector* injector) {
  injector_ = injector;
  // Channels capture the injector at construction; drop them so the next
  // use rebuilds against the new plan.
  device_channels_.clear();
  event_channels_.clear();
  peer_channels_.clear();
  ArmRouterRestarts();
}

void IspNms::ArmRouterRestarts() {
  if (injector_ == nullptr) return;
  for (NodeId node : managed_) {
    ArmRouterRestartsFor(node);
  }
}

void IspNms::ArmRouterRestartsFor(NodeId node) {
  if (injector_ == nullptr) return;
  const std::vector<SimTime>& restarts =
      injector_->RouterRestartsFor(node);
  std::size_t& armed = restarts_armed_[node];
  for (; armed < restarts.size(); ++armed) {
    const SimTime when = std::max(restarts[armed], sched_.Now());
    sched_.Post(when, [this, node] { RestartDevice(node); });
  }
}

void IspNms::RestartDevice(NodeId node) {
  AdaptiveDevice* dev = device(node);
  if (dev == nullptr) return;
  dev->Restart();
  stats_.device_restarts++;
  // The wiped device re-converges through the backoff sweep (and, if
  // running, the periodic resync) — same recovery path a crashed-then-
  // recovered device takes.
  sweep_attempt_ = 0;
  ScheduleRetrySweep();
}

void IspNms::AddPeer(IspNms* peer) {
  if (peer == nullptr || peer == this) return;
  if (std::find(peers_.begin(), peers_.end(), peer) != peers_.end()) {
    return;
  }
  peers_.push_back(peer);
}

std::string IspNms::DeviceChannelName(NodeId node) const {
  return "nms:" + name_ + "->dev:" + std::to_string(node);
}

const std::string& IspNms::DeviceChannelNameRef(NodeId node) {
  auto it = device_channel_names_.find(node);
  if (it == device_channel_names_.end()) {
    it = device_channel_names_.emplace(node, DeviceChannelName(node)).first;
  }
  return it->second;
}

ControlChannel& IspNms::DeviceChannel(NodeId node) {
  auto it = device_channels_.find(node);
  if (it == device_channels_.end()) {
    // NMS and device share a shard (ManageNode contract), so the
    // channel's both ends anchor there and the inline fast path holds.
    auto channel = std::make_unique<ControlChannel>(
        sched_, net_.shard_at(node), control_rng_, DeviceChannelName(node),
        injector_, [this, node] {
          return injector_ == nullptr ||
                 injector_->DeviceUp(node, net_.Now());
        });
    channel->SetTracer(&net_.telemetry().tracer());
    it = device_channels_.emplace(node, std::move(channel)).first;
  }
  return *it->second;
}

ControlChannel& IspNms::EventChannel(NodeId node) {
  auto it = event_channels_.find(node);
  if (it == event_channels_.end()) {
    // Upcall direction: the device's shard is the NMS's shard (ManageNode
    // contract), so both ends anchor on sched_.
    auto channel = std::make_unique<ControlChannel>(
        sched_, sched_, control_rng_,
        "dev:" + std::to_string(node) + "->nms:" + name_, injector_);
    channel->SetTracer(&net_.telemetry().tracer());
    it = event_channels_.emplace(node, std::move(channel)).first;
  }
  return *it->second;
}

ControlChannel& IspNms::PeerChannel(IspNms* peer) {
  auto it = peer_channels_.find(peer);
  if (it == peer_channels_.end()) {
    // Peer relays cross management domains — and possibly shards: the
    // remote end is the peer NMS's shard. Cross-shard peers need
    // set_peer_latency >= the engine epoch.
    auto channel = std::make_unique<ControlChannel>(
        sched_, peer->sched(), control_rng_,
        "nms:" + name_ + "->nms:" + peer->name(), injector_);
    channel->SetTracer(&net_.telemetry().tracer());
    it = peer_channels_.emplace(peer, std::move(channel)).first;
  }
  return *it->second;
}

std::optional<Status> IspNms::RecordedOutcome(
    const DeploymentInstruction& instr, std::string_view replay_what) {
  if (!instr.id.valid()) return std::nullopt;
  const auto it = applied_.find(instr.id);
  if (it == applied_.end()) return std::nullopt;
  // A re-delivered copy must carry the same content as the first.
  // Anything else is an adversary re-using a known id to smuggle a
  // mutated instruction past the dedup shield.
  if (it->second.digest != InstructionDigest(instr)) {
    stats_.replays_rejected++;
    return ReplayDetected(std::string(replay_what) +
                          " id re-used with mutated content at " + name_);
  }
  stats_.duplicate_instructions++;
  return it->second.status;
}

Status IspNms::ApplyDeployment(const DeploymentInstruction& instr,
                               const CertificateAuthority& authority) {
  if (auto recorded = RecordedOutcome(instr, "deployment")) {
    return *recorded;
  }
  const Status status = ApplyDeploymentImpl(instr, authority);
  if (instr.id.valid()) {
    applied_.emplace(instr.id,
                     AppliedRecord{status, InstructionDigest(instr)});
  }
  return status;
}

Status IspNms::ApplyDeploymentImpl(const DeploymentInstruction& instr,
                                   const CertificateAuthority& authority) {
  obs::Tracer* tracer = net_.telemetry().tracing_enabled()
                            ? &net_.telemetry().tracer()
                            : nullptr;
  obs::ScopedSpan span(tracer, "nms.deploy");
  span.SetSubscriber(instr.cert.subscriber);
  if (tracer != nullptr) {
    tracer->Annotate(span.id(), "isp", name_);
    AnnotateTrace(tracer, span.id(),
                  obs::TraceContext::ForDeployment(instr.id.origin,
                                                   instr.id.seq));
  }
  authority_ = &authority;
  {
    obs::ScopedSpan validate_span(tracer, "cert.validate");
    if (const Status verified =
            authority.Verify(instr.cert, net_.Now());
        !verified.ok()) {
      stats_.deployments_rejected++;
      // Split by cause for the containment report: stale certificate
      // versus forged/unknown signature.
      if (verified.code() == ErrorCode::kExpired) {
        stats_.certs_expired_rejected++;
      } else {
        stats_.certs_forged_rejected++;
      }
      validate_span.Fail();
      span.Fail();
      return verified;
    }
  }
  // Anti-spoofing must exempt every edge that can legitimately carry the
  // owner's addresses: the home ASes and their provider chains.
  std::vector<NodeId> legit_forwarders =
      LegitimateForwarderSet(net_, instr.home_nodes);
  // Analyze once against reference graphs (all devices get identically
  // shaped graphs for a given request). Devices sit at transit vantage
  // points too, so no customer-edge guarantee is claimed — the default
  // AnalysisContext.
  bool statically_proven = false;
  {
    obs::ScopedSpan analyze_span(tracer, "safety.analyze");
    StageGraphs reference =
        BuildStageGraphs(instr.request, legit_forwarders);
    const ModuleGraph* graph =
        reference.source_stage ? &*reference.source_stage
                               : (reference.destination_stage
                                      ? &*reference.destination_stage
                                      : nullptr);
    if (graph == nullptr) {
      stats_.deployments_rejected++;
      analyze_span.Fail();
      span.Fail();
      return InvalidArgument("service request produced no graphs");
    }
    const DeploymentAnalysis first = validator_->AnalyzeDeployment(
        instr.cert, instr.request.control_scope, *graph);
    if (!first.status.ok()) {
      stats_.deployments_rejected++;
      analyze_span.Fail();
      span.Fail();
      return first.status;
    }
    statically_proven = first.report.proven();
    if (reference.destination_stage && reference.source_stage) {
      const DeploymentAnalysis second = validator_->AnalyzeDeployment(
          instr.cert, instr.request.control_scope,
          *reference.destination_stage);
      if (!second.status.ok()) {
        stats_.deployments_rejected++;
        analyze_span.Fail();
        span.Fail();
        return second.status;
      }
      statically_proven = statically_proven && second.report.proven();
    }
  }

  DesiredDeployment desired;
  desired.instr = instr;
  desired.legit_forwarders = std::move(legit_forwarders);
  desired.statically_proven = statically_proven;
  desired.trace_anchor = span.id();
  const DeploymentId key = instr.id;
  desired_.insert_or_assign(key, std::move(desired));
  sweep_attempt_ = 0;  // a fresh deployment gets a fresh retry budget
  InstallRound(key);
  // Fault-free channels completed inline, so `worst` is final here; a
  // faulty channel reports later and converges through retries/resync,
  // in which case acceptance is what we can promise now.
  const DesiredDeployment& d = desired_.at(key);
  if (!d.worst.ok()) {
    stats_.deployments_rejected++;
    span.Fail();
    return d.worst;
  }
  return Status::Ok();
}

void IspNms::InstallRound(const DeploymentId& id) {
  const auto it = desired_.find(id);
  if (it == desired_.end()) return;
  const DesiredDeployment& d = it->second;
  const SubscriberId subscriber = d.instr.cert.subscriber;
  const ServiceRequest request = d.instr.request;
  for (NodeId node : managed_) {
    if (!PlacementSelectsNode(request, net_, node)) continue;
    if (devices_.at(node)->HasDeployment(subscriber)) continue;
    ControlChannel::CallOptions opts;
    opts.retry = retry_policy_;
    opts.trace = obs::TraceContext::ForDeployment(id.origin, id.seq,
                                                  d.trace_anchor);
    DeviceChannel(node).Call(
        [this, id, node] { return InstallOnDevice(id, node); },
        [this, id, node](const Status& status, const CallOutcome& outcome) {
          OnDeviceInstallResult(id, node, status, outcome);
        },
        opts);
  }
}

Status IspNms::InstallOnDevice(const DeploymentId& id, NodeId node) {
  const auto it = desired_.find(id);
  if (it == desired_.end()) {
    return NotFound("deployment no longer desired at " + name_);
  }
  const DesiredDeployment& d = it->second;
  AdaptiveDevice* dev = devices_.at(node).get();
  // Re-delivered copies of an already-landed install are a no-op.
  if (dev->HasDeployment(d.instr.cert.subscriber)) return Status::Ok();
  StageGraphs graphs =
      BuildStageGraphs(d.instr.request, d.legit_forwarders);
  DeploymentSpec spec;
  spec.cert = d.instr.cert;
  spec.scope = d.instr.request.control_scope;
  spec.source_stage = std::move(graphs.source_stage);
  spec.destination_stage = std::move(graphs.destination_stage);
  spec.label = std::string(ServiceKindName(d.instr.request.kind));
  spec.deployment_id = id;
  return dev->InstallDeployment(std::move(spec));
}

void IspNms::OnDeviceInstallResult(const DeploymentId& id, NodeId node,
                                   const Status& status,
                                   const CallOutcome& outcome) {
  (void)node;
  const auto it = desired_.find(id);
  if (it == desired_.end()) return;  // removed while in flight
  DesiredDeployment& d = it->second;
  if (outcome.attempts > 1) {
    stats_.install_retries += outcome.attempts - 1;
  }
  if (status.ok()) {
    if (!d.counted) {
      d.counted = true;
      stats_.deployments_installed++;
      deployed_keys_.insert(
          DeployKey(d.instr.cert.subscriber, d.instr.request.kind));
    }
    return;
  }
  d.worst = WorseStatus(d.worst, status);
  if (status.code() == ErrorCode::kUnavailable) {
    // Device crashed or every copy was lost; keep trying on a backoff
    // sweep until the budget runs out, then leave it to resync.
    stats_.installs_deferred++;
    ScheduleRetrySweep();
  }
}

void IspNms::ScheduleRetrySweep() {
  if (sweep_scheduled_ || sweep_attempt_ >= kMaxSweepAttempts) return;
  sweep_scheduled_ = true;
  const SimDuration delay =
      retry_policy_.BackoffAfter(++sweep_attempt_, control_rng_);
  sched_.PostIn(std::max<SimDuration>(delay, 1), [this] {
    sweep_scheduled_ = false;
    stats_.retry_sweeps++;
    (void)ResyncLocalDevices(/*from_resync=*/false);
    if (AnyInstallPending()) {
      ScheduleRetrySweep();
    } else {
      sweep_attempt_ = 0;
    }
  });
}

bool IspNms::AnyInstallPending() const {
  for (const auto& [id, d] : desired_) {
    (void)id;
    for (NodeId node : managed_) {
      if (!PlacementSelectsNode(d.instr.request, net_, node)) continue;
      if (!devices_.at(node)->HasDeployment(d.instr.cert.subscriber)) {
        return true;
      }
    }
  }
  return false;
}

std::size_t IspNms::ResyncLocalDevices(bool from_resync) {
  std::size_t installed = 0;
  const SimTime now = net_.Now();
  obs::Tracer* tracer = net_.telemetry().tracing_enabled()
                            ? &net_.telemetry().tracer()
                            : nullptr;
  for (auto& [id, d] : desired_) {
    for (NodeId node : managed_) {
      if (!PlacementSelectsNode(d.instr.request, net_, node)) continue;
      if (devices_.at(node)->HasDeployment(d.instr.cert.subscriber)) {
        continue;
      }
      if (injector_ != nullptr && !injector_->DeviceUp(node, now)) {
        continue;  // still down; a later round catches it
      }
      MessageFate fate;
      if (injector_ != nullptr) {
        fate = injector_->PlanMessage(DeviceChannelNameRef(node));
      }
      // Each recovery attempt is a span under the deployment's local
      // anchor, with the injector's verdict on its single message — so
      // the offline timeline shows *how* convergence happened, not just
      // that it did.
      obs::SpanId span = obs::kNoSpan;
      if (tracer != nullptr) {
        span = tracer->StartSpan("nms.resync_install", d.trace_anchor);
        tracer->SetNode(span, node);
        tracer->Annotate(span, "channel", DeviceChannelName(node));
        tracer->Annotate(span, "sweep", from_resync ? "resync" : "retry");
        AnnotateTrace(tracer, span,
                      obs::TraceContext::ForDeployment(id.origin, id.seq));
        tracer->Annotate(
            span, "fate",
            !fate.deliver ? "lost"
                          : (fate.duplicate ? "duplicated" : "delivered"));
      }
      if (!fate.deliver) {
        if (tracer != nullptr) tracer->EndSpan(span, false);
        continue;
      }
      Status status;
      {
        const obs::ScopedActivation activation(tracer, span);
        status = InstallOnDevice(id, node);
        if (fate.duplicate) {
          (void)InstallOnDevice(id, node);  // device dedups by id
        }
      }
      if (tracer != nullptr) tracer->EndSpan(span, status.ok());
      if (status.ok()) {
        installed++;
        if (from_resync) stats_.resync_installs++;
        if (!d.counted) {
          d.counted = true;
          stats_.deployments_installed++;
          deployed_keys_.insert(
              DeployKey(d.instr.cert.subscriber, d.instr.request.kind));
        }
      }
    }
  }
  return installed;
}

std::size_t IspNms::ResyncNow() {
  stats_.resync_rounds++;
  const std::size_t installed = ResyncLocalDevices(/*from_resync=*/true);
  // Peer anti-entropy: re-offer everything we hold; a peer that already
  // has an instruction replays its record by id, one that missed it
  // (partition, lost relay) finally applies it.
  if (authority_ != nullptr) {
    for (const auto& [id, d] : desired_) {
      (void)id;
      RelayToPeers(d.instr, *authority_);
    }
  }
  return installed;
}

void IspNms::StartResync(SimDuration period) {
  if (resync_running_) return;
  resync_running_ = true;
  sched_.PostEvery(period, [this] {
    if (!resync_running_) return false;
    ResyncNow();
    return true;
  });
}

Status IspNms::RemoveService(SubscriberId subscriber) {
  bool removed = false;
  for (auto& [node, device] : devices_) {
    if (device->HasDeployment(subscriber)) {
      const Status status = device->RemoveDeployment(subscriber);
      if (!status.ok()) return status;
      removed = true;
    }
  }
  if (!removed) {
    return NotFound("subscriber has no deployments at " + name_);
  }
  std::erase_if(deployed_keys_, [subscriber](std::uint64_t key) {
    return (key >> 8) == subscriber;
  });
  // Stop converging toward the removed service.
  std::erase_if(desired_, [subscriber](const auto& entry) {
    return entry.second.instr.cert.subscriber == subscriber;
  });
  return Status::Ok();
}

Status IspNms::RelayDeploy(const DeploymentInstruction& instr,
                           const CertificateAuthority& authority) {
  // A mutated replay is rejected AND never forwarded, so a compromised
  // peer cannot launder bogus content through the flood; a duplicate
  // terminates the flood at this hop.
  if (auto recorded = RecordedOutcome(instr, "relayed deployment")) {
    return *recorded;
  }
  if (deployed_keys_.contains(
          DeployKey(instr.cert.subscriber, instr.request.kind))) {
    return Status::Ok();  // same service landed under an earlier id
  }
  stats_.relays_received++;
  const Status local = ApplyDeployment(instr, authority);
  if (!local.ok() && local.code() != ErrorCode::kAlreadyExists) {
    return local;
  }
  RelayToPeers(instr, authority);
  return Status::Ok();
}

void IspNms::RelayToPeers(const DeploymentInstruction& instr,
                          const CertificateAuthority& authority) {
  // Relay sends parent under this NMS's anchor for the instruction, so a
  // flood that crosses several peers stays one causal tree rooted at the
  // deployment's origin.
  obs::TraceContext trace;
  if (net_.telemetry().tracing_enabled() && instr.id.valid()) {
    const auto it = desired_.find(instr.id);
    trace = obs::TraceContext::ForDeployment(
        instr.id.origin, instr.id.seq,
        it != desired_.end() ? it->second.trace_anchor : obs::kNoSpan);
  }
  for (IspNms* peer : peers_) {
    stats_.relays_forwarded++;
    // Best effort: a peer rejecting (e.g. no matching nodes) does not
    // abort the flood. Partitions are checked at delivery time, so a
    // heal during flight lets the message through.
    const CertificateAuthority* auth = &authority;
    PeerChannel(peer).Send(
        [this, peer, instr, auth] {
          if (injector_ != nullptr &&
              injector_->Partitioned(name_, peer->name())) {
            return;
          }
          (void)peer->RelayDeploy(instr, *auth);
        },
        peer_latency_, trace);
  }
}

std::size_t IspNms::ForEachStageGraph(
    SubscriberId subscriber,
    const std::function<void(NodeId, ProcessingStage, ModuleGraph&)>& fn) {
  std::size_t visited = 0;
  for (NodeId node : managed_) {
    AdaptiveDevice* dev = devices_.at(node).get();
    for (ProcessingStage stage : {ProcessingStage::kSourceOwner,
                                  ProcessingStage::kDestinationOwner}) {
      ModuleGraph* graph = dev->StageGraph(subscriber, stage);
      if (graph != nullptr) {
        fn(node, stage, *graph);
        ++visited;
      }
    }
  }
  return visited;
}

RuntimeOpResult IspNms::SetFirewallRulesActiveLocal(SubscriberId subscriber,
                                                    bool active) {
  RuntimeOpResult result;
  ForEachStageGraph(subscriber,
                    [&](NodeId, ProcessingStage, ModuleGraph& graph) {
                      for (std::size_t i = 0; i < graph.module_count();
                           ++i) {
                        if (auto* match = dynamic_cast<MatchModule*>(
                                graph.module(static_cast<int>(i)))) {
                          match->set_active(active);
                          ++result.touched;
                        }
                      }
                    });
  return result;
}

RuntimeOpResult IspNms::SetRateLimitLocal(SubscriberId subscriber,
                                          double rate_pps) {
  RuntimeOpResult result;
  ForEachStageGraph(
      subscriber, [&](NodeId, ProcessingStage, ModuleGraph& graph) {
        for (std::size_t i = 0; i < graph.module_count(); ++i) {
          if (auto* limiter = dynamic_cast<RateLimitModule*>(
                  graph.module(static_cast<int>(i)))) {
            limiter->Reconfigure(rate_pps,
                                 std::max(16.0, rate_pps / 10.0));
            ++result.touched;
          }
        }
      });
  return result;
}

RuntimeOpResult IspNms::ReadStatisticsLocal(SubscriberId subscriber) {
  RuntimeOpResult result;
  ForEachStageGraph(subscriber,
                    [&](NodeId, ProcessingStage, ModuleGraph& graph) {
                      if (auto* stats =
                              graph.FindModule<StatisticsModule>()) {
                        ++result.touched;
                        result.packets += stats->packets();
                        result.bytes += stats->bytes();
                      }
                    });
  return result;
}

RuntimeOpResult IspNms::ReadLogsLocal(SubscriberId subscriber,
                                      std::size_t max_lines_per_device) {
  RuntimeOpResult result;
  ForEachStageGraph(
      subscriber, [&](NodeId node, ProcessingStage, ModuleGraph& graph) {
        if (auto* logger = graph.FindModule<LoggerModule>()) {
          result.logs +=
              "--- vantage as" + std::to_string(node) + " ---\n";
          result.logs += logger->trace().Dump(max_lines_per_device);
          ++result.touched;
        }
      });
  return result;
}

std::size_t IspNms::CountDeployments(SubscriberId subscriber) const {
  std::size_t count = 0;
  for (const auto& [node, device] : devices_) {
    (void)node;
    count += device->HasDeployment(subscriber) ? 1 : 0;
  }
  return count;
}

std::size_t IspNms::PublishCounterSamples(SubscriberId subscriber) {
  std::size_t published = 0;
  for (NodeId node : managed_) {
    AdaptiveDevice* device = devices_.at(node).get();
    ModuleGraph* graph =
        device->StageGraph(subscriber, ProcessingStage::kDestinationOwner);
    if (graph == nullptr) continue;
    auto* stats = graph->FindModule<StatisticsModule>();
    if (stats == nullptr) continue;
    DeviceEvent event;
    event.kind = EventKind::kCounterSample;
    event.at = net_.Now();
    event.node = node;
    event.subscriber = subscriber;
    event.value = static_cast<double>(stats->packets());
    DeliverEvent(node, event);
    published++;
  }
  return published;
}

void IspNms::DeliverEvent(NodeId node, const DeviceEvent& event) {
  if (injector_ == nullptr) {
    OnEvent(event);
    return;
  }
  // Faulty world: the upcall is a real management message — it can be
  // lost or delayed, and containment reacts only when it lands.
  EventChannel(node).Send([this, event] { OnEvent(event); });
}

void IspNms::OnEvent(const DeviceEvent& event) {
  stats_.events_received++;
  if (event_tap_ != nullptr) event_tap_->OnEvent(event);
  // Counter samples are periodic telemetry for the tap, not operator
  // events — retaining them would evict the log's real entries.
  if (event.kind == EventKind::kCounterSample) return;
  event_log_.OnEvent(event);
  if (event.kind != EventKind::kSafetyViolation) return;
  // Containment fan-out: the runtime guard quarantined the offender on
  // the reporting device; spread the quarantine to every managed device
  // so the blast radius stops at first detection instead of growing one
  // violation at a time.
  for (NodeId node : managed_) {
    if (devices_.at(node)->Quarantine(event.subscriber)) {
      stats_.quarantines_propagated++;
    }
  }
  if (quarantined_subscribers_.insert(event.subscriber).second) {
    max_quarantine_latency_ =
        std::max(max_quarantine_latency_, net_.Now() - event.at);
  }
  // Soundness oracle: the guard quarantined a deployment whose graphs
  // the verifier had proven safe — some module's declared effect
  // signature was wrong. Flag it so the analyzer's trustworthiness is
  // continuously measured in production, not assumed.
  for (const auto& [id, d] : desired_) {
    (void)id;
    if (!d.statically_proven) continue;
    if (d.instr.cert.subscriber != event.subscriber) continue;
    validator_->CountSoundnessViolation();
    stats_.soundness_flags++;
    DeviceEvent flag = event;
    flag.kind = EventKind::kAnalysisSoundness;
    flag.detail = "runtime guard contradicted static proof: " + event.detail;
    event_log_.OnEvent(flag);
    break;
  }
}

}  // namespace adtc
