#include "core/adaptive_device.h"

#include "net/network.h"
#include "obs/trace_context.h"

namespace adtc {
namespace {

/// FNV-1a accumulation helpers for DeploymentSpecDigest.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void FnvMix(std::uint64_t& h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

void FnvMix(std::uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t DeploymentSpecDigest(const DeploymentSpec& spec) {
  std::uint64_t h = kFnvOffset;
  FnvMix(h, spec.deployment_id.origin);
  FnvMix(h, spec.deployment_id.seq);
  FnvMix(h, spec.cert.subscriber);
  FnvMix(h, spec.cert.subject);
  FnvMix(h, static_cast<std::uint64_t>(spec.cert.expires_at));
  for (const std::uint8_t byte : spec.cert.signature) {
    h ^= byte;
    h *= kFnvPrime;
  }
  for (const Prefix& prefix : spec.scope) {
    FnvMix(h, (static_cast<std::uint64_t>(prefix.address().bits()) << 8) |
                  static_cast<std::uint64_t>(prefix.length()));
  }
  return h;
}

AdaptiveDevice::AdaptiveDevice(NodeId node, EventSink* events)
    : node_(node), events_(events) {}

AdaptiveDevice::~AdaptiveDevice() { BindTelemetry(nullptr); }

void AdaptiveDevice::BindTelemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr) {
    telemetry_->registry().RemoveCollectors(this);
  }
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    process_wall_ns_ = stage_wall_ns_ = lookup_wall_ns_ = nullptr;
    return;
  }
  auto& registry = telemetry_->registry();
  // Wall-clock nanoseconds per operation; 0–100 µs covers the datapath.
  process_wall_ns_ =
      &registry.GetHistogram("device.process_wall_ns", 0.0, 1e5, 250);
  stage_wall_ns_ =
      &registry.GetHistogram("device.stage_wall_ns", 0.0, 1e5, 250);
  lookup_wall_ns_ =
      &registry.GetHistogram("device.lookup_wall_ns", 0.0, 1e5, 250);
  const std::string prefix = "device.as" + std::to_string(node_) + ".";
  registry.AddCollector(this, [this, prefix](obs::MetricsSnapshot& out) {
    out.push_back({prefix + "fast_path_packets",
                   static_cast<double>(stats_.fast_path_packets)});
    out.push_back({prefix + "redirected_packets",
                   static_cast<double>(stats_.redirected_packets)});
    out.push_back(
        {prefix + "stage1_runs", static_cast<double>(stats_.stage1_runs)});
    out.push_back(
        {prefix + "stage2_runs", static_cast<double>(stats_.stage2_runs)});
    out.push_back({prefix + "dropped_packets",
                   static_cast<double>(stats_.dropped_packets())});
    out.push_back({prefix + "safety_violations",
                   static_cast<double>(stats_.safety_violations)});
    out.push_back({prefix + "installs_applied",
                   static_cast<double>(stats_.installs_applied)});
    out.push_back({prefix + "duplicate_installs",
                   static_cast<double>(stats_.duplicate_installs)});
    out.push_back({prefix + "replays_rejected",
                   static_cast<double>(stats_.replays_rejected)});
    out.push_back({prefix + "restarts",
                   static_cast<double>(stats_.restarts)});
    out.push_back({prefix + "quarantines",
                   static_cast<double>(stats_.quarantines)});
    out.push_back({prefix + "deployments",
                   static_cast<double>(deployments_gauge_.value())});
    out.push_back({prefix + "redirect_prefixes",
                   static_cast<double>(redirect_prefixes_gauge_.value())});
    for (std::size_t i = 1; i < kDatapathDropReasonCount; ++i) {
      out.push_back(
          {prefix + "drops." +
               DatapathDropReasonName(static_cast<DatapathDropReason>(i)),
           static_cast<double>(stats_.drops_by_reason[i])});
    }
  });
}

Status AdaptiveDevice::InstallDeployment(DeploymentSpec spec) {
  // Exactly-once: a duplicated or retried instruction (same id) replays
  // the recorded outcome without touching tables or counters — but only
  // when the content matches the record. A known id carrying different
  // content is a replayed/mutated instruction (a compromised relay
  // re-using a legitimate DeploymentId) and is rejected outright.
  if (spec.deployment_id.valid()) {
    const auto it = applied_installs_.find(spec.deployment_id);
    if (it != applied_installs_.end()) {
      if (it->second.digest != DeploymentSpecDigest(spec)) {
        stats_.replays_rejected++;
        return ReplayDetected("deployment id re-used with mutated content");
      }
      stats_.duplicate_installs++;
      return it->second.status;
    }
  }
  const DeploymentId id = spec.deployment_id;
  const std::uint64_t digest = DeploymentSpecDigest(spec);
  const Status status = InstallDeploymentImpl(std::move(spec));
  if (id.valid()) applied_installs_.emplace(id, InstallRecord{status, digest});
  return status;
}

void AdaptiveDevice::Restart() {
  deployments_.clear();
  applied_installs_.clear();
  src_redirect_ = PrefixTrie<SubscriberId>();
  dst_redirect_ = PrefixTrie<SubscriberId>();
  deployments_gauge_ = 0;
  redirect_prefixes_gauge_ = 0;
  stats_.restarts++;
}

bool AdaptiveDevice::Quarantine(SubscriberId subscriber) {
  const auto it = deployments_.find(subscriber);
  if (it == deployments_.end() || it->second.quarantined) return false;
  it->second.quarantined = true;
  stats_.quarantines++;
  return true;
}

Status AdaptiveDevice::InstallDeploymentImpl(DeploymentSpec spec) {
  const OwnershipCertificate& cert = spec.cert;
  if (cert.subscriber == kInvalidSubscriber) {
    return InvalidArgument("certificate carries no subscriber id");
  }
  if (spec.scope.empty()) {
    return InvalidArgument("deployment scope is empty");
  }
  // Defence in depth: the device itself never accepts scope outside the
  // certified ownership, regardless of what the NMS checked.
  for (const Prefix& prefix : spec.scope) {
    if (!cert.CoversPrefix(prefix)) {
      return PermissionDenied("scope prefix " + prefix.ToString() +
                              " outside certificate of '" + cert.subject +
                              "'");
    }
  }
  if ((spec.source_stage && !spec.source_stage->validated()) ||
      (spec.destination_stage && !spec.destination_stage->validated())) {
    return InvalidArgument("stage graph not validated");
  }
  if (deployments_.contains(cert.subscriber)) {
    return AlreadyExists("subscriber already deployed on this device");
  }
  // Leaf of the control-plane trace: TCSP deploy → NMS configure →
  // per-device install (Fig. 5's last arrow).
  obs::ScopedSpan span(
      telemetry_ != nullptr && telemetry_->tracing_enabled()
          ? &telemetry_->tracer()
          : nullptr,
      "device.install");
  span.SetNode(node_);
  span.SetSubscriber(cert.subscriber);
  if (spec.deployment_id.valid() && telemetry_ != nullptr &&
      telemetry_->tracing_enabled()) {
    AnnotateTrace(&telemetry_->tracer(), span.id(),
                  obs::TraceContext::ForDeployment(spec.deployment_id.origin,
                                                   spec.deployment_id.seq));
  }
  for (const Prefix& prefix : spec.scope) {
    const SubscriberId* existing = src_redirect_.ExactMatch(prefix);
    if (existing != nullptr && *existing != cert.subscriber) {
      span.Fail();
      return AlreadyExists("redirect prefix " + prefix.ToString() +
                           " already claimed on this device");
    }
  }

  for (const Prefix& prefix : spec.scope) {
    src_redirect_.Insert(prefix, cert.subscriber);
    dst_redirect_.Insert(prefix, cert.subscriber);
  }
  Deployment deployment;
  deployment.cert = cert;
  deployment.scope = std::move(spec.scope);
  deployment.source_stage = std::move(spec.source_stage);
  deployment.destination_stage = std::move(spec.destination_stage);
  deployment.label = std::move(spec.label);
  deployments_.emplace(cert.subscriber, std::move(deployment));
  deployments_gauge_ = deployments_.size();
  redirect_prefixes_gauge_ = src_redirect_.size();
  stats_.installs_applied++;
  return Status::Ok();
}

Status AdaptiveDevice::RemoveDeployment(SubscriberId subscriber) {
  const auto it = deployments_.find(subscriber);
  if (it == deployments_.end()) {
    return NotFound("no deployment for subscriber " +
                    std::to_string(subscriber));
  }
  for (const Prefix& prefix : it->second.scope) {
    src_redirect_.Erase(prefix);
    dst_redirect_.Erase(prefix);
  }
  deployments_.erase(it);
  deployments_gauge_ = deployments_.size();
  redirect_prefixes_gauge_ = src_redirect_.size();
  return Status::Ok();
}

bool AdaptiveDevice::IsQuarantined(SubscriberId subscriber) const {
  const auto it = deployments_.find(subscriber);
  return it != deployments_.end() && it->second.quarantined;
}

ModuleGraph* AdaptiveDevice::StageGraph(SubscriberId subscriber,
                                        ProcessingStage stage) {
  const auto it = deployments_.find(subscriber);
  if (it == deployments_.end()) return nullptr;
  auto& graph = stage == ProcessingStage::kSourceOwner
                    ? it->second.source_stage
                    : it->second.destination_stage;
  return graph ? &*graph : nullptr;
}

AdaptiveDevice::StageRun AdaptiveDevice::RunStage(Deployment& deployment,
                                                  ProcessingStage stage,
                                                  Packet& packet,
                                                  const RouterContext& ctx,
                                                  NodeId in_from_node) {
  StageRun run;
  auto& graph = stage == ProcessingStage::kSourceOwner
                    ? deployment.source_stage
                    : deployment.destination_stage;
  if (!graph || deployment.quarantined) return run;
  run.ran = true;
  const obs::ScopedWallTimer stage_timer(
      telemetry_ != nullptr && telemetry_->profiling_enabled()
          ? stage_wall_ns_
          : nullptr);

  DeviceContext device_ctx;
  device_ctx.net = ctx.net;
  device_ctx.node = ctx.node;
  device_ctx.role = ctx.role;
  device_ctx.in_kind = ctx.in_kind;
  device_ctx.in_from_node = in_from_node;
  device_ctx.now = ctx.now;
  device_ctx.subscriber = deployment.cert.subscriber;
  device_ctx.stage = stage;
  device_ctx.events = events_;

  if (stage == ProcessingStage::kSourceOwner) {
    stats_.stage1_runs++;
  } else {
    stats_.stage2_runs++;
  }

  const PacketInvariants before = PacketInvariants::Capture(packet);
  run.verdict = graph->Execute(packet, device_ctx);
  if (run.verdict == Verdict::kDrop) {
    run.drop_reason = graph->last_drop_reason();
  }
  const InvariantViolation violation = EnforceInvariants(before, packet);
  if (violation != InvariantViolation::kNone) {
    stats_.safety_violations++;
    deployment.quarantined = true;
    stats_.quarantines++;
    device_ctx.Emit(EventKind::kSafetyViolation,
                    std::string(InvariantViolationName(violation)) +
                        " by deployment of '" + deployment.cert.subject +
                        "' — quarantined");
    // Fail open: the offending deployment loses control, traffic flows.
    run.verdict = Verdict::kForward;
    run.drop_reason = DatapathDropReason::kNone;
  }
  return run;
}

Verdict AdaptiveDevice::Process(Packet& packet, const RouterContext& ctx) {
  // Profiling is a single cached-bool test per packet when disabled — the
  // timers only read the wall clock once enabled.
  const bool profiling =
      telemetry_ != nullptr && telemetry_->profiling_enabled();
  const obs::ScopedWallTimer process_timer(profiling ? process_wall_ns_
                                                     : nullptr);

  const SubscriberId* src_owner;
  const SubscriberId* dst_owner;
  {
    const obs::ScopedWallTimer lookup_timer(profiling ? lookup_wall_ns_
                                                      : nullptr);
    src_owner = src_redirect_.LongestMatch(packet.src);
    dst_owner = dst_redirect_.LongestMatch(packet.dst);
  }
  if (src_owner == nullptr && dst_owner == nullptr) {
    stats_.fast_path_packets++;
    if (recorder_ != nullptr) {
      RecordFlight(packet, ctx, Verdict::kForward, DatapathDropReason::kNone,
                   /*redirected=*/false, /*stage2=*/false);
    }
    return Verdict::kForward;
  }
  stats_.redirected_packets++;
  NodeId in_from_node = kInvalidNode;
  if (ctx.net != nullptr && ctx.in_link != kInvalidLink) {
    const LinkTarget& from = ctx.net->link(ctx.in_link).from;
    if (!from.is_host) in_from_node = from.id;
  }

  Deployment* src_dep = nullptr;
  Deployment* dst_dep = nullptr;
  if (src_owner != nullptr) {
    const auto it = deployments_.find(*src_owner);
    if (it != deployments_.end()) src_dep = &it->second;
  }
  if (dst_owner != nullptr) {
    const auto it = deployments_.find(*dst_owner);
    if (it != deployments_.end()) dst_dep = &it->second;
  }

  // Stage 1: control by the source-address owner; a drop here
  // short-circuits stage 2.
  StageRun run;
  bool stage2_ran = false;
  if (src_dep != nullptr) {
    run = RunStage(*src_dep, ProcessingStage::kSourceOwner, packet, ctx,
                   in_from_node);
  }
  // Stage 2: control by the destination-address owner.
  if (run.verdict != Verdict::kDrop && dst_dep != nullptr) {
    run = RunStage(*dst_dep, ProcessingStage::kDestinationOwner, packet, ctx,
                   in_from_node);
    stage2_ran = run.ran;
  }
  if (run.verdict == Verdict::kDrop) {
    stats_.drops_by_reason[static_cast<std::size_t>(run.drop_reason)]++;
  }
  if (recorder_ != nullptr) {
    RecordFlight(packet, ctx, run.verdict, run.drop_reason,
                 /*redirected=*/true, stage2_ran);
  }
  return run.verdict;
}

void AdaptiveDevice::RecordFlight(const Packet& packet,
                                  const RouterContext& ctx, Verdict verdict,
                                  DatapathDropReason reason,
                                  bool redirected, bool stage2) {
  obs::VerdictRecord record;
  record.at = ctx.now;
  record.node = node_;
  record.src = packet.src.bits();
  record.dst = packet.dst.bits();
  record.src_port = packet.src_port;
  record.dst_port = packet.dst_port;
  record.protocol = static_cast<std::uint8_t>(packet.proto);
  record.dropped = verdict == Verdict::kDrop;
  record.drop_reason = reason;
  record.redirected = redirected;
  record.stage2 = stage2;
  recorder_->Record(record);
}

}  // namespace adtc
