#include "core/adaptive_device.h"

#include <algorithm>

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
    out.push_back({prefix + "flow_cache_hits",
                   static_cast<double>(stats_.flow_cache_hits)});
    out.push_back({prefix + "flow_cache_misses",
                   static_cast<double>(stats_.flow_cache_misses)});
    out.push_back({prefix + "flow_cache_entries",
                   static_cast<double>(flow_cache_entries_gauge_.value())});
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
  flow_cache_.clear();
  // Generation keeps moving forward (never resets): an entry somehow
  // surviving in a caller's hands can never validate against post-restart
  // state.
  InvalidateFlowCache();
  deployments_gauge_ = 0;
  redirect_prefixes_gauge_ = 0;
  flow_cache_entries_gauge_ = 0;
  stats_.restarts++;
}

bool AdaptiveDevice::Quarantine(SubscriberId subscriber) {
  const auto it = deployments_.find(subscriber);
  if (it == deployments_.end() || it->second.quarantined) return false;
  it->second.quarantined = true;
  stats_.quarantines++;
  InvalidateFlowCache();
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
  InvalidateFlowCache();
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
  // Generation first, then the map can shrink: any entry holding a
  // pointer into the erased node is already unreachable.
  InvalidateFlowCache();
  flow_cache_.clear();
  flow_cache_entries_gauge_ = 0;
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
                                                  NodeId in_from_node,
                                                  bool collect_cacheability) {
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
  if (collect_cacheability) {
    visited_scratch_.clear();
    run.verdict = graph->Execute(packet, device_ctx, &visited_scratch_);
    for (const int id : visited_scratch_) {
      switch (graph->module(id)->cacheability()) {
        case Cacheability::kPure:
          break;
        case Cacheability::kPureTransform: {
          const std::uint32_t to = graph->module(id)->cache_truncate_to();
          if (to != 0) {
            run.truncate_to =
                run.truncate_to == 0 ? to : std::min(run.truncate_to, to);
          }
          break;
        }
        case Cacheability::kStateful:
          run.pure = false;
          break;
      }
    }
  } else {
    run.verdict = graph->Execute(packet, device_ctx);
  }
  if (run.verdict == Verdict::kDrop) {
    run.drop_reason = graph->last_drop_reason();
  }
  const InvariantViolation violation = EnforceInvariants(before, packet);
  if (violation != InvariantViolation::kNone) {
    stats_.safety_violations++;
    deployment.quarantined = true;
    stats_.quarantines++;
    // Quarantine changes this deployment's treatment for every flow that
    // touches it; cached verdicts from before the violation are void.
    InvalidateFlowCache();
    device_ctx.Emit(EventKind::kSafetyViolation,
                    std::string(InvariantViolationName(violation)) +
                        " by deployment of '" + deployment.cert.subject +
                        "' — quarantined");
    // Fail open: the offending deployment loses control, traffic flows.
    run.verdict = Verdict::kForward;
    run.drop_reason = DatapathDropReason::kNone;
    run.pure = false;
    return run;
  }
  return run;
}

Verdict AdaptiveDevice::ReplayCachedVerdict(FlowCacheEntry& entry,
                                            Packet& packet) {
  // Mirror the uncached counter updates exactly, including the
  // stage-1-drop short circuit that keeps stage-2 counters untouched.
  if (!entry.redirected) {
    stats_.fast_path_packets++;
    return Verdict::kForward;
  }
  stats_.redirected_packets++;
  if (entry.src_dep != nullptr) {
    entry.src_dep->packets_seen++;
    if (entry.stage1_ran) {
      stats_.stage1_runs++;
      entry.src_dep->source_stage->RecordCachedExecution(entry.drop_stage ==
                                                         1);
    }
    if (entry.drop_stage == 1) {
      stats_.drops_by_reason[static_cast<std::size_t>(entry.drop_reason)]++;
      return Verdict::kDrop;
    }
  }
  if (entry.dst_dep != nullptr) {
    if (entry.dst_dep != entry.src_dep) {
      entry.dst_dep->packets_seen++;
    }
    if (entry.stage2_ran) {
      stats_.stage2_runs++;
      entry.dst_dep->destination_stage->RecordCachedExecution(
          entry.drop_stage == 2);
    }
    if (entry.drop_stage == 2) {
      stats_.drops_by_reason[static_cast<std::size_t>(entry.drop_reason)]++;
      return Verdict::kDrop;
    }
  }
  if (entry.truncate_to != 0 && packet.size_bytes > entry.truncate_to) {
    packet.size_bytes = entry.truncate_to;
    packet.payload_hash = 0;
  }
  return Verdict::kForward;
}

Verdict AdaptiveDevice::Process(Packet& packet, const RouterContext& ctx) {
  // Profiling is a single cached-bool test per packet when disabled — the
  // timers only read the wall clock once enabled.
  const bool profiling =
      telemetry_ != nullptr && telemetry_->profiling_enabled();
  const obs::ScopedWallTimer process_timer(profiling ? process_wall_ns_
                                                     : nullptr);

  NodeId in_from_node = kInvalidNode;
  if (ctx.net != nullptr && ctx.in_link != kInvalidLink) {
    const LinkTarget& from = ctx.net->link(ctx.in_link).from;
    if (!from.is_host) in_from_node = from.id;
  }

  const FlowKey key{packet.src,      packet.dst,  packet.proto,
                    packet.src_port, packet.dst_port,
                    ctx.in_kind,     in_from_node};
  FlowCacheEntry* entry = nullptr;
  if (flow_cache_enabled_) {
    const auto it = flow_cache_.find(key);
    if (it != flow_cache_.end()) {
      if (EntryCurrent(it->second)) {
        entry = &it->second;
      } else {
        flow_cache_.erase(it);
        flow_cache_entries_gauge_ = flow_cache_.size();
      }
    }
  }
  if (entry != nullptr && entry->full_verdict) {
    stats_.flow_cache_hits++;
    const Verdict cached = ReplayCachedVerdict(*entry, packet);
    if (recorder_ != nullptr) {
      RecordFlight(packet, ctx, cached, entry->drop_reason,
                   /*cache_hit=*/true, entry->redirected, entry->stage2_ran);
    }
    return cached;
  }

  // Resolve the redirect tables and deployment records — from the partial
  // cache entry when one exists (saving both LPM walks and map probes),
  // from the tries otherwise.
  Deployment* src_dep = nullptr;
  Deployment* dst_dep = nullptr;
  bool redirected = false;
  if (entry != nullptr) {
    stats_.flow_cache_hits++;
    src_dep = entry->src_dep;
    dst_dep = entry->dst_dep;
    redirected = entry->redirected;
  } else {
    if (flow_cache_enabled_) stats_.flow_cache_misses++;
    const SubscriberId* src_owner;
    const SubscriberId* dst_owner;
    {
      const obs::ScopedWallTimer lookup_timer(profiling ? lookup_wall_ns_
                                                        : nullptr);
      src_owner = src_redirect_.LongestMatch(packet.src);
      dst_owner = dst_redirect_.LongestMatch(packet.dst);
    }
    redirected = src_owner != nullptr || dst_owner != nullptr;
    if (src_owner != nullptr) {
      const auto it = deployments_.find(*src_owner);
      if (it != deployments_.end()) src_dep = &it->second;
    }
    if (dst_owner != nullptr) {
      const auto it = deployments_.find(*dst_owner);
      if (it != deployments_.end()) dst_dep = &it->second;
    }
  }

  // Execute, remembering everything a cache fill needs. `fill` is off for
  // partial-entry hits (the entry already exists) and when caching is
  // disabled.
  const bool fill = flow_cache_enabled_ && entry == nullptr;
  const std::uint64_t fill_generation = generation_;
  Verdict verdict = Verdict::kForward;
  std::uint8_t drop_stage = 0;
  DatapathDropReason drop_reason = DatapathDropReason::kNone;
  bool stage1_ran = false;
  bool stage2_ran = false;
  bool pure = true;
  std::uint32_t truncate_to = 0;

  if (!redirected) {
    stats_.fast_path_packets++;
  } else {
    stats_.redirected_packets++;
    // Stage 1: control by the source-address owner.
    if (src_dep != nullptr) {
      src_dep->packets_seen++;
      const StageRun run = RunStage(*src_dep, ProcessingStage::kSourceOwner,
                                    packet, ctx, in_from_node, fill);
      stage1_ran = run.ran;
      pure = pure && run.pure;
      truncate_to = run.truncate_to != 0
                        ? (truncate_to == 0
                               ? run.truncate_to
                               : std::min(truncate_to, run.truncate_to))
                        : truncate_to;
      if (run.verdict == Verdict::kDrop) {
        stats_.drops_by_reason[static_cast<std::size_t>(run.drop_reason)]++;
        verdict = Verdict::kDrop;
        drop_stage = 1;
        drop_reason = run.drop_reason;
      }
    }
    // Stage 2: control by the destination-address owner.
    if (drop_stage == 0 && dst_dep != nullptr) {
      if (dst_dep != src_dep) {
        dst_dep->packets_seen++;
      }
      const StageRun run =
          RunStage(*dst_dep, ProcessingStage::kDestinationOwner, packet, ctx,
                   in_from_node, fill);
      stage2_ran = run.ran;
      pure = pure && run.pure;
      truncate_to = run.truncate_to != 0
                        ? (truncate_to == 0
                               ? run.truncate_to
                               : std::min(truncate_to, run.truncate_to))
                        : truncate_to;
      if (run.verdict == Verdict::kDrop) {
        stats_.drops_by_reason[static_cast<std::size_t>(run.drop_reason)]++;
        verdict = Verdict::kDrop;
        drop_stage = 2;
        drop_reason = run.drop_reason;
      }
    }
  }

  // Fill — unless the configuration moved underneath us (a quarantine
  // fired during this very packet), in which case the observed behaviour
  // no longer describes the flow's future treatment.
  if (fill && generation_ == fill_generation) {
    if (flow_cache_.size() >= kMaxFlowCacheEntries) flow_cache_.clear();
    FlowCacheEntry fresh;
    fresh.generation = generation_;
    fresh.src_dep = src_dep;
    fresh.dst_dep = dst_dep;
    fresh.src_revision =
        src_dep != nullptr && src_dep->source_stage
            ? src_dep->source_stage->config_revision()
            : 0;
    fresh.dst_revision =
        dst_dep != nullptr && dst_dep->destination_stage
            ? dst_dep->destination_stage->config_revision()
            : 0;
    fresh.redirected = redirected;
    fresh.full_verdict = pure;
    fresh.verdict = verdict;
    fresh.drop_stage = drop_stage;
    fresh.drop_reason = drop_reason;
    fresh.stage1_ran = stage1_ran;
    fresh.stage2_ran = stage2_ran;
    fresh.truncate_to = truncate_to;
    flow_cache_[key] = fresh;
    flow_cache_entries_gauge_ = flow_cache_.size();
  }
  if (recorder_ != nullptr) {
    RecordFlight(packet, ctx, verdict, drop_reason,
                 /*cache_hit=*/entry != nullptr, redirected, stage2_ran);
  }
  return verdict;
}

void AdaptiveDevice::RecordFlight(const Packet& packet,
                                  const RouterContext& ctx, Verdict verdict,
                                  DatapathDropReason reason, bool cache_hit,
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
  record.cache_hit = cache_hit;
  record.redirected = redirected;
  record.stage2 = stage2;
  recorder_->Record(record);
}

}  // namespace adtc
