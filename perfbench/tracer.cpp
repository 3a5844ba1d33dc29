#include "tracer.h"

#include <cstdio>
#include <utility>

#include "host/client.h"
#include "host/server.h"

namespace adtc::perfbench {
namespace {

std::uint32_t ClampNs(std::int64_t ns) {
  return ns < 0 ? 0u
                : ns > 0xffffffffLL ? 0xffffffffu
                                    : static_cast<std::uint32_t>(ns);
}

/// Times one AdaptiveDevice. A call is fast or redirected according to
/// which DeviceStats counter it advanced.
class DeviceTap final : public PacketProcessor {
 public:
  DeviceTap(AdaptiveDevice& device, Network& net, Tracer& tracer)
      : device_(device), net_(net), tracer_(tracer) {}

  Verdict Process(Packet& packet, const RouterContext& ctx) override {
    PacketBatch batch;
    batch.Add(packet);
    ProcessBatch(batch, ctx);
    return batch.alive(0) ? Verdict::kForward : Verdict::kDrop;
  }

  void ProcessBatch(PacketBatch& batch, const RouterContext& ctx) override {
    const DeviceStats& stats = device_.stats();
    const std::uint64_t fast0 = stats.fast_path_packets;
    const std::uint64_t hits0 = stats.flow_cache_hits;
    const std::uint64_t misses0 = stats.flow_cache_misses;
    const std::uint64_t stages0 = stats.stage1_runs + stats.stage2_runs;
    const std::uint64_t key = batch.empty() ? 0 : batch.packet(0).serial;

    const std::int64_t start = NowNs();
    device_.ProcessBatch(batch, ctx);
    const std::int64_t end = NowNs();

    ShardTrace& shard = tracer_.shard(net_.engine().CurrentShardIndex());
    const std::int64_t ns = end - start;
    const bool fast = stats.fast_path_packets != fast0;
    shard.device_ns += ns;
    if (fast) {
      shard.device_fast_ns += ns;
      shard.device_fast_calls++;
      shard.fast_samples.push_back(ClampNs(ns));
    } else {
      shard.device_redirected_calls++;
      shard.redirected_samples.push_back(ClampNs(ns));
    }
    shard.flow_cache_hits += stats.flow_cache_hits - hits0;
    shard.flow_cache_misses += stats.flow_cache_misses - misses0;
    shard.stage_runs += stats.stage1_runs + stats.stage2_runs - stages0;
    if (device_.flow_cache_size() > shard.flow_cache_entries_max) {
      shard.flow_cache_entries_max = device_.flow_cache_size();
    }
    if (tracer_.KeepPacketSpan(key)) {
      tracer_.AddSpan(shard,
                      fast ? SpanLayer::kDeviceFast
                           : SpanLayer::kDeviceRedirected,
                      key, start, end);
    }
  }

  std::string_view name() const override { return device_.name(); }

 private:
  AdaptiveDevice& device_;
  Network& net_;
  Tracer& tracer_;
};

/// Times one endpoint; owns the wrapped endpoint from attachment on.
class EndpointTap final : public Endpoint {
 public:
  EndpointTap(std::unique_ptr<Endpoint> inner, Network& net, Tracer& tracer)
      : inner_(std::move(inner)),
        server_(dynamic_cast<Server*>(inner_.get())),
        layer_(server_ != nullptr ? SpanLayer::kServer
               : dynamic_cast<Client*>(inner_.get()) != nullptr
                   ? SpanLayer::kClient
                   : SpanLayer::kOtherHost),
        net_(net),
        tracer_(tracer) {}

  void HandlePacket(Packet&& packet) override {
    const std::uint64_t key = packet.serial;
    const std::int64_t start = NowNs();
    inner_->HandlePacket(std::move(packet));
    const std::int64_t end = NowNs();

    ShardTrace& shard = tracer_.shard(net_.engine().CurrentShardIndex());
    const std::int64_t ns = end - start;
    switch (layer_) {
      case SpanLayer::kServer:
        shard.server_ns += ns;
        shard.server_calls++;
        shard.server_samples.push_back(ClampNs(ns));
        if (server_->half_open_count() > shard.half_open_max) {
          shard.half_open_max = server_->half_open_count();
        }
        break;
      case SpanLayer::kClient:
        shard.client_ns += ns;
        break;
      default:
        shard.other_host_ns += ns;
        break;
    }
    if (tracer_.KeepPacketSpan(key)) {
      tracer_.AddSpan(shard, layer_, key, start, end);
    }
  }

  bool IsUp() const override { return inner_->IsUp(); }

 private:
  std::unique_ptr<Endpoint> inner_;
  Server* server_;
  SpanLayer layer_;
  Network& net_;
  Tracer& tracer_;
};

}  // namespace

const char* SpanLayerName(SpanLayer layer) {
  switch (layer) {
    case SpanLayer::kDeviceFast: return "device.fast";
    case SpanLayer::kDeviceRedirected: return "device.redirected";
    case SpanLayer::kServer: return "host.server";
    case SpanLayer::kClient: return "host.client";
    case SpanLayer::kOtherHost: return "host.other";
    case SpanLayer::kRegister: return "ctrl.register";
    case SpanLayer::kDeploy: return "ctrl.deploy";
    case SpanLayer::kWithdraw: return "ctrl.withdraw";
  }
  return "?";
}

Tracer::Tracer(std::size_t shards) : shards_(shards), origin_ns_(NowNs()) {}

void Tracer::Attach(Network& net) {
  for (NodeId node = 0; node < net.node_count(); ++node) {
    for (PacketProcessor*& processor : net.node(node).processors) {
      auto* device = dynamic_cast<AdaptiveDevice*>(processor);
      if (device == nullptr) continue;
      device_taps_.push_back(
          std::make_unique<DeviceTap>(*device, net, *this));
      processor = device_taps_.back().get();
    }
  }
  for (HostId host = 0; host < net.host_count(); ++host) {
    std::unique_ptr<Endpoint>& slot = net.host(host).endpoint;
    slot = std::make_unique<EndpointTap>(std::move(slot), net, *this);
  }
}

void Tracer::AddSpan(ShardTrace& shard, SpanLayer layer, std::uint64_t key,
                     std::int64_t start, std::int64_t end) {
  constexpr std::size_t kMaxSpansPerShard = 1 << 18;
  if (shard.spans.size() >= kMaxSpansPerShard) return;
  shard.spans.push_back({key, start - origin_ns_, end - start, layer});
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (const Span& span : shards_[s].spans) {
      const bool control = span.layer >= SpanLayer::kRegister;
      std::fprintf(out,
                   "{\"layer\":\"%s\",\"%s\":%llu,\"shard\":%zu,"
                   "\"start_ns\":%lld,\"dur_ns\":%lld}\n",
                   SpanLayerName(span.layer),
                   control ? "subscriber" : "serial",
                   static_cast<unsigned long long>(span.key), s,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.dur_ns));
    }
  }
  return std::fclose(out) == 0;
}

Result<OwnershipCertificate> Ctrl::Register(const std::string& subject,
                                            std::vector<Prefix> claimed) {
  const std::int64_t start = NowNs();
  Result<OwnershipCertificate> cert =
      tcsp_.Register(subject, std::move(claimed));
  Finish(SpanLayer::kRegister, cert.ok() ? cert.value().subscriber : 0, start,
         cert.ok());
  return cert;
}

DeploymentReport Ctrl::Deploy(const OwnershipCertificate& cert,
                              const ServiceRequest& request) {
  const std::int64_t start = NowNs();
  DeploymentReport report = tcsp_.DeployService(cert, request);
  deploy_ns_.push_back(
      Finish(SpanLayer::kDeploy, cert.subscriber, start, report.status.ok()));
  devices_configured_ += report.devices_configured;
  plan_paths_ += report.plan.paths_examined;
  if (report.plan.proven()) plans_proven_++;
  return report;
}

Status Ctrl::Withdraw(SubscriberId subscriber) {
  const std::int64_t start = NowNs();
  Status status = tcsp_.RemoveService(subscriber);
  withdraw_ns_.push_back(
      Finish(SpanLayer::kWithdraw, subscriber, start, status.ok()));
  return status;
}

std::int64_t Ctrl::Finish(SpanLayer layer, std::uint64_t key,
                          std::int64_t start, bool ok) {
  const std::int64_t end = NowNs();
  calls_++;
  if (!ok) failed_++;
  busy_ns_ += end - start;
  // Control calls run on the control shard (shard 0).
  if (tracer_ != nullptr) {
    tracer_->AddSpan(tracer_->shard(0), layer, key, start, end);
  }
  return end - start;
}

}  // namespace adtc::perfbench
