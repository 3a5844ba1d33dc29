// Layer tracing from outside the program.
//
// Every layer is timed by wrapping one of its public entry points, so the
// library itself carries no benchmark code:
//   device — DeviceTap replaces each AdaptiveDevice in Node::processors;
//   host   — EndpointTap takes over each HostRecord::endpoint;
//   ctrl   — Ctrl fronts every Tcsp::Register / DeployService /
//            RemoveService call the benchmark makes.
// The wrappers only observe: the wrapped object sees the same calls with
// the same arguments in the same order, so a traced world ends in the
// same state as an untraced one (the end-state digest checks this).
//
// Accumulators are per shard (wrappers run on the shard owning their
// router or host) and are merged only after the engine has stopped.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_device.h"
#include "core/tcsp.h"
#include "net/network.h"

namespace adtc::perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanLayer : std::uint8_t {
  kDeviceFast,
  kDeviceRedirected,
  kServer,
  kClient,
  kOtherHost,
  kRegister,
  kDeploy,
  kWithdraw,
};

const char* SpanLayerName(SpanLayer layer);

/// One timed call. Per-packet spans are keyed by packet serial, control
/// spans by subscriber id; `start_ns` is relative to the trace origin.
struct Span {
  std::uint64_t key = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  SpanLayer layer = SpanLayer::kDeviceFast;
};

/// What one shard's wrappers accumulated.
struct ShardTrace {
  std::int64_t device_ns = 0;
  std::int64_t device_fast_ns = 0;
  std::int64_t server_ns = 0;
  std::int64_t client_ns = 0;
  std::int64_t other_host_ns = 0;
  std::uint64_t device_fast_calls = 0;
  std::uint64_t device_redirected_calls = 0;
  std::uint64_t flow_cache_hits = 0;
  std::uint64_t flow_cache_misses = 0;
  std::uint64_t stage_runs = 0;
  std::uint64_t server_calls = 0;
  std::uint64_t half_open_max = 0;
  std::size_t flow_cache_entries_max = 0;
  std::vector<std::uint32_t> fast_samples;
  std::vector<std::uint32_t> redirected_samples;
  std::vector<std::uint32_t> server_samples;
  std::vector<Span> spans;
};

class Tracer {
 public:
  explicit Tracer(std::size_t shards);

  /// Wraps every AdaptiveDevice processor and every endpoint of `net`.
  /// Call once, after the world is built and before it runs.
  void Attach(Network& net);

  ShardTrace& shard(std::size_t index) { return shards_[index]; }
  const std::vector<ShardTrace>& shards() const { return shards_; }

  /// Per-packet spans are kept for one serial in 64 (deterministic on
  /// the serial) and capped per shard, so a traced run stays within a
  /// few tens of MB; control spans are all kept.
  static bool KeepPacketSpan(std::uint64_t serial) {
    return serial % 64 == 0;
  }
  void AddSpan(ShardTrace& shard, SpanLayer layer, std::uint64_t key,
               std::int64_t start, std::int64_t end);

  /// Writes every kept span as JSON lines; false on I/O failure.
  bool WriteSpans(const std::string& path) const;

 private:
  std::vector<ShardTrace> shards_;
  std::vector<std::unique_ptr<PacketProcessor>> device_taps_;
  std::int64_t origin_ns_;
};

/// The benchmark's one door into the control plane: counts and times
/// every call, and with a tracer also records a span per call.
class Ctrl {
 public:
  explicit Ctrl(Tcsp& tcsp) : tcsp_(tcsp) {}

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  Result<OwnershipCertificate> Register(const std::string& subject,
                                        std::vector<Prefix> claimed);
  DeploymentReport Deploy(const OwnershipCertificate& cert,
                          const ServiceRequest& request);
  Status Withdraw(SubscriberId subscriber);

  std::uint64_t calls() const { return calls_; }
  std::uint64_t failed() const { return failed_; }
  std::int64_t busy_ns() const { return busy_ns_; }
  const std::vector<std::int64_t>& deploy_ns() const { return deploy_ns_; }
  const std::vector<std::int64_t>& withdraw_ns() const {
    return withdraw_ns_;
  }
  std::uint64_t devices_configured() const { return devices_configured_; }
  std::uint64_t plan_paths() const { return plan_paths_; }
  std::uint64_t plans_proven() const { return plans_proven_; }

 private:
  /// Books one finished call; returns its duration in ns.
  std::int64_t Finish(SpanLayer layer, std::uint64_t key, std::int64_t start,
                      bool ok);

  Tcsp& tcsp_;
  Tracer* tracer_ = nullptr;
  std::uint64_t calls_ = 0;
  std::uint64_t failed_ = 0;
  std::int64_t busy_ns_ = 0;
  std::vector<std::int64_t> deploy_ns_;
  std::vector<std::int64_t> withdraw_ns_;
  std::uint64_t devices_configured_ = 0;
  std::uint64_t plan_paths_ = 0;
  std::uint64_t plans_proven_ = 0;
};

}  // namespace adtc::perfbench
