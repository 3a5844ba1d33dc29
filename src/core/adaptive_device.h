// The adaptive traffic-processing device attached to a router (Figs. 2, 6).
//
// Traffic entering the router is "redirected to a nearby adaptive device
// only if it carries an IP address as source or destination, which the
// adaptive device was setup for. Most traffic will use the direct path
// through the router." — implemented as two longest-prefix lookups per
// packet against the redirect tables; misses take the fast path with no
// further work.
//
// A redirected packet is processed in up to two stages (Sec. 4.1):
//   stage 1: the module graph of the *source* address owner,
//   stage 2: the module graph of the *destination* address owner,
// mirroring the send-then-receive control handover. Each stage runs under
// the runtime safety guard: src/dst/TTL immutability and no size growth
// are enforced on the wire no matter what the modules do; a violating
// deployment is quarantined and the operator notified (Sec. 4.5).
//
// The device keeps no per-flow state: every packet takes the two lookups
// and, when redirected, runs its stages afresh, so an install, removal,
// quarantine or module reconfiguration applies from the next packet on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/drop_reason.h"
#include "core/deployment_id.h"
#include "core/module_graph.h"
#include "core/safety.h"
#include "net/prefix_trie.h"
#include "net/router.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "obs/wall_clock.h"

namespace adtc {

/// Per-device datapath counters. Cells are obs::Counter so the device can
/// export them through the world MetricsRegistry (BindTelemetry) under
/// "device.as<node>.*" while call sites keep reading plain integers.
struct DeviceStats {
  obs::Counter fast_path_packets;   // no redirect-table match
  obs::Counter redirected_packets;  // entered the device
  obs::Counter stage1_runs;
  obs::Counter stage2_runs;
  obs::Counter safety_violations;
  // Always 0: stub for perfbench/tracer.cpp; goes with device.flow_cache_*.
  obs::Counter flow_cache_hits;
  // Always 0: stub for perfbench/tracer.cpp; goes with device.flow_cache_*.
  obs::Counter flow_cache_misses;
  obs::Counter installs_applied;     // effectful InstallDeployment calls
  obs::Counter duplicate_installs;   // re-delivered ids served from record
  obs::Counter replays_rejected;     // known id, different content (attack)
  obs::Counter restarts;             // crash/restart cycles (state wiped)
  obs::Counter quarantines;          // deployments put under quarantine
  /// Drops attributed per taxonomy entry (indexed by DatapathDropReason).
  obs::Counter drops_by_reason[kDatapathDropReasonCount];

  /// Every packet the device dropped: the sum over drops_by_reason.
  std::uint64_t dropped_packets() const {
    std::uint64_t total = 0;
    for (const obs::Counter& drops : drops_by_reason) total += drops;
    return total;
  }
};

/// Everything needed to install a subscriber's processing on a device.
/// Graphs are optional per stage (std::nullopt = pass-through for that
/// stage); `scope` are the redirect prefixes. The caller (ISP NMS) must
/// have run the SafetyValidator already; the device re-checks the
/// essentials (scope within certificate, graphs validated) as defence in
/// depth.
struct DeploymentSpec {
  OwnershipCertificate cert;
  std::vector<Prefix> scope;
  std::optional<ModuleGraph> source_stage;
  std::optional<ModuleGraph> destination_stage;
  /// Optional operator-facing tag carried into events and reports.
  std::string label;
  /// Exactly-once handle: a re-delivered spec with a valid id the device
  /// already processed returns the recorded outcome with no effects.
  DeploymentId deployment_id;
};

/// Order-stable content digest over a spec's identity-relevant fields
/// (id, certificate subject + signature, scope). A receiver that already
/// holds a record for the spec's id compares digests to tell a benign
/// re-delivery (same digest → replay the record) from a replayed or
/// mutated instruction under a stolen id (mismatch → kReplayDetected).
std::uint64_t DeploymentSpecDigest(const DeploymentSpec& spec);

class AdaptiveDevice : public PacketProcessor {
 public:
  explicit AdaptiveDevice(NodeId node, EventSink* events = nullptr);
  ~AdaptiveDevice() override;

  /// Hooks this device into a world's telemetry: registers its counters
  /// as a registry collector and creates the wall-clock profiling
  /// histograms ("device.process_wall_ns", ...). Timers stay dormant
  /// until Telemetry::EnableProfiling(). Pass nullptr to detach.
  void BindTelemetry(obs::Telemetry* telemetry);

  /// Attaches (or detaches, with nullptr) the datapath flight recorder.
  /// When detached — the default — the per-packet cost is one pointer
  /// test; when attached every Process() exit appends a VerdictRecord.
  void AttachFlightRecorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  obs::FlightRecorder* flight_recorder() const { return recorder_; }

  Status InstallDeployment(DeploymentSpec spec);

  Status RemoveDeployment(SubscriberId subscriber);

  /// Models a router crash + immediate restart: every RAM table is lost —
  /// installed module graphs, redirect tries AND the per-id install
  /// record (it lives in the same RAM). The NMS anti-entropy resync
  /// re-installs desired deployments afterwards.
  void Restart();

  /// Puts the subscriber's deployment under quarantine (its graphs stop
  /// running; fail-open like a runtime safety violation). Used by the NMS
  /// to propagate an offender's quarantine to every device it manages.
  /// Returns true when a present, not-yet-quarantined deployment was
  /// quarantined by this call.
  bool Quarantine(SubscriberId subscriber);

  /// Installs already processed by id (duplicates were suppressed).
  std::size_t applied_install_count() const {
    return applied_installs_.size();
  }

  bool HasDeployment(SubscriberId subscriber) const {
    return deployments_.contains(subscriber);
  }
  bool IsQuarantined(SubscriberId subscriber) const;

  /// Module-graph access for services that read observation modules.
  ModuleGraph* StageGraph(SubscriberId subscriber, ProcessingStage stage);

  // PacketProcessor: the router datapath hook.
  Verdict Process(Packet& packet, const RouterContext& ctx) override;
  std::string_view name() const override { return "adaptive-device"; }

  // Always 0: stub for perfbench/tracer.cpp; goes with device.flow_cache_*.
  std::size_t flow_cache_size() const { return 0; }

  const DeviceStats& stats() const { return stats_; }
  NodeId node() const { return node_; }
  std::size_t deployment_count() const { return deployments_.size(); }
  std::size_t redirect_prefix_count() const { return src_redirect_.size(); }

 private:
  struct Deployment {
    OwnershipCertificate cert;
    std::vector<Prefix> scope;
    std::optional<ModuleGraph> source_stage;
    std::optional<ModuleGraph> destination_stage;
    std::string label;
    bool quarantined = false;
  };

  /// Outcome of one stage execution.
  struct StageRun {
    Verdict verdict = Verdict::kForward;
    bool ran = false;  // graph present, not quarantined
    /// Graph attribution when verdict == kDrop (kNone otherwise).
    DatapathDropReason drop_reason = DatapathDropReason::kNone;
  };

  /// The effectful install path behind the DeploymentId dedup shield.
  Status InstallDeploymentImpl(DeploymentSpec spec);

  /// Runs one stage under the safety guard.
  StageRun RunStage(Deployment& deployment, ProcessingStage stage,
                    Packet& packet, const RouterContext& ctx,
                    NodeId in_from_node);

  /// Appends one flight record; callers guard on recorder_ != nullptr so
  /// the disabled path stays a single pointer test.
  void RecordFlight(const Packet& packet, const RouterContext& ctx,
                    Verdict verdict, DatapathDropReason reason,
                    bool redirected, bool stage2);

  NodeId node_;
  EventSink* events_;
  DeviceStats stats_;
  obs::Telemetry* telemetry_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  // Profiling histograms (owned by the registry); nullptr when unbound.
  Histogram* process_wall_ns_ = nullptr;
  Histogram* stage_wall_ns_ = nullptr;
  Histogram* lookup_wall_ns_ = nullptr;
  std::unordered_map<SubscriberId, Deployment> deployments_;
  /// Outcome of every id-stamped install ever delivered here, plus a
  /// content digest: a re-delivery of a known id with matching digest is
  /// a benign duplicate (replay the record); a digest mismatch is a
  /// replayed/mutated instruction and is rejected as kReplayDetected.
  /// Ids are never reused (monotonic per origin), so entries are
  /// permanent — until a Restart() wipes the device's RAM.
  struct InstallRecord {
    Status status;
    std::uint64_t digest = 0;
  };
  std::unordered_map<DeploymentId, InstallRecord, DeploymentIdHash>
      applied_installs_;
  PrefixTrie<SubscriberId> src_redirect_;
  PrefixTrie<SubscriberId> dst_redirect_;

  /// Table sizes mirrored into relaxed-atomic cells: the telemetry
  /// collector reads them from the control shard while this device's
  /// shard is mid-window, so it must not touch the containers
  /// themselves (docs/sharding.md). Updated wherever the tables change.
  obs::Counter deployments_gauge_;
  obs::Counter redirect_prefixes_gauge_;
};

}  // namespace adtc
