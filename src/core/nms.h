// ISP network-management system (Fig. 3): owns the adaptive devices on an
// ISP's routers, validates and installs deployments, collects device
// events, and relays configuration to peer ISPs when asked — the fallback
// path for when the TCSP itself is unreachable (Sec. 5.1).
//
// Deployment is idempotent and fault-tolerant: every instruction carries
// a DeploymentId, the NMS and each device record the outcome per id, and
// re-delivered/duplicated copies replay the record instead of re-applying.
// NMS→device and NMS→peer messages ride ControlChannels, so an attached
// FaultInjector can lose, duplicate or delay them; failed device installs
// go to a backoff retry sweep, and a periodic anti-entropy resync
// (StartResync) re-installs whatever a crashed device or partitioned peer
// missed, converging the world to the desired configuration.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/adaptive_device.h"
#include "core/control_channel.h"
#include "core/deployment_id.h"
#include "core/service.h"
#include "net/network.h"

namespace adtc {

/// Everything one deployment needs, as it travels user→TCSP→NMS→peer.
/// The id makes every hop idempotent.
struct DeploymentInstruction {
  DeploymentId id;
  OwnershipCertificate cert;
  ServiceRequest request;
  std::vector<NodeId> home_nodes;
};

/// Content digest of an instruction (id + certificate + request shape).
/// The exactly-once record keys on DeploymentId; the digest catches an
/// adversary re-using a known id with *mutated* content — a replay
/// attack, rejected with ErrorCode::kReplayDetected instead of replayed.
std::uint64_t InstructionDigest(const DeploymentInstruction& instr);

/// Per-ISP outcome of one relayed runtime operation (activate/modify/
/// read-statistics/read-logs). The TCSP aggregates these across ISPs in
/// its once-only completion callback; re-delivered request copies simply
/// recompute the same value (the local ops are idempotent).
struct RuntimeOpResult {
  std::size_t touched = 0;    ///< modules / vantage points affected
  std::uint64_t packets = 0;  ///< statistics reads
  std::uint64_t bytes = 0;
  std::string logs;           ///< log reads
};

/// Management-plane counters; obs::Counter cells exported through the
/// world registry under "nms.<isp-name>.*".
struct NmsStats {
  obs::Counter deployments_installed;
  obs::Counter deployments_rejected;
  obs::Counter relays_forwarded;
  obs::Counter relays_received;
  obs::Counter events_received;
  obs::Counter duplicate_instructions;  // id already applied, replayed
  obs::Counter install_retries;         // extra device-channel attempts
  obs::Counter installs_deferred;       // device unreachable, left to resync
  obs::Counter retry_sweeps;            // backoff-driven local sweeps
  obs::Counter resync_rounds;           // periodic anti-entropy rounds
  obs::Counter resync_installs;         // installs recovered by resync
  /// Safety-guard quarantine of a deployment the analyzer had proven —
  /// a module's effect signature lied (soundness-oracle flag).
  obs::Counter soundness_flags;
  /// Known DeploymentId re-delivered with *different* content (mutated
  /// replay) — rejected, never applied, never forwarded to peers.
  obs::Counter replays_rejected;
  /// Certificate rejections split by cause: stale (kExpired) versus
  /// forged/unknown signature or out-of-scope (everything else).
  obs::Counter certs_expired_rejected;
  obs::Counter certs_forged_rejected;
  /// Per-device quarantines applied by the safety-violation fan-out
  /// (containment blast-radius numerator).
  obs::Counter quarantines_propagated;
  /// Injector-scheduled router crash/restarts executed (RAM wiped).
  obs::Counter device_restarts;
};

class IspNms : public EventSink {
 public:
  /// `validator` must outlive the NMS (typically owned by the Tcsp).
  IspNms(std::string isp_name, Network& net,
         const SafetyValidator* validator);
  ~IspNms() override;

  const std::string& name() const { return name_; }

  /// Puts an adaptive device next to the router at `node` and hooks it
  /// into the datapath (Fig. 2). Idempotent per node. Shard affinity:
  /// the first managed node pins this NMS to that node's shard, and every
  /// later node must live on the same shard — an ISP's management system
  /// and its devices are one sequential domain (docs/sharding.md).
  void ManageNode(NodeId node);

  /// The shard this NMS (timers, channels, device state) executes on.
  /// Control shard until the first ManageNode call pins it.
  ShardRef sched() const { return sched_; }
  const std::vector<NodeId>& managed_nodes() const { return managed_; }
  AdaptiveDevice* device(NodeId node);

  /// Declares the filter/ACL table capacity of a managed router. The
  /// TCSP's admission-time plan verifier checks each deployment's rule
  /// demand against these (unset nodes are unlimited — the pre-budget
  /// behaviour).
  void SetNodeFilterBudget(NodeId node, std::uint32_t capacity) {
    filter_budgets_[node] = capacity;
  }
  analysis::FilterBudget node_filter_budget(NodeId node) const {
    const auto it = filter_budgets_.find(node);
    return it == filter_budgets_.end() ? analysis::FilterBudget{}
                                       : analysis::FilterBudget{it->second};
  }

  /// Wires the control channels to a fault plan (nullptr detaches).
  /// Must outlive the NMS. Existing channels are rebuilt lazily. Also
  /// arms any router-restart schedule the plan carries for managed nodes.
  void AttachFaultInjector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return injector_; }

  /// Schedules the injector's router crash/restart plan for every managed
  /// node as simulator events. Idempotent: re-arming only schedules
  /// restarts not yet armed, so it is safe to call after adding restarts
  /// to an already-attached injector.
  void ArmRouterRestarts();
  /// Crash+restart of the router's adaptive device now: installed module
  /// graphs, redirect tables and install records are lost (RAM). The NMS's
  /// retry sweep / anti-entropy resync re-converges the device.
  void RestartDevice(NodeId node);

  /// Retry/backoff policy for NMS→device and retry sweeps.
  void set_retry_policy(const RetryPolicy& policy) {
    retry_policy_ = policy;
  }
  /// One-way latency of NMS→peer-NMS relays (0 = synchronous when no
  /// injector is attached).
  void set_peer_latency(SimDuration latency) { peer_latency_ = latency; }

  /// Idempotent instruction application: the first delivery validates
  /// and installs; every later delivery of the same id replays the
  /// recorded status with zero side effects. `authority` must outlive
  /// the NMS (it is retained for resync re-validation of peers).
  Status ApplyDeployment(const DeploymentInstruction& instr,
                         const CertificateAuthority& authority);

  Status RemoveService(SubscriberId subscriber);

  /// Peer-to-peer configuration forwarding: applies locally, then offers
  /// the instruction to every peer NMS over the peer channels (each hop
  /// dedups by id — the relay terminates). Used when the TCSP is
  /// unreachable "e.g. because of an ongoing DDoS attack on the TCSP".
  Status RelayDeploy(const DeploymentInstruction& instr,
                     const CertificateAuthority& authority);

  /// Guarded against self- and duplicate peering: the mesh stays simple
  /// no matter how enrolment wires it.
  void AddPeer(IspNms* peer);
  std::size_t peer_count() const { return peers_.size(); }
  const std::vector<IspNms*>& peers() const { return peers_; }

  // --- runtime operations (Fig. 5, third phase; local side) ----------------
  // Executed at this NMS when a TCSP runtime-op relay lands on its
  // control channel. All idempotent, so at-least-once request delivery
  // is safe.
  RuntimeOpResult SetFirewallRulesActiveLocal(SubscriberId subscriber,
                                              bool active);
  RuntimeOpResult SetRateLimitLocal(SubscriberId subscriber,
                                    double rate_pps);
  RuntimeOpResult ReadStatisticsLocal(SubscriberId subscriber);
  RuntimeOpResult ReadLogsLocal(SubscriberId subscriber,
                                std::size_t max_lines_per_device);

  // --- anti-entropy resync -------------------------------------------------
  /// One resync round now: re-installs desired deployments on every up
  /// device that misses them and re-offers them to all peers (peers
  /// dedup by id). Returns the number of device installs recovered.
  std::size_t ResyncNow();
  /// Periodic resync every `period` until StopResync().
  void StartResync(SimDuration period);
  void StopResync() { resync_running_ = false; }
  bool resync_running() const { return resync_running_; }

  // EventSink: devices report here.
  void OnEvent(const DeviceEvent& event) override;
  /// Detection intake: every event delivered to this NMS is forwarded to
  /// the tap (the DetectionController) before log retention. nullptr
  /// detaches; the tap must outlive the NMS or detach in its destructor.
  void SetEventTap(EventSink* tap) { event_tap_ = tap; }
  EventSink* event_tap() const { return event_tap_; }
  /// Publishes one kCounterSample upcall per managed device carrying
  /// `subscriber`'s destination stage (value = cumulative packets seen
  /// by the stage's StatisticsModule). Returns samples published. The
  /// samples ride DeliverEvent, so with an injector attached they
  /// inherit loss and delay like every other management message.
  std::size_t PublishCounterSamples(SubscriberId subscriber);
  /// Device upcall entry: rides the per-device event channel when an
  /// injector is attached (so event reports inherit loss/delay like every
  /// other management message), inline OnEvent otherwise.
  void DeliverEvent(NodeId node, const DeviceEvent& event);
  const EventBuffer& events() const { return event_log_; }
  EventBuffer& events() { return event_log_; }

  /// Worst observed containment latency: safety-violation event time to
  /// NMS-wide quarantine fan-out, in SimTime ticks (0 if none).
  SimDuration max_quarantine_latency() const {
    return max_quarantine_latency_;
  }

  const NmsStats& stats() const { return stats_; }
  std::size_t device_count() const { return devices_.size(); }
  /// Number of managed devices currently carrying this subscriber.
  std::size_t CountDeployments(SubscriberId subscriber) const;
  /// Instructions applied (for tests asserting exactly-once counting).
  std::size_t applied_instruction_count() const { return applied_.size(); }

 private:
  /// A validated instruction this NMS is responsible for converging.
  struct DesiredDeployment {
    DeploymentInstruction instr;
    std::vector<NodeId> legit_forwarders;
    Status worst;          // worst device outcome observed so far
    bool counted = false;  // deployments_installed already bumped
    /// Every stage graph was proven safe by the static verifier at
    /// admission — a later runtime safety violation is then an
    /// analyzer-soundness event, not mere defence-in-depth.
    bool statically_proven = false;
    /// This NMS's "nms.deploy" span for the instruction — the local
    /// causal anchor that later install calls, resync recoveries and
    /// peer re-offers parent under, keeping every span of a deployment
    /// in one rooted tree. kNoSpan when tracing was off at admission.
    obs::SpanId trace_anchor = obs::kNoSpan;
  };

  static constexpr std::size_t kMaxSweepAttempts = 16;

  /// Applies `fn` to every stage graph of the subscriber across managed
  /// devices; returns graphs visited. The runtime operations' walker.
  std::size_t ForEachStageGraph(
      SubscriberId subscriber,
      const std::function<void(NodeId, ProcessingStage, ModuleGraph&)>& fn);

  /// The id-dedup shield: for an id already applied, the recorded status
  /// (a duplicate) or kReplayDetected when the content differs from the
  /// first delivery (a mutated replay); nullopt for an id not seen yet.
  std::optional<Status> RecordedOutcome(const DeploymentInstruction& instr,
                                        std::string_view replay_what);
  /// The effectful path behind the id-dedup shield.
  Status ApplyDeploymentImpl(const DeploymentInstruction& instr,
                             const CertificateAuthority& authority);
  /// Sends one install attempt per selected, still-missing device
  /// through its channel.
  void InstallRound(const DeploymentId& id);
  /// Builds the spec and installs on one device (idempotent via the
  /// device's own id record). Safe to run on re-delivered copies.
  Status InstallOnDevice(const DeploymentId& id, NodeId node);
  void OnDeviceInstallResult(const DeploymentId& id, NodeId node,
                             const Status& status,
                             const CallOutcome& outcome);
  /// Device-level sweep used by both the backoff retry path and the
  /// periodic resync. Returns installs recovered.
  std::size_t ResyncLocalDevices(bool from_resync);
  bool AnyInstallPending() const;
  void ScheduleRetrySweep();
  void RelayToPeers(const DeploymentInstruction& instr,
                    const CertificateAuthority& authority);

  ControlChannel& DeviceChannel(NodeId node);
  ControlChannel& PeerChannel(IspNms* peer);
  /// Device→NMS event upcall channel (built lazily, like DeviceChannel).
  ControlChannel& EventChannel(NodeId node);
  std::string DeviceChannelName(NodeId node) const;
  /// Cached channel name — the per-attempt resync/retry hot path asks
  /// the injector per message and must not allocate a fresh string each
  /// time.
  const std::string& DeviceChannelNameRef(NodeId node);
  /// Arms not-yet-scheduled restarts for one node.
  void ArmRouterRestartsFor(NodeId node);

  /// Forwards a device's events into DeliverEvent with the node id
  /// attached (devices only know their sink, not their channel).
  struct DeviceEventProxy;

  std::string name_;
  Network& net_;
  ShardRef sched_;
  const SafetyValidator* validator_;
  FaultInjector* injector_ = nullptr;
  /// Control-plane randomness (backoff jitter, channel dice) is drawn
  /// from a private stream so the world's packet Rng is untouched.
  Rng control_rng_;
  RetryPolicy retry_policy_;
  SimDuration peer_latency_ = 0;
  std::vector<NodeId> managed_;
  /// Declared ACL capacity per managed node (absent = unlimited).
  std::unordered_map<NodeId, std::uint32_t> filter_budgets_;
  std::unordered_map<NodeId, std::unique_ptr<AdaptiveDevice>> devices_;
  std::unordered_map<NodeId, std::unique_ptr<DeviceEventProxy>>
      event_proxies_;
  std::vector<IspNms*> peers_;
  std::unordered_map<NodeId, std::unique_ptr<ControlChannel>>
      device_channels_;
  std::unordered_map<NodeId, std::unique_ptr<ControlChannel>>
      event_channels_;
  std::unordered_map<IspNms*, std::unique_ptr<ControlChannel>>
      peer_channels_;
  std::unordered_map<NodeId, std::string> device_channel_names_;
  /// Restart events already turned into simulator posts, per node.
  std::unordered_map<NodeId, std::size_t> restarts_armed_;
  /// (subscriber, kind) pairs already deployed here. Every instruction
  /// carries an id, so id dedup (applied_) stops re-deliveries of the
  /// same instruction; this set stops a relay flood at a peer where the
  /// same (subscriber, kind) already landed under an earlier id.
  std::unordered_set<std::uint64_t> deployed_keys_;
  /// Outcome + content digest per instruction id — the exactly-once
  /// record, digest-armored against mutated replays.
  struct AppliedRecord {
    Status status;
    std::uint64_t digest = 0;
  };
  std::unordered_map<DeploymentId, AppliedRecord, DeploymentIdHash>
      applied_;
  std::unordered_map<DeploymentId, DesiredDeployment, DeploymentIdHash>
      desired_;
  const CertificateAuthority* authority_ = nullptr;  // for resync re-offers
  bool sweep_scheduled_ = false;
  std::size_t sweep_attempt_ = 0;
  bool resync_running_ = false;
  EventSink* event_tap_ = nullptr;
  EventBuffer event_log_;
  /// Subscribers already swept by the quarantine fan-out (latency is
  /// measured on the first violation only).
  std::unordered_set<SubscriberId> quarantined_subscribers_;
  SimDuration max_quarantine_latency_ = 0;
  NmsStats stats_;
};

}  // namespace adtc
