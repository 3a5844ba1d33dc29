// The Traffic Control Service Provider (Figs. 3-5).
//
// One TCSP serves many ISPs and many network users:
//  * Registration (Fig. 4): identity check, ownership verification against
//    the Internet number authority, certificate issuance.
//  * Service deployment (Fig. 5): maps a ServiceRequest onto the enrolled
//    ISPs' network-management systems, which configure their devices.
//    Control-plane latency is modelled (user->TCSP, TCSP->ISP, per-device
//    configuration time) so experiment T5 can measure worldwide
//    deployment convergence.
//  * Unreachability: when the TCSP is down (e.g. itself under DDoS),
//    deployment requests fail and users fall back to contacting an ISP
//    NMS directly, which relays peer-to-peer (IspNms::RelayDeploy).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/verifier.h"
#include "core/nms.h"
#include "core/ownership.h"
#include "core/tcsp_config.h"
#include "obs/span.h"

namespace adtc {

/// How a deployment reached the ISPs.
enum class DeployPath : std::uint8_t {
  kDirect,   // TCSP instructed every NMS itself
  kRelayed,  // TCSP unreachable; flooded through the NMS peer mesh
};

/// Per-ISP view of one deployment.
struct IspOutcome {
  std::string isp;
  Status status;
  std::uint32_t attempts = 0;  // channel attempts (1 = no retries)
  std::size_t devices_configured = 0;
};

struct DeploymentReport {
  /// Aggregate over all ISPs: the *worst* observed outcome (see
  /// ErrorSeverity); Ok only when every ISP accepted.
  Status status;
  std::size_t isps_configured = 0;
  std::size_t devices_configured = 0;
  /// Extra channel attempts summed over all ISPs (0 when fault-free).
  std::uint32_t retries = 0;
  DeployPath path = DeployPath::kDirect;
  std::vector<IspOutcome> isp_outcomes;
  /// Static admission analysis of the request's reference graphs
  /// (src/analysis): per-path worst-case bounds when proven, the violated
  /// invariant with a witness path when rejected. kNotRun when the
  /// request never produced an analyzable graph.
  analysis::AnalysisReport analysis;
  /// Network-wide static plan analysis (analysis/network_verifier.h):
  /// path coverage, cross-device loops, composed rate/overhead bounds
  /// and filter budgets over the concrete placement. kNotRun when plan
  /// verification is disabled, no ISP is enrolled, routing is unbuilt,
  /// or the deployment travelled the relay path.
  analysis::PlanReport plan;
  SimTime requested_at = 0;
  SimTime completed_at = 0;

  SimDuration Latency() const { return completed_at - requested_at; }
};

/// When a deployment's outcome is known (Fig. 5's handshake, with or
/// without the control-plane latency model).
enum class CompletionPolicy : std::uint8_t {
  /// All ISPs are configured inside the call; the returned report is
  /// final and a callback (if given) fires before the call returns.
  kImmediate,
  /// Control-plane latency is modelled: ISPs configure via scheduled
  /// simulator events and the callback fires once the slowest ISP
  /// finished. The returned report is provisional (completed_at == 0).
  kLatencyModelled,
};

/// TCSP counters; obs::Counter cells exported through the world registry
/// under "tcsp.*".
struct TcspStats {
  obs::Counter registrations_accepted;
  obs::Counter registrations_rejected;
  obs::Counter deployments_completed;
  obs::Counter deployments_failed;
  obs::Counter requests_while_unreachable;
  obs::Counter deploy_retries;    // extra TCSP->NMS channel attempts
  obs::Counter relay_fallbacks;   // deployments that took the peer mesh
  obs::Counter runtime_ops;       // activate/modify/read requests relayed
};

class Tcsp {
 public:
  Tcsp(Network& net, NumberAuthority& authority, std::string signing_key,
       TcspConfig config = {});
  ~Tcsp();

  /// "The TCSP ... sets up contracts with many ISPs" — enrolled NMSes
  /// receive deployment instructions. Also wires the ISP into the peer
  /// mesh (each new ISP peers with all previously enrolled ones).
  void EnrollIsp(IspNms* nms);
  std::size_t isp_count() const { return isps_.size(); }
  /// Enrolled NMSes in enrolment order (the detection controller samples
  /// and taps them; deterministic iteration order matters).
  const std::vector<IspNms*>& enrolled_isps() const { return isps_; }

  // --- Fig. 4: service registration -------------------------------------
  /// Synchronous registration (identity assumed verified when
  /// `identity_ok`): checks claimed ownership with the number authority
  /// and issues a certificate bound to a fresh subscriber id.
  Result<OwnershipCertificate> Register(const std::string& subject,
                                        std::vector<Prefix> claimed,
                                        bool identity_ok = true);

  /// Latency-modelled registration: the callback fires after the
  /// user->TCSP->authority round trips.
  void RegisterAsync(
      std::string subject, std::vector<Prefix> claimed,
      std::function<void(Result<OwnershipCertificate>)> done);

  /// "Traffic control can be executed by a designated party on behalf of
  /// a network address owner" (Sec. 4.1): issues a certificate for (a
  /// subset of) the owner's prefixes to a distinct subscriber. Requires
  /// the owner's valid certificate — the delegation is the owner's act.
  Result<OwnershipCertificate> RegisterDelegate(
      const OwnershipCertificate& owner_cert, std::string delegate_name,
      std::vector<Prefix> delegated_prefixes);

  // --- Fig. 5: service deployment ----------------------------------------
  /// Deploys across all enrolled ISPs. One entry point for both shapes of
  /// completion: kImmediate (default) configures synchronously and the
  /// returned report is final; kLatencyModelled schedules the per-ISP
  /// configuration through the simulator and reports through `done`.
  /// Either way every ISP is attempted, the first failure is recorded in
  /// the report's status, and the same DeploymentReport shape is used.
  DeploymentReport DeployService(
      const OwnershipCertificate& cert, const ServiceRequest& request,
      CompletionPolicy policy = CompletionPolicy::kImmediate,
      std::function<void(const DeploymentReport&)> done = nullptr);

  /// Withdraws the subscriber's service at every enrolled ISP. Unlike
  /// deployment and the runtime operations, withdrawal calls each NMS
  /// directly instead of riding the TCSP->NMS ControlChannels, so an
  /// attached fault plan never loses, duplicates or delays it.
  Status RemoveService(SubscriberId subscriber);

  /// Plan-soundness oracle entry: the data plane (or a test harness that
  /// can see ground truth) observed attack traffic reaching a victim of
  /// `subscriber` at `at_node` — traffic the plan verifier had proven
  /// would cross a filter. If the subscriber holds a coverage-proven
  /// plan, the contradiction is counted
  /// (analysis.plan_soundness_violations) and a kPlanSoundness event is
  /// fanned out to every enrolled NMS event log; returns whether a proof
  /// was contradicted.
  bool ReportUncoveredPathTraffic(SubscriberId subscriber, NodeId at_node);

  // --- runtime operations (Fig. 5, third phase) ----------------------------
  // "Once the service is deployed, a network user may activate, modify
  //  specific parameters or read logs of the service. Therefore it sends
  //  corresponding requests to the TCSP, which relays them to the
  //  appropriate ISP's network management systems."
  //
  // Each operation travels the same TCSP->ISP fan-out as deployment
  // (FanOutToIsps: one ControlChannel Call per enrolled ISP), so with an
  // injector attached it inherits the same loss/retry/dedup semantics.
  // The NMS-side handlers are idempotent and completion aggregates in a
  // once-only callback. On a fault-free same-shard world every channel
  // completes inline and the returned value is final; otherwise the
  // return is a provisional Unavailable("runtime operation in flight")
  // and the final outcome arrives through the optional `done` callback.
  // An unreachable TCSP fails the operation at once, `done` included.

  /// Arms/disarms every firewall MatchModule of the subscriber.
  Status SetFirewallRulesActive(SubscriberId subscriber, bool active,
                                std::function<void(const Status&)> done =
                                    nullptr);

  /// Retargets every rate limiter of the subscriber.
  Status SetRateLimit(SubscriberId subscriber, double rate_pps,
                      std::function<void(const Status&)> done = nullptr);

  /// Aggregated statistics across the subscriber's vantage points.
  struct StatisticsReport {
    std::size_t vantage_points = 0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };
  Result<StatisticsReport> ReadStatistics(
      SubscriberId subscriber,
      std::function<void(const Result<StatisticsReport>&)> done = nullptr);

  /// Concatenated sampled-log tails across vantage points.
  Result<std::string> ReadLogs(
      SubscriberId subscriber, std::size_t max_lines_per_device = 5,
      std::function<void(const Result<std::string>&)> done = nullptr);

  // --- availability -------------------------------------------------------
  void set_reachable(bool reachable) { reachable_ = reachable; }
  bool reachable() const { return reachable_; }

  /// Routes every control channel (TCSP->NMS of all enrolled and future
  /// ISPs, plus their NMS->device and NMS->peer channels) through a
  /// fault plan and exports the injector's counters as "faults.*".
  /// The injector also decides TCSP outage windows (TcspUp). Pass
  /// nullptr to detach. Must outlive the Tcsp.
  void AttachFaultInjector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return injector_; }

  const CertificateAuthority& certificate_authority() const { return ca_; }
  const SafetyValidator& validator() const { return validator_; }
  const TcspStats& stats() const { return stats_; }

  /// Home ASes of a prefix set (used for anti-spoof exemptions).
  static std::vector<NodeId> HomeNodes(const std::vector<Prefix>& prefixes);

 private:
  /// World tracer when a telemetry sink is attached, else nullptr.
  obs::Tracer* tracer() const;

  /// Operator switch AND the injector's outage schedule.
  bool TcspReachable() const;
  /// Lazily built TCSP->NMS channel for one enrolled ISP.
  ControlChannel& IspChannel(IspNms* nms);
  /// The one TCSP->ISP relay of Fig. 5: one IspChannel Call per enrolled
  /// ISP in enrolment order, with `options(nms)` as its CallOptions.
  /// `request(isp, nms)` runs NMS-side on every delivered copy, `isp`
  /// being the ISP's index in enrolment order; `answered` (optional)
  /// fills the caller's per-ISP slot as each answer lands; `finished`
  /// fires exactly once after the last ISP answered, with every status
  /// folded by WorseStatus (at once with Ok when no ISP is enrolled).
  /// Fault-free same-shard channels complete all of it before returning.
  void FanOutToIsps(
      const std::function<ControlChannel::CallOptions(IspNms*)>& options,
      std::function<Status(std::size_t isp, IspNms* nms)> request,
      std::function<void(std::size_t isp, const Status&,
                         const CallOutcome&)>
          answered,
      std::function<void(const Status& worst)> finished);
  /// A runtime operation over FanOutToIsps: fails at once while the TCSP
  /// is unreachable, else runs `local` at every ISP into one slot each
  /// and `fold`s the slots (in enrolment order) and the worst channel
  /// status into the result. Returns it when final, else the provisional
  /// Unavailable("runtime operation in flight"); `done` gets the final.
  template <typename R>
  R RelayRuntimeOp(
      std::function<RuntimeOpResult(IspNms*)> local,
      std::function<R(const Status& worst,
                      const std::vector<RuntimeOpResult>& slots)>
          fold,
      std::function<void(const R&)> done);
  /// Runs the static verifier over the request's reference stage graphs
  /// so the outcome can be attached to the DeploymentReport. The
  /// authoritative admission gate is each NMS's AnalyzeDeployment (same
  /// shared validator); this pass only makes the proof visible to the
  /// requesting user.
  analysis::AnalysisReport AnalyzeRequest(
      const OwnershipCertificate& cert, const ServiceRequest& request,
      const std::vector<NodeId>& home_nodes) const;
  /// Assembles the concrete placement of `request` across the enrolled
  /// ISPs into the plan verifier's snapshot (placements, ingress/victim
  /// sets, per-router budgets). False when the request yields no
  /// analyzable plan (no graphs, or no selected device anywhere).
  bool BuildPlanView(const ServiceRequest& request,
                     const std::vector<NodeId>& home_nodes,
                     analysis::PlanView* out) const;
  /// Unreachable-TCSP degradation: floods the instruction through the
  /// peer mesh starting at the first enrolled NMS.
  DeploymentReport RelayFallback(
      const DeploymentInstruction& instr,
      const analysis::AnalysisReport& analysis, SimTime requested_at,
      obs::SpanId deploy_span,
      const std::function<void(const DeploymentReport&)>& done);

  Network& net_;
  NumberAuthority& authority_;
  CertificateAuthority ca_;
  SafetyValidator validator_;
  TcspConfig config_;
  std::vector<IspNms*> isps_;
  FaultInjector* injector_ = nullptr;
  /// Control-plane randomness (channel dice, backoff jitter) uses its
  /// own stream so attaching faults never perturbs the world Rng.
  Rng control_rng_{0x7c5c0de5eedULL};
  std::unordered_map<IspNms*, std::unique_ptr<ControlChannel>>
      isp_channels_;
  /// Victim (home) nodes of subscribers whose coverage proof is live —
  /// the plan-soundness oracle's ground truth. Entries are added when a
  /// coverage-requiring plan is proven at admission and removed with the
  /// service.
  std::unordered_map<SubscriberId, std::vector<NodeId>> proven_plans_;
  std::uint64_t next_deployment_seq_ = 1;
  SubscriberId next_subscriber_ = 1;
  bool reachable_ = true;
  TcspStats stats_;
};

}  // namespace adtc
