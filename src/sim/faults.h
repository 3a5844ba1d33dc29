// Deterministic fault injection for the control plane AND the data plane.
//
// The paper's availability argument (Sec. 5.1) is that traffic control
// keeps working while the infrastructure itself is under attack. To test
// that, a FaultInjector holds a *fault plan* — per-channel message
// loss/duplication/delay/reorder probabilities, TCSP outage windows,
// device crash/recovery schedules, NMS partitions, per-link packet
// loss/corruption plans, link flap windows and router crash/restart
// schedules — and every control message routed through a ControlChannel
// (src/core/control_channel.h) plus every packet transmitted by the
// Network (src/net/network.cpp) asks the injector for its fate.
//
// Determinism: the injector owns its own Rng, seeded independently of
// the world's packet-level Rng, so attaching an injector never perturbs
// datapath random streams. All-zero plans consume no randomness at all,
// so an attached-but-empty injector leaves a world's outcomes
// bit-identical. Given the same seed, plan and simulated call order,
// every fault decision replays identically. The single RNG stream also
// makes the injector single-shard-only: Network::AttachFaultInjector and
// ControlChannel assert it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/units.h"

namespace adtc {

/// Per-channel fault probabilities. All default to "no faults".
struct ChannelFaults {
  /// Probability one message is silently dropped.
  double loss = 0.0;
  /// Probability a delivered message is delivered a second time.
  double duplicate = 0.0;
  /// Uniform extra delivery delay in [0, jitter_max].
  SimDuration jitter_max = 0;
  /// Probability a delivered message is additionally held back by
  /// `reorder_delay` (so a later message can overtake it).
  double reorder = 0.0;
  SimDuration reorder_delay = Milliseconds(50);

  bool None() const {
    return loss == 0.0 && duplicate == 0.0 && jitter_max == 0 &&
           reorder == 0.0;
  }
};

/// The fate the injector assigned to one message.
struct MessageFate {
  bool deliver = true;
  SimDuration extra_delay = 0;
  bool duplicate = false;
  SimDuration duplicate_delay = 0;
};

/// Per-link data-plane fault probabilities. All default to "no faults".
struct LinkFaults {
  /// Probability one packet is lost on the wire (never serialised).
  double loss = 0.0;
  /// Probability a packet is corrupted in flight: it still consumes the
  /// link (serialisation + propagation) but is CRC-dropped at arrival.
  double corrupt = 0.0;

  bool None() const { return loss == 0.0 && corrupt == 0.0; }
};

/// The fate the injector assigned to one data-plane packet.
enum class PacketFate : std::uint8_t {
  kDeliver = 0,
  kLost,       ///< eaten by the wire before serialisation
  kCorrupted,  ///< transmitted, then discarded at the receiver's CRC
  kLinkDown,   ///< link inside a flap window; nothing transmits
  kCount_,
};

/// Stable lower-case names ("deliver", "lost", ...).
std::string_view PacketFateName(PacketFate fate);

/// Plain counters (the sim layer cannot depend on obs; the component
/// that owns the injector exports these through the metrics registry).
struct FaultInjectorStats {
  std::uint64_t messages_planned = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t messages_reordered = 0;
  std::uint64_t partition_blocks = 0;
  std::uint64_t packets_planned = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t packets_corrupted = 0;
  std::uint64_t link_down_drops = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed);

  // --- channel fault plans -----------------------------------------------
  /// Plan applied to every channel without a more specific entry.
  void SetDefaultFaults(const ChannelFaults& faults);
  /// Plan for one exact channel name (e.g. "tcsp->nms:isp-3"), taking
  /// precedence over the default.
  void SetChannelFaults(std::string_view channel,
                        const ChannelFaults& faults);

  /// Rolls the dice for one message on `channel`. Consumes randomness
  /// only when the effective plan has any fault enabled, so attaching an
  /// all-zero injector is behaviourally inert. Takes a string_view so the
  /// per-message hot path never allocates (heterogeneous map lookup).
  MessageFate PlanMessage(std::string_view channel);

  // --- data-plane fault plans ----------------------------------------------
  /// Plan applied to every link without a more specific entry.
  void SetDefaultLinkFaults(const LinkFaults& faults);
  /// Plan for one link id, taking precedence over the default.
  void SetLinkFaults(LinkId link, const LinkFaults& faults);

  /// Link is administratively down during [start, end) — a flap window.
  /// Every packet offered while down is dropped without randomness.
  void AddLinkFlap(LinkId link, SimTime start, SimTime end);
  bool LinkUp(LinkId link, SimTime now) const;

  /// Rolls the dice for one packet transmitted on `link` at `now`. Flap
  /// windows are consulted first (no randomness); an all-zero link plan
  /// consumes no randomness, keeping fault-free worlds bit-identical.
  PacketFate PlanPacket(LinkId link, SimTime now);

  // --- endpoint availability schedules ------------------------------------
  /// The TCSP is unreachable during [start, end) (its own DDoS).
  void AddTcspOutage(SimTime start, SimTime end);
  bool TcspUp(SimTime now) const;

  /// Device at `node` is crashed during [start, end); control messages
  /// to it are blackholed until it recovers.
  void AddDeviceOutage(NodeId node, SimTime start, SimTime end);
  bool DeviceUp(NodeId node, SimTime now) const;

  /// Router at `node` crashes and immediately restarts at `at`: its
  /// AdaptiveDevice loses installed module graphs and install records
  /// (RAM), to be recovered by the NMS anti-entropy resync. The owning
  /// IspNms arms these as simulator events (ArmRouterRestarts).
  void AddRouterRestart(NodeId node, SimTime at);
  /// Scheduled restart times for `node` (empty if none), in insertion
  /// order.
  const std::vector<SimTime>& RouterRestartsFor(NodeId node) const;

  // --- NMS partitions ------------------------------------------------------
  /// Symmetric: peer-relay messages between the two named NMSes are
  /// blocked until Heal(). Counted in stats().partition_blocks when a
  /// send is refused.
  void Partition(std::string_view nms_a, std::string_view nms_b);
  void Heal(std::string_view nms_a, std::string_view nms_b);
  bool Partitioned(std::string_view nms_a, std::string_view nms_b) const;

  const FaultInjectorStats& stats() const { return stats_; }

 private:
  /// Heterogeneous string hashing so string_view lookups never build a
  /// temporary std::string.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  const ChannelFaults& PlanFor(std::string_view channel) const;
  const LinkFaults& LinkPlanFor(LinkId link) const;
  static std::string PartitionKey(std::string_view a, std::string_view b);

  Rng rng_;
  ChannelFaults default_faults_;
  std::unordered_map<std::string, ChannelFaults, StringHash,
                     std::equal_to<>>
      per_channel_;
  LinkFaults default_link_faults_;
  std::unordered_map<LinkId, LinkFaults> per_link_;
  std::unordered_map<LinkId, std::vector<std::pair<SimTime, SimTime>>>
      link_flaps_;
  std::vector<std::pair<SimTime, SimTime>> tcsp_outages_;
  std::unordered_map<NodeId, std::vector<std::pair<SimTime, SimTime>>>
      device_outages_;
  std::unordered_map<NodeId, std::vector<SimTime>> router_restarts_;
  std::unordered_set<std::string> partitions_;
  /// Mutable so read-only queries (Partitioned) can count refusals —
  /// the same pattern as SafetyValidator's analysis stats.
  mutable FaultInjectorStats stats_;
};

}  // namespace adtc
