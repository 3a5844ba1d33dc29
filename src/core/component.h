// The component model of the adaptive device (Sec. 5.2): services are
// composed of components "arranged as directed graphs", each performing
// some well-defined packet processing, with functionality restricted as
// described in Sec. 4.5.
//
// A Module inspects (and within safety limits transforms) one packet and
// returns an output port; the ModuleGraph routes the packet to the next
// module or to a terminal (accept/drop). Mutation of src/dst/TTL is
// forbidden — declared here, enforced at runtime by the AdaptiveDevice's
// safety guard regardless of what a module actually does.
#pragma once

#include <cstdint>
#include <string_view>

#include "analysis/effects.h"
#include "common/drop_reason.h"
#include "common/types.h"
#include "common/units.h"
#include "core/events.h"
#include "net/packet.h"
#include "net/router.h"

namespace adtc {

/// Which half of the two-stage pipeline is running (Sec. 4.1/Fig. 6):
/// stage 1 acts for the owner of the source address, stage 2 for the
/// owner of the destination address.
enum class ProcessingStage : std::uint8_t { kSourceOwner, kDestinationOwner };

/// Everything a module may consult besides the packet itself. Includes
/// the "contextual information depending on where [the device] is
/// attached to the network" (Sec. 4.2): node, AS role, arrival edge type.
struct DeviceContext {
  Network* net = nullptr;
  NodeId node = kInvalidNode;
  NodeRole role = NodeRole::kStub;
  LinkKind in_kind = LinkKind::kPeer;
  /// For packets arriving from another AS: the neighbouring node the
  /// packet came from (kInvalidNode for access links / injected traffic).
  NodeId in_from_node = kInvalidNode;
  SimTime now = 0;
  SubscriberId subscriber = kInvalidSubscriber;
  ProcessingStage stage = ProcessingStage::kSourceOwner;
  /// Event channel to the management plane (may be null in benches).
  EventSink* events = nullptr;

  /// True if the packet entered this router from a customer or directly
  /// attached host (the only place anti-spoofing may act; transit traffic
  /// must never be source-checked, Sec. 4.2).
  bool FromCustomerEdge() const { return IsCustomerEdgeKind(in_kind); }

  // --- router telemetry (Sec. 4.2) ----------------------------------------
  // "if made available by the network operator, the router's state and
  //  configuration (e.g. static routing information, packet drop rates,
  //  congestion parameters, traffic mix, router load etc.) can also be
  //  provided."

  /// Packets the hosting router forwarded towards neighbouring routers
  /// so far (router load).
  std::uint64_t RouterForwardedPackets() const;
  /// Queue-drop share across the router's outgoing links:
  /// dropped / (forwarded + dropped), 0 when idle — a congestion signal.
  double RouterDropShare() const;

  void Emit(EventKind kind, std::string detail, double value = 0.0) const {
    if (events == nullptr) return;
    DeviceEvent event;
    event.kind = kind;
    event.at = now;
    event.node = node;
    event.subscriber = subscriber;
    event.detail = std::move(detail);
    event.value = value;
    events->OnEvent(event);
  }
};

/// Conventional port meanings (modules may define more).
inline constexpr int kPortDefault = 0;  // "pass" / "no match"
inline constexpr int kPortAlt = 1;      // "match" / "exceeded"

class Module {
 public:
  virtual ~Module() = default;

  /// Processes one packet; returns the output port the packet leaves on
  /// (< port_count()).
  virtual int OnPacket(Packet& packet, const DeviceContext& ctx) = 0;

  virtual std::string_view type_name() const = 0;
  virtual int port_count() const { return 1; }

  /// Upper bound on extra management-plane bytes this module may emit per
  /// processed packet (log records, trigger events). The safety validator
  /// caps the per-graph sum (Sec. 4.5, footnote 1: only "a reasonable
  /// amount of additional traffic" for logging/statistics/triggers).
  virtual std::uint32_t declared_overhead_bytes() const { return 0; }

  /// The taxonomy entry recorded when a packet reaches the drop terminal
  /// through this module — how the forensic flight recorder and the
  /// per-reason drop counters attribute the kill. Policy modules that
  /// have a more specific family (blacklist, rate-limit, anti-spoof, ...)
  /// override this; kModulePolicy is the honest generic default.
  virtual DatapathDropReason drop_reason() const {
    return DatapathDropReason::kModulePolicy;
  }

  /// The module type's declared worst-case effects — what the admission
  /// verifier (src/analysis/verifier.h) composes to prove the Sec. 4.5
  /// invariants over the whole graph before deployment. Like
  /// declared_overhead_bytes(), this is a *claim*: an honest signature
  /// makes the static proof sound, a lying one is caught by the runtime
  /// safety guard and flagged as an analyzer-soundness violation.
  ///
  /// The default is the most conservative honest signature: no header
  /// writes, no duplication, overhead as declared, stateful.
  virtual analysis::EffectSignature effect_signature() const {
    analysis::EffectSignature sig;
    sig.overhead_bytes_max = declared_overhead_bytes();
    return sig;
  }
};

}  // namespace adtc
