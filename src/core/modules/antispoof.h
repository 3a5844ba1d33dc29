// Anti-spoofing module: the worldwide remotely deployable ingress
// filtering of Secs. 4.2-4.3.
//
// The module only acts on traffic arriving from a *customer edge* of the
// hosting router (access hosts or customer ASes) — "we can e.g. only
// prevent source spoofing effectively, if the adaptive device is aware of
// whether it processes transit traffic of autonomous systems or only
// traffic from customers of a peripheral ISP" (Sec. 4.2). Transit traffic
// always passes (port 0).
//
// Two operating modes:
//  * Owner mode (the paper's reflector defence): drop customer-edge
//    packets that *claim* a protected source address the customer cannot
//    legitimately hold — i.e. spoofed packets carrying the subscriber's
//    (victim's) addresses, stopped right at the attacker's uplink.
//  * Cone mode (classic RFC 2267): the allowed set is the customer cone
//    behind the edge; anything outside is spoofed.
#pragma once

#include <cstdint>

#include "core/component.h"
#include "net/prefix_trie.h"

namespace adtc {

class AntiSpoofModule : public Module {
 public:
  enum class Mode : std::uint8_t {
    /// Port 1 when a customer-edge packet's src is inside the protected
    /// set but the edge is not the legitimate home of that set.
    kProtectOwnerPrefixes,
    /// Port 1 when a customer-edge packet's src is outside the allowed
    /// (customer-cone) set.
    kAllowedCone,
  };

  explicit AntiSpoofModule(Mode mode) : mode_(mode) {}

  /// Owner mode: addresses being protected against spoofing.
  void AddProtectedPrefix(const Prefix& prefix) {
    protected_.Insert(prefix, true);
  }
  /// Owner mode: edges that legitimately source the protected prefixes
  /// (the subscriber's own uplink AS) must be exempted.
  void AddLegitimateSourceNode(NodeId node) {
    if (legit_nodes_.size() <= node) legit_nodes_.resize(node + 1, false);
    legit_nodes_[node] = true;
  }

  /// Cone mode: legitimate source space behind this router's edges.
  void AddAllowedPrefix(const Prefix& prefix) {
    allowed_.Insert(prefix, true);
  }

  int OnPacket(Packet& packet, const DeviceContext& ctx) override;
  std::string_view type_name() const override { return "anti-spoof"; }
  DatapathDropReason drop_reason() const override {
    return DatapathDropReason::kAntiSpoof;
  }
  int port_count() const override { return 2; }
  /// Source checking is only meaningful for customer-edge arrivals
  /// (Sec. 4.2) — but this module gates that itself: OnPacket passes
  /// transit traffic unexamined, so it is provably safe to reach from
  /// any vantage point (self_gates_transit discharges the requirement).
  analysis::EffectSignature effect_signature() const override {
    analysis::EffectSignature sig;
    sig.stateful = false;
    sig.context = analysis::ContextRequirement::kCustomerEdgeOnly;
    sig.self_gates_transit = true;
    return sig;
  }

  std::uint64_t spoofs_flagged() const { return spoofs_flagged_; }
  std::uint64_t transit_passed() const { return transit_passed_; }

 private:
  Mode mode_;
  PrefixTrie<bool> protected_;
  PrefixTrie<bool> allowed_;
  std::vector<bool> legit_nodes_;
  std::uint64_t spoofs_flagged_ = 0;
  std::uint64_t transit_passed_ = 0;
};

}  // namespace adtc
