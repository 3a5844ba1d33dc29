// Header/payload match rules and the branching MatchModule.
//
// "Rules that match traffic by header fields, payload (or payload hashes),
//  or timing characteristics etc. can be installed, configured and
//  activated instantly." (Sec. 4.2)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/component.h"
#include "net/ip.h"

namespace adtc {

/// Conjunctive packet predicate over wire fields. Empty optionals match
/// anything.
struct MatchRule {
  std::optional<Prefix> src_prefix;
  std::optional<Prefix> dst_prefix;
  std::optional<Protocol> proto;
  std::optional<std::pair<std::uint16_t, std::uint16_t>> dst_port_range;
  std::optional<std::pair<std::uint16_t, std::uint16_t>> src_port_range;
  /// All set bits must be present in the packet's TCP flags.
  std::optional<std::uint8_t> tcp_flags_all;
  std::optional<IcmpType> icmp;
  std::optional<std::pair<std::uint32_t, std::uint32_t>> size_range;
  /// Exact payload-hash match (stands in for payload content matching).
  std::optional<std::uint64_t> payload_hash;

  bool Matches(const Packet& packet) const;
  std::string Describe() const;
};

/// Port kPortAlt (1) when the rule matches, kPortDefault (0) otherwise.
/// Wiring port 1 to Terminal::kDrop makes it a firewall deny rule; wiring
/// it to a rate limiter makes it a traffic-shaping classifier.
class MatchModule : public Module {
 public:
  explicit MatchModule(MatchRule rule) : rule_(std::move(rule)) {}

  int OnPacket(Packet& packet, const DeviceContext& ctx) override;
  std::string_view type_name() const override { return "match"; }
  int port_count() const override { return 2; }
  DatapathDropReason drop_reason() const override {
    return DatapathDropReason::kFirewallRule;
  }
  /// Branch-only: keeps no state across packets, writes nothing and
  /// emits nothing.
  analysis::EffectSignature effect_signature() const override {
    analysis::EffectSignature sig;
    sig.stateful = false;
    return sig;
  }

  const MatchRule& rule() const { return rule_; }
  std::uint64_t matched() const { return matched_; }

  /// Rules can be armed/disarmed without rewiring the graph — this is the
  /// switch pre-staged configurations flip during attacks (Sec. 4.2).
  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }

 private:
  MatchRule rule_;
  bool active_ = true;
  std::uint64_t matched_ = 0;
};

}  // namespace adtc
