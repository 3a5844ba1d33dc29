// Datapath drop-reason taxonomy.
//
// Every packet an adaptive device drops gets the policy family that
// killed it (blacklist, rate-limit, anti-spoof, ...). The device renders
// only policy verdicts (Sec. 4.2), so these reasons refine the world-level
// net::DropReason::kFiltered; queue overflow, link faults and every other
// transport loss belong to the packet network and are counted only there.
// The enum lives in common so core's module graph can tag drops and the
// obs flight recorder can serialise the value per verdict.
#pragma once

#include <cstdint>

namespace adtc {

enum class DatapathDropReason : std::uint8_t {
  kNone = 0,        ///< Not dropped (accept verdicts carry this).
  kBlacklist,       ///< Source matched a blacklist module.
  kFirewallRule,    ///< A match/firewall rule's drop action fired.
  kRateLimit,       ///< Token-bucket rate limiter exhausted.
  kAntiSpoof,       ///< Failed reverse-path / anti-spoofing check.
  kModulePolicy,    ///< Some other module routed to the drop terminal.
  kCount_,          ///< Sentinel — keep last.
};

inline constexpr std::size_t kDatapathDropReasonCount =
    static_cast<std::size_t>(DatapathDropReason::kCount_);

/// Stable lower-case names, used as metric labels and in JSONL records.
inline const char* DatapathDropReasonName(DatapathDropReason reason) {
  switch (reason) {
    case DatapathDropReason::kNone: return "none";
    case DatapathDropReason::kBlacklist: return "blacklist";
    case DatapathDropReason::kFirewallRule: return "firewall-rule";
    case DatapathDropReason::kRateLimit: return "rate-limit";
    case DatapathDropReason::kAntiSpoof: return "anti-spoof";
    case DatapathDropReason::kModulePolicy: return "module-policy";
    case DatapathDropReason::kCount_: break;
  }
  return "unknown";
}

}  // namespace adtc
