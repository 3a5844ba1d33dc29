// Effect signatures: the static, declared behaviour of a module type.
//
// The paper requires that "new service modules ... must be checked for
// security compliance before deployment" (Sec. 4.5). A signature is the
// module author's machine-checkable claim of worst-case behaviour — what
// the admission-time verifier (src/analysis/verifier.h) composes over a
// module graph to *prove* the Sec. 4.5 invariants before anything is
// installed. The runtime SafetyGuard stays in place as defence in depth:
// a module whose actual behaviour exceeds its signature is caught there,
// and the mismatch is surfaced as an analyzer-soundness event.
//
// This header is dependency-free on purpose: both the core component
// model (core/component.h) and the verifier include it.
#pragma once

#include <cstdint>
#include <string_view>

namespace adtc::analysis {

/// Wire-header fields a module may declare it writes. Src/dst/TTL writes
/// and size growth are exactly the mutations the runtime guard forbids
/// (core/safety.h); any module declaring one of them is rejected at
/// admission before a packet ever reaches it. Size *shrink* (payload
/// deletion) is not a header write — it is always safe.
enum class HeaderField : std::uint8_t {
  kSrc = 1 << 0,
  kDst = 1 << 1,
  kTtl = 1 << 2,
  kSizeGrow = 1 << 3,
};

/// Bitmask over HeaderField.
using HeaderWriteSet = std::uint8_t;

inline constexpr HeaderWriteSet kNoHeaderWrites = 0;

inline constexpr HeaderWriteSet operator|(HeaderField a, HeaderField b) {
  return static_cast<HeaderWriteSet>(static_cast<std::uint8_t>(a) |
                                     static_cast<std::uint8_t>(b));
}
inline constexpr HeaderWriteSet operator|(HeaderWriteSet a, HeaderField b) {
  return static_cast<HeaderWriteSet>(a | static_cast<std::uint8_t>(b));
}
inline constexpr bool Writes(HeaderWriteSet set, HeaderField field) {
  return (set & static_cast<std::uint8_t>(field)) != 0;
}

/// Contextual guarantee a module needs from its deployment site
/// (Sec. 4.2: "we can e.g. only prevent source spoofing effectively, if
/// the adaptive device is aware of whether it processes transit traffic").
enum class ContextRequirement : std::uint8_t {
  kNone = 0,
  /// The module's effects are only valid for packets arriving over a
  /// customer edge (access host or customer AS). Unsafe wherever transit
  /// packets can reach it — unless the module self-gates (below).
  kCustomerEdgeOnly,
  kCount_,
};

std::string_view ContextRequirementName(ContextRequirement requirement);

/// A module type's declared worst-case per-packet behaviour.
///
/// Signatures are *claims*, like Module::declared_overhead_bytes() always
/// was: honest modules declare truthfully and the verifier's proof is
/// sound; a lying module passes admission but is quarantined by the
/// runtime guard — which then also flags the analyzer-soundness mismatch.
struct EffectSignature {
  /// Header fields the module may write. Must be empty for anything
  /// vetted onto the standard catalog; the verifier rejects any graph
  /// where a writing module is reachable.
  HeaderWriteSet header_writes = kNoHeaderWrites;

  /// Worst-case packets emitted per input packet. 1.0 for every
  /// pass-or-drop module; a value > 1 means duplication (amplification)
  /// and the composed product along any path must stay <= 1.
  double rate_factor_max = 1.0;

  /// Worst-case management-plane bytes emitted per processed packet
  /// (log records, trigger events). Mirrors declared_overhead_bytes().
  std::uint32_t overhead_bytes_max = 0;

  /// Worst-case change to the packet's wire size in bytes. <= 0 for
  /// every honest module (shrinking is allowed, growth is kSizeGrow).
  std::int32_t wire_bytes_delta_max = 0;

  /// Whether the module keeps cross-packet state (counters, buckets,
  /// digests). Reported per path.
  bool stateful = true;

  ContextRequirement context = ContextRequirement::kNone;

  /// True when the module internally passes transit-edge packets
  /// unexamined (like the standard anti-spoof module, which acts only
  /// when DeviceContext::FromCustomerEdge()). A self-gating module
  /// discharges its own kCustomerEdgeOnly requirement and is provably
  /// safe at any vantage point.
  bool self_gates_transit = false;
};

/// The Sec. 4.5 invariants the verifier proves over a module graph.
enum class InvariantKind : std::uint8_t {
  /// Composed worst-case rate factor > 1 on some entry->terminal path.
  kRateAmplification = 0,
  /// Worst-case bytes out (wire growth + management overhead) exceed
  /// bytes in + SafetyLimits::max_overhead_bytes_per_packet on some path.
  kByteAmplification,
  /// A module declaring src/dst/TTL writes or size growth is reachable.
  kHeaderMutation,
  /// A customer-edge-only module is reachable in a context that can
  /// deliver transit-edge packets (and does not self-gate).
  kContextViolation,
  /// A reachable module has an unwired output port.
  kUnwiredPort,
  /// The graph can loop a packet forever (cycle reachable from entry).
  kNonTerminating,
  kCount_,
};

std::string_view InvariantKindName(InvariantKind kind);

/// Outcome of one admission analysis.
enum class AnalysisStatus : std::uint8_t {
  kNotRun = 0,  // analyzer never saw the graph (e.g. pre-analysis reject)
  kProven,      // every invariant holds on every path
  kRejected,    // at least one invariant violated; see the witness
  kCount_,
};

std::string_view AnalysisStatusName(AnalysisStatus status);

}  // namespace adtc::analysis
