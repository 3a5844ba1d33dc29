// Deployment identity for exactly-once control-plane effects.
//
// Every service deployment is stamped with a DeploymentId by its origin
// (the TCSP, or whoever hands an ISP NMS an instruction directly). The id
// travels with the instruction through every channel hop, so an NMS or
// device that sees a duplicated, retried or relayed copy of an
// instruction it already applied returns the recorded outcome instead of
// re-applying — counter effects and graph installs happen exactly once
// per id no matter how often the message is (re)delivered. Ids are never
// reused: `seq` is monotonic per origin and 0 is reserved as invalid.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

namespace adtc {

struct DeploymentId {
  /// 0 = the TCSP; any other issuer carries a hash of its name.
  std::uint64_t origin = 0;
  /// Monotonic per origin; 0 = "no id" (dedup disabled for this spec).
  std::uint64_t seq = 0;

  bool valid() const { return seq != 0; }
  bool operator==(const DeploymentId&) const = default;
};

struct DeploymentIdHash {
  std::size_t operator()(const DeploymentId& id) const {
    std::uint64_t x = id.origin * 0x9e3779b97f4a7c15ull ^ id.seq;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// FNV-1a of an origin name — how a non-TCSP issuer derives its origin.
inline std::uint64_t DeploymentOriginTag(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h | 1;  // never collides with the TCSP's origin 0
}

}  // namespace adtc
