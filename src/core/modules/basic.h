// Small firewall-flavoured modules: source blacklisting and payload
// deletion (both named in Sec. 4.2's module list).
#pragma once

#include <cstdint>
#include <unordered_set>

#include "core/component.h"
#include "net/prefix_trie.h"

namespace adtc {

/// "source IP blacklisting": port 1 for packets whose source is on the
/// list. Entries can be exact hosts or whole prefixes.
class BlacklistModule : public Module {
 public:
  void Add(const Prefix& prefix) { listed_.Insert(prefix, true); }
  void Add(Ipv4Address addr) { Add(Prefix::Host(addr)); }
  bool Remove(const Prefix& prefix) { return listed_.Erase(prefix); }
  std::size_t size() const { return listed_.size(); }

  int OnPacket(Packet& packet, const DeviceContext& ctx) override {
    (void)ctx;
    if (listed_.ContainsAddress(packet.src)) {
      hits_++;
      return kPortAlt;
    }
    return kPortDefault;
  }
  std::string_view type_name() const override { return "blacklist"; }
  int port_count() const override { return 2; }
  DatapathDropReason drop_reason() const override {
    return DatapathDropReason::kBlacklist;
  }
  /// Pass-or-branch, no writes, no duplication, no overhead.
  analysis::EffectSignature effect_signature() const override {
    analysis::EffectSignature sig;
    sig.stateful = false;
    return sig;
  }

  std::uint64_t hits() const { return hits_; }

 private:
  PrefixTrie<bool> listed_;
  std::uint64_t hits_ = 0;
};

/// "payload deletion": strips the payload, leaving the header skeleton.
/// Size only ever shrinks (the amplification-safety direction of
/// Sec. 4.5); addresses and TTL are untouched.
class PayloadDeleteModule : public Module {
 public:
  explicit PayloadDeleteModule(std::uint32_t header_bytes = 40)
      : header_bytes_(header_bytes) {}

  int OnPacket(Packet& packet, const DeviceContext& ctx) override {
    (void)ctx;
    if (packet.size_bytes > header_bytes_) {
      stripped_bytes_ += packet.size_bytes - header_bytes_;
      packet.size_bytes = header_bytes_;
      packet.payload_hash = 0;
    }
    return kPortDefault;
  }
  std::string_view type_name() const override { return "payload-delete"; }
  /// Only ever shrinks the packet: worst-case wire delta is 0, never
  /// positive, so no kSizeGrow header write is declared.
  analysis::EffectSignature effect_signature() const override {
    analysis::EffectSignature sig;
    sig.stateful = false;
    sig.wire_bytes_delta_max = 0;
    return sig;
  }

  std::uint64_t stripped_bytes() const { return stripped_bytes_; }

 private:
  std::uint32_t header_bytes_;
  std::uint64_t stripped_bytes_ = 0;
};

/// Pure counter pass-through (cheap observability primitive).
class CounterModule : public Module {
 public:
  int OnPacket(Packet& packet, const DeviceContext& ctx) override {
    (void)ctx;
    packets_++;
    bytes_ += packet.size_bytes;
    return kPortDefault;
  }
  std::string_view type_name() const override { return "counter"; }
  /// Keeps cross-packet totals but emits nothing and mutates nothing.
  analysis::EffectSignature effect_signature() const override {
    analysis::EffectSignature sig;
    sig.stateful = true;
    return sig;
  }

  std::uint64_t packets() const { return packets_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace adtc
