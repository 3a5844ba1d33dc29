// Router node state and the packet-processor extension point.
//
// A router is deliberately dumb (Sec. 5.2 of the paper: "legacy Internet
// router with basic filtering and redirection mechanisms"): TTL handling,
// FIB forwarding, and an ordered chain of PacketProcessors. The adaptive
// device, ingress filters, pushback rate limiters etc. all attach through
// the same PacketProcessor interface.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "net/link.h"
#include "net/packet.h"

namespace adtc {

class Network;

/// Autonomous-system role. Peripheral (stub) ASes host customers; transit
/// ASes carry third-party traffic — the distinction the paper's anti-spoof
/// module must be aware of (Sec. 4.2).
enum class NodeRole : std::uint8_t { kTransit, kStub };

/// What a processor decides about a packet.
enum class Verdict : std::uint8_t { kForward, kDrop };

/// Context handed to processors along with the packet (or batch). All
/// packets of one batch share a context: same router, same arrival link,
/// same instant.
struct RouterContext {
  Network* net = nullptr;
  NodeId node = kInvalidNode;
  NodeRole role = NodeRole::kStub;
  LinkId in_link = kInvalidLink;
  /// Kind of the link the packet arrived on; kAccessUp means it came from
  /// a directly attached host of this router's AS.
  LinkKind in_kind = LinkKind::kPeer;
  SimTime now = 0;
};

/// A run of packets traversing a router pipeline together. Processors
/// consume the batch in place: dropping a packet masks it out so later
/// processors in the chain never see it. Storage is non-owning — the
/// packets outlive the batch — and the common single-packet case stays
/// allocation-free via inline slots.
class PacketBatch {
 public:
  PacketBatch() = default;

  void Add(Packet& packet) {
    if (count_ < kInlineSlots) {
      inline_[count_] = &packet;
    } else {
      overflow_.push_back(&packet);
    }
    dropped_mask_.reset_bit(count_);
    ++count_;
    ++alive_;
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Packets not yet dropped by an earlier processor.
  std::size_t alive_count() const { return alive_; }

  Packet& packet(std::size_t i) {
    return i < kInlineSlots ? *inline_[i] : *overflow_[i - kInlineSlots];
  }
  const Packet& packet(std::size_t i) const {
    return i < kInlineSlots ? *inline_[i] : *overflow_[i - kInlineSlots];
  }

  bool alive(std::size_t i) const { return !dropped_mask_.bit(i); }
  void Drop(std::size_t i) {
    if (!dropped_mask_.bit(i)) {
      dropped_mask_.set_bit(i);
      --alive_;
    }
  }

  void Clear() {
    count_ = 0;
    alive_ = 0;
    overflow_.clear();
    dropped_mask_.clear();
  }

 private:
  static constexpr std::size_t kInlineSlots = 8;

  /// Growable bitset with inline storage for the first 64 slots.
  struct DropMask {
    std::uint64_t inline_bits = 0;
    std::vector<std::uint64_t> overflow;

    bool bit(std::size_t i) const {
      if (i < 64) return (inline_bits >> i) & 1u;
      const std::size_t word = i / 64 - 1;
      return word < overflow.size() && ((overflow[word] >> (i % 64)) & 1u);
    }
    void set_bit(std::size_t i) {
      if (i < 64) {
        inline_bits |= std::uint64_t{1} << i;
        return;
      }
      const std::size_t word = i / 64 - 1;
      if (overflow.size() <= word) overflow.resize(word + 1, 0);
      overflow[word] |= std::uint64_t{1} << (i % 64);
    }
    void reset_bit(std::size_t i) {
      if (i < 64) {
        inline_bits &= ~(std::uint64_t{1} << i);
        return;
      }
      const std::size_t word = i / 64 - 1;
      if (word < overflow.size()) {
        overflow[word] &= ~(std::uint64_t{1} << (i % 64));
      }
    }
    void clear() {
      inline_bits = 0;
      overflow.clear();
    }
  };

  std::size_t count_ = 0;
  std::size_t alive_ = 0;
  Packet* inline_[kInlineSlots] = {};
  std::vector<Packet*> overflow_;
  DropMask dropped_mask_;
};

/// Inline packet-path extension. Implementations must be side-effect-safe:
/// mutating wire fields is allowed only within the constraints enforced by
/// the core safety validator (never src/dst/TTL for TCS modules).
///
/// The router drives the *batch* entry point; `Process` is the per-packet
/// workhorse most processors implement. Override `ProcessBatch` to
/// amortise per-packet costs (table lookups) across a batch — the default simply loops `Process` over the alive packets, so
/// every existing processor keeps working unchanged.
class PacketProcessor {
 public:
  virtual ~PacketProcessor() = default;
  virtual Verdict Process(Packet& packet, const RouterContext& ctx) = 0;
  virtual void ProcessBatch(PacketBatch& batch, const RouterContext& ctx) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch.alive(i)) continue;
      if (Process(batch.packet(i), ctx) == Verdict::kDrop) batch.Drop(i);
    }
  }
  virtual std::string_view name() const = 0;
};

/// Router node. Owned by Network.
struct Node {
  NodeRole role = NodeRole::kStub;
  /// The simulation shard this router (its links' sending sides, its
  /// processors, its attached hosts) executes on. Assigned at AddNode
  /// time and immutable afterwards — shard affinity is a construction
  /// decision (docs/sharding.md).
  ShardId shard = 0;
  /// Outgoing links keyed by neighbour node (adjacency order = insertion
  /// order; BFS tie-breaking depends on it, keep deterministic).
  std::vector<std::pair<NodeId, LinkId>> neighbours;
  /// Inline processors, run in attach order on every transiting packet.
  std::vector<PacketProcessor*> processors;
  /// Hosts attached here, by address slot (slot-1 indexes this vector).
  std::vector<HostId> host_slots;
  /// Simple token bucket limiting ICMP error generation.
  double icmp_tokens = 10.0;
  SimTime icmp_refill_at = 0;
  /// Per-node serial space for router-originated packets (ICMP errors,
  /// service traffic injected here): keeps packet identities independent
  /// of cross-shard event interleaving.
  std::uint64_t next_serial = 0;
};

}  // namespace adtc
