// Unidirectional link model: fixed rate, propagation delay and a drop-tail
// byte buffer. Serialisation is modelled exactly (busy-until bookkeeping),
// so a flooded uplink exhibits queueing delay growth followed by loss —
// the congestion behaviour DDoS experiments depend on.
#pragma once

#include <cstdint>

#include "common/ring_queue.h"
#include "common/types.h"
#include "common/units.h"
#include "net/packet.h"

namespace adtc {

/// Business relationship of a link, viewed in its transmission direction.
/// The *receiving* router uses this to classify where a packet came from
/// (e.g. ingress filtering and the anti-spoof module act only on traffic
/// arriving from customer/access edges, never on transit traffic).
enum class LinkKind : std::uint8_t {
  kCustomerToProvider,  // stub/customer AS -> its provider
  kProviderToCustomer,  // provider -> customer AS
  kPeer,                // settlement-free peering between transit ASes
  kAccessUp,            // end host -> its first-hop router
  kAccessDown,          // first-hop router -> end host
};

std::string_view LinkKindName(LinkKind kind);

/// True for the two edge kinds on which traffic *enters* the Internet
/// (direct hosts, customer ASes). This classification feeds both the
/// anti-spoof rules and the device context's arrival edge: a flow's
/// treatment may legitimately differ by arrival-edge kind.
inline constexpr bool IsCustomerEdgeKind(LinkKind kind) {
  return kind == LinkKind::kAccessUp || kind == LinkKind::kCustomerToProvider;
}

struct LinkParams {
  BitRate rate = MegabitsPerSecond(100);
  SimDuration delay = Milliseconds(5);
  /// Drop-tail buffer in bytes (content waiting for or in serialisation).
  std::int64_t buffer_bytes = 256 * 1024;
};

/// One endpoint of a link: a router node or an attached host.
struct LinkTarget {
  bool is_host = false;
  std::uint32_t id = kInvalidNode;  // NodeId or HostId depending on is_host

  static LinkTarget Node(NodeId node) { return {false, node}; }
  static LinkTarget Host(HostId host) { return {true, host}; }
};

struct LinkStats {
  /// Packets that entered the transmitter, and packets refused at this
  /// link (queue overflow or an injected loss or flap). Why a packet was
  /// refused is recorded only in the world's Metrics cells.
  std::uint64_t forwarded_packets = 0;
  std::uint64_t dropped_packets = 0;
  /// Total time the transmitter was serialising (utilisation numerator).
  SimDuration busy_time = 0;

  double Utilisation(SimDuration elapsed) const {
    return elapsed > 0 ? static_cast<double>(busy_time) /
                             static_cast<double>(elapsed)
                       : 0.0;
  }
};

/// A packet the transmitter accepted: it occupies the buffer until its
/// serialisation finishes. `seq` is the sequence number the sending
/// shard's engine reserved for that instant (see Network::LinkSend).
struct InTransmission {
  SimTime finish;
  std::uint64_t seq;
  std::uint32_t size_bytes;
};

/// Link state. Owned by Network; all behaviour lives in Network so the
/// hot path stays branch-light and free of virtual dispatch.
struct Link {
  LinkTarget from;
  LinkTarget to;
  LinkKind kind = LinkKind::kPeer;
  LinkParams params;

  SimTime busy_until = 0;   // when the transmitter frees up
  /// Bytes of `in_transmission`; both are drained lazily, on the next
  /// send, and are exact only inside Network::LinkSend.
  std::int64_t queued_bytes = 0;
  RingQueue<InTransmission> in_transmission;
  LinkStats stats;
};

}  // namespace adtc
