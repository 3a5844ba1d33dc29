#include "core/component.h"

#include "net/network.h"

namespace adtc {

std::uint64_t DeviceContext::RouterForwardedPackets() const {
  if (net == nullptr || node == kInvalidNode) return 0;
  // Every packet the router forwards is offered to exactly one of its
  // outgoing links, which either transmits or refuses it.
  std::uint64_t offered = 0;
  for (const auto& [neighbour, link] : net->node(node).neighbours) {
    (void)neighbour;
    offered += net->link(link).stats.forwarded_packets +
               net->link(link).stats.dropped_packets;
  }
  return offered;
}

double DeviceContext::RouterDropShare() const {
  if (net == nullptr || node == kInvalidNode) return 0.0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  for (const auto& [neighbour, link] : net->node(node).neighbours) {
    (void)neighbour;
    forwarded += net->link(link).stats.forwarded_packets;
    dropped += net->link(link).stats.dropped_packets;
  }
  const std::uint64_t total = forwarded + dropped;
  return total > 0 ? static_cast<double>(dropped) /
                         static_cast<double>(total)
                   : 0.0;
}

}  // namespace adtc
