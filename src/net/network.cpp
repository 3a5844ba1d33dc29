#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace adtc {

std::string_view LinkKindName(LinkKind kind) {
  switch (kind) {
    case LinkKind::kCustomerToProvider: return "cust->prov";
    case LinkKind::kProviderToCustomer: return "prov->cust";
    case LinkKind::kPeer: return "peer";
    case LinkKind::kAccessUp: return "access-up";
    case LinkKind::kAccessDown: return "access-down";
  }
  return "?";
}

std::string_view DropReasonName(DropReason reason) {
  switch (reason) {
    case DropReason::kQueueFull: return "queue_full";
    case DropReason::kTtlExpired: return "ttl_expired";
    case DropReason::kFiltered: return "filtered";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kNoHost: return "no_host";
    case DropReason::kHostDown: return "host_down";
    case DropReason::kHostOverload: return "host_overload";
    case DropReason::kLinkFault: return "link_fault";
    case DropReason::kCount_: break;
  }
  return "?";
}

Network::Network(std::uint64_t seed, std::size_t num_shards)
    : engine_(num_shards, seed),
      rng_(seed),
      metrics_(engine_.shard_count()),
      telemetry_(*engine_.control().get()) {
  // Span timestamps must come from the executing shard's clock, not the
  // control shard's (which is mid-window stale on worker threads).
  telemetry_.tracer().SetClock([this] { return engine_.Now(); });
  // Publish the world's exact per-class ground-truth counters through the
  // registry, so the time-series sampler sees attack/mitigation dynamics
  // without any extra accounting on the datapath. Cells are relaxed
  // atomics; a mid-window readout may trail the hot path by up to one
  // epoch (exact at every barrier).
  telemetry_.registry().AddCollector(this, [this](
                                               obs::MetricsSnapshot& out) {
    // Counters-only merge: the collector runs mid-window on the control
    // shard while other shards write their cells, so it must not touch
    // the non-atomic SummaryStats cell (docs/sharding.md).
    Metrics merged;
    for (const Metrics& cell : metrics_) merged.MergeCounters(cell);
    for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
      const auto klass = static_cast<TrafficClass>(c);
      const std::string prefix =
          "net.class." + std::string(TrafficClassName(klass)) + ".";
      out.push_back({prefix + "sent",
                     static_cast<double>(merged.packets_sent[c])});
      out.push_back({prefix + "delivered",
                     static_cast<double>(merged.packets_delivered[c])});
      out.push_back(
          {prefix + "dropped", static_cast<double>(merged.dropped(klass))});
    }
    out.push_back({"net.attack_byte_hops",
                   static_cast<double>(merged.attack_byte_hops)});
    out.push_back({"net.legit_byte_hops",
                   static_cast<double>(merged.legit_byte_hops)});
    out.push_back({"sim.executed_events",
                   static_cast<double>(engine_.executed_events())});
    // Every drop in the world, by reason, from the same cells as the
    // per-class totals above (device drops refine "filtered" per policy
    // under device.as<node>.drops.*).
    for (std::size_t r = 0; r < kDropReasonCount; ++r) {
      std::uint64_t drops = 0;
      for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
        drops += merged.packets_dropped[c][r];
      }
      out.push_back({"net.drops." + std::string(DropReasonName(
                                        static_cast<DropReason>(r))),
                     static_cast<double>(drops)});
    }
  });
}

void Network::AttachFaultInjector(FaultInjector* injector) {
  assert((injector == nullptr || engine_.shard_count() == 1) &&
         "data-plane fault injection is single-shard-only (the injector's "
         "RNG stream is unsynchronised)");
  injector_ = injector;
}

Metrics Network::metrics() const {
  Metrics merged = metrics_[0];
  for (std::size_t s = 1; s < metrics_.size(); ++s) {
    merged.Merge(metrics_[s]);
  }
  return merged;
}

NodeId Network::AddNode(NodeRole role, ShardId shard) {
  assert(!routing_built_ && "topology is frozen after FinalizeRouting()");
  assert(shard < engine_.shard_count() && "shard out of range");
  const auto id = static_cast<NodeId>(nodes_.size());
  Node node;
  node.role = role;
  node.shard = shard;
  nodes_.push_back(std::move(node));
  return id;
}

std::pair<LinkId, LinkId> Network::Connect(NodeId a, NodeId b,
                                           const LinkParams& params,
                                           LinkKind kind_ab) {
  assert(a < nodes_.size() && b < nodes_.size() && a != b);
  LinkKind kind_ba;
  switch (kind_ab) {
    case LinkKind::kCustomerToProvider:
      kind_ba = LinkKind::kProviderToCustomer;
      break;
    case LinkKind::kProviderToCustomer:
      kind_ba = LinkKind::kCustomerToProvider;
      break;
    default:
      kind_ba = LinkKind::kPeer;
      break;
  }

  const auto ab = static_cast<LinkId>(links_.size());
  links_.push_back(Link{LinkTarget::Node(a), LinkTarget::Node(b), kind_ab,
                        params, 0, 0, {}, {}});
  const auto ba = static_cast<LinkId>(links_.size());
  links_.push_back(Link{LinkTarget::Node(b), LinkTarget::Node(a), kind_ba,
                        params, 0, 0, {}, {}});

  nodes_[a].neighbours.emplace_back(b, ab);
  nodes_[b].neighbours.emplace_back(a, ba);
  return {ab, ba};
}

HostId Network::AttachEndpoint(std::unique_ptr<Endpoint> endpoint,
                               NodeId node, const LinkParams& access,
                               ShardId shard) {
  assert(node < nodes_.size());
  Node& router = nodes_[node];
  assert((shard == kInvalidShard || shard == router.shard) &&
         "endpoints live on their access router's shard");
  (void)shard;
  assert(router.host_slots.size() < kHostsPerNode &&
         "address space under this node exhausted");

  const auto host_id = static_cast<HostId>(hosts_.size());
  const auto slot = static_cast<std::uint32_t>(router.host_slots.size() + 1);

  const auto up = static_cast<LinkId>(links_.size());
  links_.push_back(Link{LinkTarget::Host(host_id), LinkTarget::Node(node),
                        LinkKind::kAccessUp, access, 0, 0, {}, {}});
  const auto down = static_cast<LinkId>(links_.size());
  links_.push_back(Link{LinkTarget::Node(node), LinkTarget::Host(host_id),
                        LinkKind::kAccessDown, access, 0, 0, {}, {}});

  HostRecord record;
  record.endpoint = std::move(endpoint);
  record.node = node;
  record.slot = slot;
  record.address = HostAddress(node, slot);
  record.uplink = up;
  record.downlink = down;
  hosts_.push_back(std::move(record));
  router.host_slots.push_back(host_id);

  hosts_.back().endpoint->Bind(*this, host_id);
  hosts_.back().endpoint->OnAttached();
  return host_id;
}

void Network::FinalizeRouting() {
  if (routing_built_) return;
  const std::size_t n = nodes_.size();
  next_hop_.assign(n * n, kInvalidNode);
  distance_.assign(n * n, UINT32_MAX);

  // One BFS per destination over the (undirected) router adjacency.
  // next_hop_[from * n + dest] = neighbour of `from` on a shortest path.
  std::deque<NodeId> queue;
  for (NodeId dest = 0; dest < n; ++dest) {
    const std::size_t base_dest = static_cast<std::size_t>(dest);
    distance_[dest * n + base_dest] = 0;
    next_hop_[dest * n + base_dest] = dest;
    queue.clear();
    queue.push_back(dest);
    while (!queue.empty()) {
      const NodeId at = queue.front();
      queue.pop_front();
      const std::uint32_t dist_at = distance_[at * n + dest];
      for (const auto& [neighbour, link] : nodes_[at].neighbours) {
        (void)link;
        std::uint32_t& dist_nb = distance_[neighbour * n + dest];
        if (dist_nb != UINT32_MAX) continue;
        dist_nb = dist_at + 1;
        // The neighbour reaches `dest` via `at`.
        next_hop_[neighbour * n + dest] = at;
        queue.push_back(neighbour);
      }
    }
  }
  routing_built_ = true;

  // Conservative lookahead: the epoch is the smallest propagation delay
  // of any link whose two sides live on different shards. Events cannot
  // cross shards faster than that, so the engine may run each shard one
  // epoch ahead without ever missing an arrival (docs/sharding.md).
  SimDuration min_cross = kSimTimeMax;
  for (const Link& link : links_) {
    if (ShardOf(link.from) == ShardOf(link.to)) continue;
    min_cross = std::min(min_cross, link.params.delay);
  }
  if (min_cross != kSimTimeMax) engine_.SetEpoch(min_cross);
}

ShardId Network::ShardOf(const LinkTarget& target) const {
  return target.is_host ? nodes_[hosts_[target.id].node].shard
                        : nodes_[target.id].shard;
}

void Network::AddProcessor(NodeId node, PacketProcessor* processor) {
  assert(node < nodes_.size() && processor != nullptr);
  nodes_[node].processors.push_back(processor);
}

void Network::RemoveProcessor(NodeId node, PacketProcessor* processor) {
  auto& chain = nodes_[node].processors;
  chain.erase(std::remove(chain.begin(), chain.end(), processor),
              chain.end());
}

HostId Network::HostAt(NodeId node, std::uint32_t slot) const {
  if (node >= nodes_.size()) return kInvalidHost;
  const auto& slots = nodes_[node].host_slots;
  if (slot == 0 || slot > slots.size()) return kInvalidHost;
  return slots[slot - 1];
}

HostId Network::HostByAddress(Ipv4Address addr) const {
  return HostAt(AddressNode(addr), AddressSlot(addr));
}

std::uint32_t Network::HopDistance(NodeId a, NodeId b) const {
  assert(routing_built_);
  if (a >= nodes_.size() || b >= nodes_.size()) return UINT32_MAX;
  return distance_[static_cast<std::size_t>(a) * nodes_.size() + b];
}

NodeId Network::NextHop(NodeId from, NodeId to) const {
  assert(routing_built_);
  if (from >= nodes_.size() || to >= nodes_.size()) return kInvalidNode;
  return next_hop_[static_cast<std::size_t>(from) * nodes_.size() + to];
}

std::vector<NodeId> Network::PathBetween(NodeId a, NodeId b) const {
  std::vector<NodeId> path;
  if (HopDistance(a, b) == UINT32_MAX) return path;
  NodeId at = a;
  path.push_back(at);
  while (at != b) {
    at = NextHop(at, b);
    if (at == kInvalidNode) return {};
    path.push_back(at);
  }
  return path;
}

PacketSerial Network::NextSerialFor(HostId host) {
  // Per-origin serial spaces: the high word tags the origin, the low word
  // counts its packets. Identities are unique world-wide yet independent
  // of how shards interleave — the determinism anchor for sharded runs.
  HostRecord& record = hosts_[host];
  return (static_cast<PacketSerial>(host) + 1) << 32 | ++record.next_serial;
}

PacketSerial Network::NextSerialForNode(NodeId node) {
  return (PacketSerial{1} << 63) |
         (static_cast<PacketSerial>(node) << 32) | ++nodes_[node].next_serial;
}

void Network::SendFromHost(HostId host, Packet packet) {
  assert(host < hosts_.size());
  const HostRecord& record = hosts_[host];
  // A sender may pre-stamp the serial (to correlate replies before the
  // packet leaves); in that case it has already recorded the send.
  if (packet.serial == 0) {
    packet.serial = NextSerialFor(host);
    packet.true_origin = host;
    packet.sent_at = Now();
    if (packet.payload_hash == 0) packet.payload_hash = packet.serial;
    metrics_cell().RecordSend(packet);
  }
  packet.hops = 0;
  LinkSend(record.uplink, std::move(packet));
}

void Network::InjectAtNode(NodeId node, Packet packet) {
  packet.serial = NextSerialForNode(node);
  packet.sent_at = Now();
  packet.hops = 0;
  if (packet.payload_hash == 0) packet.payload_hash = packet.serial;
  metrics_cell().RecordSend(packet);
  RouterReceive(node, kInvalidLink, std::move(packet));
}

void Network::LinkSend(LinkId link_id, Packet packet) {
  Link& link = links_[link_id];
  const SimTime now = Now();

  // Data-plane fault plan: flap windows and loss kill the packet before
  // it ever occupies the transmitter; corruption is decided here (on the
  // injector's own RNG stream) but charged at arrival, after the packet
  // consumed the link. Links without a plan consult no randomness.
  bool corrupted = false;
  if (injector_ != nullptr) {
    switch (injector_->PlanPacket(link_id, now)) {
      case PacketFate::kDeliver:
        break;
      case PacketFate::kLost:
      case PacketFate::kLinkDown:
        link.stats.dropped_packets++;
        metrics_cell().RecordDrop(packet, DropReason::kLinkFault);
        return;
      case PacketFate::kCorrupted:
        corrupted = true;
        break;
      case PacketFate::kCount_:
        break;
    }
  }

  // Drain lazily: a packet leaves the buffer when its serialisation
  // finishes. Each accepted packet reserved, on the sending shard's
  // engine, the sequence number a drain event posted at its `finish`
  // would have taken, so it has left exactly when such an event would
  // already have run (Simulator::HasRun): at `finish == now`, a send from
  // an event posted before that packet was accepted still sees it queued,
  // a send from a later-posted event does not. Link state is owned by the
  // sending side's shard, which is the shard executing this call.
  Simulator& sender = engine_.queue(ShardOf(link.from));
  while (!link.in_transmission.empty()) {
    const InTransmission& head = link.in_transmission.front();
    if (!sender.HasRun(head.finish, head.seq)) break;
    link.queued_bytes -= head.size_bytes;
    link.in_transmission.pop_front();
  }

  if (link.queued_bytes + packet.size_bytes >
      link.params.buffer_bytes) {
    link.stats.dropped_packets++;
    metrics_cell().RecordDrop(packet, DropReason::kQueueFull);
    if (drop_observer_) drop_observer_(packet, link_id);
    return;
  }

  const SimDuration tx = TransmissionDelay(packet.size_bytes,
                                           link.params.rate);
  const SimTime start = std::max(now, link.busy_until);
  const SimTime finish = start + tx;
  link.busy_until = finish;
  link.queued_bytes += packet.size_bytes;
  link.in_transmission.push_back(
      InTransmission{finish, sender.TakeSeq(), packet.size_bytes});
  link.stats.busy_time += tx;
  link.stats.forwarded_packets++;
  metrics_cell().RecordHop(packet);

  // The arrival executes on the receiving side's shard. For a cross-shard
  // link, delay >= epoch guarantees it lands beyond the current window
  // and crosses cleanly at the barrier.
  const SimTime arrive = finish + link.params.delay;
  if (corrupted) {
    // The frame used the wire but fails the receiver's CRC: drop it at
    // arrival time.
    engine_.shard(ShardOf(link.to))
        .Post(arrive, [this, p = std::move(packet)]() mutable {
          metrics_cell().RecordDrop(p, DropReason::kLinkFault);
        });
    return;
  }
  auto arrival = [this, link_id, p = std::move(packet)]() mutable {
    LinkArrive(link_id, std::move(p));
  };
  static_assert(Scheduler::Callback::kFitsInline<decltype(arrival)>,
                "the per-hop arrival event must not allocate");
  engine_.shard(ShardOf(link.to)).Post(arrive, std::move(arrival));
}

void Network::LinkArrive(LinkId link_id, Packet packet) {
  const Link& link = links_[link_id];
  if (link.to.is_host) {
    HostRecord& record = hosts_[link.to.id];
    if (!record.endpoint->IsUp()) {
      metrics_cell().RecordDrop(packet, DropReason::kHostDown);
      return;
    }
    metrics_cell().RecordDelivery(packet);
    record.endpoint->HandlePacket(std::move(packet));
    return;
  }
  RouterReceive(link.to.id, link_id, std::move(packet));
}

void Network::RouterReceive(NodeId node_id, LinkId in_link, Packet packet) {
  Node& node = nodes_[node_id];
  const bool local_dest = AddressNode(packet.dst) == node_id;

  // TTL is spent on every router traversal except final local delivery by
  // the first-hop router of the source (hops==0 means we're at the edge).
  if (!local_dest) {
    if (packet.ttl == 0) {
      metrics_cell().RecordDrop(packet, DropReason::kTtlExpired);
      MaybeSendIcmpError(node_id, packet, IcmpType::kTimeExceeded);
      return;
    }
    packet.ttl--;
  }
  packet.hops++;

  RouterContext ctx;
  ctx.net = this;
  ctx.node = node_id;
  ctx.role = node.role;
  ctx.in_link = in_link;
  ctx.in_kind = in_link == kInvalidLink ? LinkKind::kPeer
                                        : links_[in_link].kind;
  ctx.now = Now();

  // The processor chain consumes batches; link serialisation delivers one
  // packet per arrival event, so the router's batch is a batch of one
  // (stack-allocated, inline storage — no per-packet allocation). Benches
  // and future bulk-arrival paths hand larger batches to the same API.
  PacketBatch batch;
  batch.Add(packet);
  for (PacketProcessor* processor : node.processors) {
    processor->ProcessBatch(batch, ctx);
    if (batch.alive_count() == 0) {
      metrics_cell().RecordDrop(packet, DropReason::kFiltered);
      return;
    }
  }

  if (local_dest) {
    DeliverLocal(node_id, in_link, std::move(packet));
    return;
  }

  const NodeId dest_node = AddressNode(packet.dst);
  if (dest_node >= nodes_.size()) {
    metrics_cell().RecordDrop(packet, DropReason::kNoRoute);
    MaybeSendIcmpError(node_id, packet, IcmpType::kDestUnreachable);
    return;
  }
  const NodeId next = NextHop(node_id, dest_node);
  if (next == kInvalidNode) {
    metrics_cell().RecordDrop(packet, DropReason::kNoRoute);
    MaybeSendIcmpError(node_id, packet, IcmpType::kDestUnreachable);
    return;
  }
  // Find the out link toward `next`.
  for (const auto& [neighbour, link] : node.neighbours) {
    if (neighbour == next) {
      LinkSend(link, std::move(packet));
      return;
    }
  }
  metrics_cell().RecordDrop(packet, DropReason::kNoRoute);
}

void Network::DeliverLocal(NodeId node_id, LinkId /*in_link*/,
                           Packet packet) {
  const std::uint32_t slot = AddressSlot(packet.dst);
  const HostId host = HostAt(node_id, slot);
  if (host == kInvalidHost) {
    metrics_cell().RecordDrop(packet, DropReason::kNoHost);
    MaybeSendIcmpError(node_id, packet, IcmpType::kDestUnreachable);
    return;
  }
  LinkSend(hosts_[host].downlink, std::move(packet));
}

void Network::MaybeSendIcmpError(NodeId node_id, const Packet& cause,
                                 IcmpType type) {
  if (!icmp_errors_) return;
  // Never generate errors in response to ICMP errors (RFC 1122) — this is
  // also what prevents error loops in the simulation.
  if (cause.proto == Protocol::kIcmp &&
      (cause.icmp == IcmpType::kDestUnreachable ||
       cause.icmp == IcmpType::kTimeExceeded)) {
    return;
  }
  Node& node = nodes_[node_id];
  // Token bucket: 10 errors/s per router, burst 10.
  const SimTime now = Now();
  if (node.icmp_refill_at == 0) node.icmp_refill_at = now;
  const double refill =
      static_cast<double>(now - node.icmp_refill_at) / 1e9 * 10.0;
  node.icmp_tokens = std::min(10.0, node.icmp_tokens + refill);
  node.icmp_refill_at = now;
  if (node.icmp_tokens < 1.0) return;
  node.icmp_tokens -= 1.0;

  Packet error;
  error.src = RouterAddress(node_id);
  error.dst = cause.src;
  error.proto = Protocol::kIcmp;
  error.icmp = type;
  error.size_bytes = 56;  // ICMP error: header + leading bytes of cause
  error.ttl = 64;
  // An ICMP error elicited by attack traffic is reflected collateral; the
  // router itself is innocent (Sec. 2.2 lists routers as reflectors).
  error.klass = (cause.klass == TrafficClass::kAttack ||
                 cause.klass == TrafficClass::kReflected)
                    ? TrafficClass::kReflected
                    : cause.klass;
  error.true_origin = kInvalidHost;  // originated by infrastructure
  error.spoofed_src = false;
  error.in_reply_to = cause.serial;
  InjectAtNode(node_id, std::move(error));
}

}  // namespace adtc
