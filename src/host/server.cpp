#include "host/server.h"

#include <algorithm>

namespace adtc {
namespace {

std::uint64_t ConnKey(Ipv4Address addr, std::uint16_t port) {
  return (static_cast<std::uint64_t>(addr.bits()) << 16) | port;
}

/// A reply elicited by attack traffic is reflected collateral; replies to
/// legitimate requests stay legitimate. This is ground-truth bookkeeping
/// only — the server itself cannot tell the classes apart.
TrafficClass ReplyClass(const Packet& request) {
  switch (request.klass) {
    case TrafficClass::kAttack:
    case TrafficClass::kReflected:
      return TrafficClass::kReflected;
    default:
      return request.klass;
  }
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(config),
      syn_timeout_(config.syn_timeout),
      cpu_tokens_(config.cpu_burst) {}

void Server::RefillCpu() {
  const SimTime now = Now();
  if (cpu_refill_at_ == 0) cpu_refill_at_ = now;
  const double elapsed_s = ToSeconds(now - cpu_refill_at_);
  cpu_tokens_ = std::min(config_.cpu_burst,
                         cpu_tokens_ + elapsed_s * config_.cpu_capacity_rps);
  cpu_refill_at_ = now;
}

bool Server::ConsumeCpuToken() {
  RefillCpu();
  if (cpu_tokens_ < 1.0) return false;
  cpu_tokens_ -= 1.0;
  return true;
}

double Server::CpuHeadroom() {
  RefillCpu();
  return config_.cpu_burst > 0 ? cpu_tokens_ / config_.cpu_burst : 0.0;
}

void Server::ReplyTo(const Packet& request, Packet reply) {
  reply.src = address();
  reply.dst = request.src;  // reflects to whatever the request claimed
  reply.klass = ReplyClass(request);
  reply.in_reply_to = request.serial;
  reply.spoofed_src = false;
  stats_.replies_sent++;
  SendPacket(std::move(reply));
}

void Server::HandlePacket(Packet&& packet) {
  stats_.requests_received++;
  const bool legit = packet.klass == TrafficClass::kLegitimate;
  if (legit) stats_.legit_requests_received++;

  // Every received packet costs CPU, service or not: parsing load is the
  // resource floods exhaust.
  if (!ConsumeCpuToken()) {
    stats_.denied_cpu++;
    if (legit) stats_.legit_denied_cpu++;
    net().metrics_cell().RecordDrop(packet, DropReason::kHostOverload);
    return;
  }

  switch (packet.proto) {
    case Protocol::kTcp: {
      if (packet.tcp_flags & tcp::kRst) {
        // RST segments are terminal: never answered (RFC 793) — this is
        // what keeps RST floods from ping-ponging between stacks.
        break;
      }
      if ((packet.tcp_flags & (tcp::kSyn | tcp::kAck)) ==
          (tcp::kSyn | tcp::kAck)) {
        // Unexpected SYN-ACK (e.g. reflected backscatter): answer RST,
        // as a real stack would for a connection it never initiated.
        if (config_.rst_on_unknown_tcp) {
          Packet rst;
          rst.proto = Protocol::kTcp;
          rst.tcp_flags = tcp::kRst;
          rst.size_bytes = 40;
          rst.src_port = packet.dst_port;
          rst.dst_port = packet.src_port;
          stats_.rsts_sent++;
          ReplyTo(packet, std::move(rst));
        }
        break;
      }
      if (packet.tcp_flags & tcp::kSyn) {
        // Expire stale half-open entries lazily, oldest first. An entry
        // since ACKed or refreshed no longer matches the map: skip it.
        const SimTime now = Now();
        while (!expiries_.empty() && expiries_.front().expires_at <= now) {
          const Expiry due = expiries_.front();
          expiries_.pop_front();
          const auto it = half_open_.find(due.key);
          if (it != half_open_.end() &&
              it->second.expires_at == due.expires_at) {
            half_open_.erase(it);
            stats_.half_open_timeouts++;
          }
        }
        if (half_open_.size() >= config_.conn_table_size) {
          stats_.denied_conn_table++;
          if (legit) stats_.legit_denied_conn++;
          net().metrics_cell().RecordDrop(packet, DropReason::kHostOverload);
          return;
        }
        const std::uint64_t key = ConnKey(packet.src, packet.src_port);
        const SimTime expires_at = now + syn_timeout_;
        half_open_[key] = HalfOpen{expires_at};
        expiries_.push_back(Expiry{expires_at, key});
        Packet synack;
        synack.proto = Protocol::kTcp;
        synack.tcp_flags = tcp::kSyn | tcp::kAck;
        synack.size_bytes = 40;
        synack.src_port = packet.dst_port;
        synack.dst_port = packet.src_port;
        ReplyTo(packet, std::move(synack));
      } else if (packet.tcp_flags & tcp::kAck) {
        // Handshake completion frees the half-open slot.
        if (half_open_.erase(ConnKey(packet.src, packet.src_port)) > 0) {
          stats_.handshakes_completed++;
        }
      } else if (config_.rst_on_unknown_tcp) {
        Packet rst;
        rst.proto = Protocol::kTcp;
        rst.tcp_flags = tcp::kRst;
        rst.size_bytes = 40;
        rst.src_port = packet.dst_port;
        rst.dst_port = packet.src_port;
        stats_.rsts_sent++;
        ReplyTo(packet, std::move(rst));
      }
      break;
    }
    case Protocol::kUdp: {
      if (packet.dst_port == config_.service_port) {
        Packet reply;
        reply.proto = Protocol::kUdp;
        reply.size_bytes = config_.udp_reply_bytes;
        reply.src_port = config_.service_port;
        reply.dst_port = packet.src_port;
        ReplyTo(packet, std::move(reply));
      }
      break;
    }
    case Protocol::kIcmp: {
      if (packet.icmp == IcmpType::kEchoRequest) {
        Packet reply;
        reply.proto = Protocol::kIcmp;
        reply.icmp = IcmpType::kEchoReply;
        reply.size_bytes = packet.size_bytes;
        ReplyTo(packet, std::move(reply));
      }
      break;
    }
  }
}

}  // namespace adtc
