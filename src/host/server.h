// Request/reply server with an explicit resource model.
//
// Any instance doubles as a potential DDoS reflector (Sec. 2.2): it answers
// TCP SYNs with SYN-ACKs, other TCP segments with RSTs, UDP service
// requests with (possibly larger) replies, and ICMP echo with echo replies
// — to whatever source address the request claims, which is exactly the
// reflector mechanism.
//
// Two resources can be exhausted independently of the uplink:
//  * CPU: a token bucket of requests/s — models "an attacked server's
//    resources are exhausted before its uplink is overloaded" (Sec. 3.1).
//  * Connection table: half-open SYN entries held until ACK or timeout —
//    the classic SYN-flood target.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/ring_queue.h"
#include "host/host.h"

namespace adtc {

struct ServerConfig {
  /// Sustained request-processing capacity (requests/s) and burst size.
  double cpu_capacity_rps = 20000.0;
  double cpu_burst = 2000.0;
  /// Half-open connection slots and their timeout. The timeout is read
  /// once, at construction (the expiry queue relies on it being fixed).
  std::uint32_t conn_table_size = 8192;
  SimDuration syn_timeout = Seconds(3);
  /// Bytes of a UDP service reply (>= request size models amplification,
  /// e.g. small DNS query -> large answer).
  std::uint32_t udp_reply_bytes = 512;
  std::uint16_t service_port = 80;
  /// Reply to unexpected TCP segments with RST (reflector vector).
  bool rst_on_unknown_tcp = true;
};

struct ServerStats {
  std::uint64_t requests_received = 0;
  std::uint64_t legit_requests_received = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t denied_cpu = 0;          // dropped: out of CPU tokens
  std::uint64_t legit_denied_cpu = 0;
  std::uint64_t denied_conn_table = 0;   // dropped: SYN table full
  std::uint64_t legit_denied_conn = 0;
  std::uint64_t half_open_timeouts = 0;
  std::uint64_t handshakes_completed = 0;
  std::uint64_t rsts_sent = 0;
};

class Server : public Host {
 public:
  explicit Server(ServerConfig config = {});

  void HandlePacket(Packet&& packet) override;

  const ServerStats& stats() const { return stats_; }
  ServerConfig& config() { return config_; }
  std::size_t half_open_count() const { return half_open_.size(); }

  /// Current CPU headroom in [0, 1]: fraction of the burst bucket that is
  /// full. The last-hop-filter experiment (E5) uses this to model whether
  /// the victim can still push filter rules while under attack.
  double CpuHeadroom();

 private:
  void RefillCpu();
  bool ConsumeCpuToken();
  void ReplyTo(const Packet& request, Packet reply);

  ServerConfig config_;
  const SimDuration syn_timeout_;
  ServerStats stats_;
  double cpu_tokens_;
  SimTime cpu_refill_at_ = 0;

  // Half-open connections keyed by (src addr, src port).
  struct HalfOpen {
    SimTime expires_at;
  };
  std::unordered_map<std::uint64_t, HalfOpen> half_open_;
  /// One (expires_at, key) per insert or refresh of `half_open_`, in
  /// expiry order (the timeout is fixed). An entry whose key was since
  /// ACKed or refreshed no longer matches the map and is skipped when it
  /// comes due; the queue holds at most the SYNs of one timeout period.
  struct Expiry {
    SimTime expires_at;
    std::uint64_t key;
  };
  RingQueue<Expiry> expiries_;
};

}  // namespace adtc
