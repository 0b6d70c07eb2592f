// InfiniBand connection manager (CM) over the well-known CM queue pair:
// ConnectRequest -> ConnectReply -> ReadyToUse handshake with piggybacked
// private data (paper §II-A "Connection handshake", §IV-A).
//
// Besides binding real QueuePairs, the agent supports *virtual* endpoints —
// connections advertised with caller-chosen QPN/PSN and no backing QP. This
// is exactly what the P4CE switch control plane does: it crafts CM packets
// for connections whose data-path half is implemented by match-action tables
// rather than by a NIC queue pair.
#pragma once

#include <functional>
#include <unordered_map>

#include "common/status.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "net/packet.hpp"
#include "rdma/headers.hpp"
#include "rdma/qp.hpp"
#include "sim/simulator.hpp"

namespace p4ce::rdma {

class PacketIo;

class CmAgent {
 public:
  /// What a successful active-side connect returns.
  struct ConnectResult {
    Ipv4Addr remote_ip = 0;
    Qpn remote_qpn = 0;
    Psn remote_start_psn = 0;
    Bytes private_data;  ///< private data from the ConnectReply
  };
  using ConnectCallback = std::function<void(StatusOr<ConnectResult>)>;

  /// What a listener decides about an incoming ConnectRequest.
  struct AcceptDecision {
    bool accept = false;
    u8 reject_reason = 0;
    /// Real QP to bind (server side); the agent connects it to the
    /// requester and advertises its QPN. Null for virtual endpoints.
    QueuePair* qp = nullptr;
    /// Advertised endpoint when qp == nullptr (virtual accept).
    Qpn virtual_qpn = 0;
    Psn virtual_start_psn = 0;
    Bytes private_data;  ///< piggybacked on the ConnectReply
    /// Invoked when the requester's ReadyToUse arrives.
    std::function<void()> on_established;
  };
  using AcceptHandler = std::function<AcceptDecision(const CmMessage& request, Ipv4Addr from)>;

  /// `io` provides packet transmission and local addressing; owned elsewhere
  /// (the NIC, or the switch control plane's CPU port shim).
  explicit CmAgent(PacketIo& io);

  /// Register a listener for a service id. One handler per service.
  void listen(u16 service_id, AcceptHandler handler);
  void unlisten(u16 service_id);

  /// Actively connect `qp` to the listener for `service_id` at `dst`.
  void connect(Ipv4Addr dst, u16 service_id, QueuePair& qp, Bytes private_data,
               ConnectCallback cb, Duration timeout = 10'000'000 /*10 ms*/);

  /// Actively connect a *virtual* endpoint: the remote side will believe it
  /// is talking to queue pair `advertised_qpn` whose requests start at
  /// `advertised_psn`. Used by the P4CE control plane (§IV-A).
  void connect_virtual(Ipv4Addr dst, u16 service_id, Qpn advertised_qpn, Psn advertised_psn,
                       Bytes private_data, ConnectCallback cb,
                       Duration timeout = 10'000'000);

  /// Handle an inbound CM packet (dest QP == kCmQpn).
  void handle(const net::Packet& packet);

 private:
  struct PendingConnect {
    ConnectCallback cb;
    QueuePair* qp = nullptr;  // null for virtual connects
    Psn our_start_psn = 0;
    sim::EventHandle timeout;
  };
  struct HalfOpen {
    std::function<void()> on_established;
  };

  void send_cm(Ipv4Addr dst, CmMessage msg);
  Psn pick_psn() noexcept { return psn_seed_ = (psn_seed_ * 1103515245u + 12345u) & kPsnMask; }

  PacketIo& io_;
  std::unordered_map<u16, AcceptHandler> listeners_;
  std::unordered_map<u32, PendingConnect> pending_;   // by transaction id
  std::unordered_map<u32, HalfOpen> half_open_;       // by transaction id
  u32 next_transaction_ = 1;
  Psn psn_seed_;
};

}  // namespace p4ce::rdma
