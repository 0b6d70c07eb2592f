#include "rdma/cm.hpp"

#include "rdma/nic.hpp"

namespace p4ce::rdma {

CmAgent::CmAgent(PacketIo& io) : io_(io) {
  // Seed the PSN generator from the local address so every agent picks
  // different starting PSNs (they are "randomly generated and different on
  // each server").
  psn_seed_ = (io_.ip() * 2654435761u) & kPsnMask;
  if (psn_seed_ == 0) psn_seed_ = 7;
}

void CmAgent::listen(u16 service_id, AcceptHandler handler) {
  listeners_[service_id] = std::move(handler);
}

void CmAgent::unlisten(u16 service_id) { listeners_.erase(service_id); }

void CmAgent::send_cm(Ipv4Addr dst, CmMessage msg) {
  net::Packet p;
  p.eth.src_mac = io_.mac();
  p.ip.src = io_.ip();
  p.ip.dst = dst;
  p.udp.src_port = 0x1b58;
  p.bth.opcode = Opcode::kSendOnly;
  p.bth.dest_qp = kCmQpn;
  p.cm = std::move(msg);
  io_.send_packet(std::move(p));
}

void CmAgent::connect(Ipv4Addr dst, u16 service_id, QueuePair& qp, Bytes private_data,
                      ConnectCallback cb, Duration timeout) {
  connect_virtual(dst, service_id, qp.qpn(), pick_psn(), std::move(private_data), std::move(cb),
                  timeout);
  pending_[next_transaction_ - 1].qp = &qp;
}

void CmAgent::connect_virtual(Ipv4Addr dst, u16 service_id, Qpn advertised_qpn,
                              Psn advertised_psn, Bytes private_data, ConnectCallback cb,
                              Duration timeout) {
  const u32 tid = next_transaction_++;
  CmMessage req;
  req.type = CmType::kConnectRequest;
  req.transaction_id = tid;
  req.sender_qpn = advertised_qpn;
  req.starting_psn = advertised_psn;
  req.service_id = service_id;
  req.private_data = std::move(private_data);

  PendingConnect pend;
  pend.cb = std::move(cb);
  pend.qp = nullptr;
  pend.our_start_psn = advertised_psn;
  pend.timeout = io_.simulator().schedule(timeout, [this, tid] {
    auto it = pending_.find(tid);
    if (it == pending_.end()) return;
    auto cb = std::move(it->second.cb);
    pending_.erase(it);
    cb(error(StatusCode::kUnavailable, "CM connect timed out"));
  });
  pending_.emplace(tid, std::move(pend));
  send_cm(dst, std::move(req));
}

void CmAgent::handle(const net::Packet& packet) {
  if (!packet.cm) return;
  const CmMessage& msg = *packet.cm;

  switch (msg.type) {
    case CmType::kConnectRequest: {
      auto it = listeners_.find(msg.service_id);
      CmMessage reply;
      reply.transaction_id = msg.transaction_id;
      if (it == listeners_.end()) {
        reply.type = CmType::kConnectReject;
        reply.reject_reason = 0xff;  // no such service
        send_cm(packet.ip.src, std::move(reply));
        return;
      }
      AcceptDecision decision = it->second(msg, packet.ip.src);
      if (!decision.accept) {
        reply.type = CmType::kConnectReject;
        reply.reject_reason = decision.reject_reason;
        send_cm(packet.ip.src, std::move(reply));
        return;
      }
      Qpn local_qpn = decision.virtual_qpn;
      Psn local_psn = decision.virtual_start_psn;
      if (decision.qp != nullptr) {
        local_qpn = decision.qp->qpn();
        if (local_psn == 0) local_psn = pick_psn();
        // Bind the server-side QP: its peer is the requester; we start
        // sending at local_psn and expect the requester's starting PSN.
        decision.qp->connect(packet.ip.src, msg.sender_qpn, local_psn, msg.starting_psn);
      }
      half_open_[msg.transaction_id] = HalfOpen{std::move(decision.on_established)};
      reply.type = CmType::kConnectReply;
      reply.sender_qpn = local_qpn;
      reply.starting_psn = local_psn;
      reply.service_id = msg.service_id;
      reply.private_data = std::move(decision.private_data);
      send_cm(packet.ip.src, std::move(reply));
      return;
    }

    case CmType::kConnectReply: {
      auto it = pending_.find(msg.transaction_id);
      if (it == pending_.end()) return;  // duplicate or timed out
      PendingConnect pend = std::move(it->second);
      pending_.erase(it);
      pend.timeout.cancel();
      if (pend.qp != nullptr) {
        pend.qp->connect(packet.ip.src, msg.sender_qpn, pend.our_start_psn, msg.starting_psn);
      }
      // Final leg of the handshake: the connection becomes usable once the
      // ReadyToUse reaches the passive side.
      CmMessage rtu;
      rtu.type = CmType::kReadyToUse;
      rtu.transaction_id = msg.transaction_id;
      send_cm(packet.ip.src, std::move(rtu));
      ConnectResult result;
      result.remote_ip = packet.ip.src;
      result.remote_qpn = msg.sender_qpn;
      result.remote_start_psn = msg.starting_psn;
      result.private_data = msg.private_data;
      pend.cb(std::move(result));
      return;
    }

    case CmType::kReadyToUse: {
      auto it = half_open_.find(msg.transaction_id);
      if (it == half_open_.end()) return;
      auto on_established = std::move(it->second.on_established);
      half_open_.erase(it);
      if (on_established) on_established();
      return;
    }

    case CmType::kConnectReject: {
      auto it = pending_.find(msg.transaction_id);
      if (it == pending_.end()) return;
      PendingConnect pend = std::move(it->second);
      pending_.erase(it);
      pend.timeout.cancel();
      pend.cb(error(StatusCode::kAborted,
                    "connection rejected (reason " + std::to_string(msg.reject_reason) + ")"));
      return;
    }

    case CmType::kDisconnectRequest:
      return;  // modeled as a no-op; QPs detect death via timeouts
  }
}

}  // namespace p4ce::rdma
