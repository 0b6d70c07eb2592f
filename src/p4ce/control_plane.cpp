#include "p4ce/control_plane.hpp"

#include <algorithm>
#include <tuple>

namespace p4ce::p4 {

namespace {
/// "Sending a ConnectRequest and waiting for the switch to reconfigure its
/// dataplane takes 40 ms on average" (§V-E). Applied to every group install
/// and membership update.
constexpr Duration kReconfigDelay = 40'000'000;  // ns
/// How long the CP waits for each replica's ConnectReply.
constexpr Duration kReplicaConnectTimeout = 10'000'000;  // ns
}  // namespace

ControlPlane::ControlPlane(sim::Simulator& sim, sw::SwitchDevice& device,
                           P4ceDataplane& dataplane)
    : sim_(sim),
      device_(device),
      dataplane_(dataplane),
      rng_(device.ip() * 0x9e3779b9ull + 1),
      cm_(std::make_unique<rdma::CmAgent>(*this)) {
  device_.set_cpu_handler([this](net::Packet p, u32 port) { on_punt(std::move(p), port); });
}

ControlPlane::~ControlPlane() = default;

void ControlPlane::send_packet(net::Packet&& packet) {
  device_.inject_from_cpu(std::move(packet));
}

void ControlPlane::on_punt(net::Packet packet, u32 /*ingress_port*/) {
  if (!packet.cm) return;
  const rdma::CmMessage& msg = *packet.cm;
  if (msg.type == rdma::CmType::kConnectRequest && msg.service_id == kServiceP4ceGroup) {
    handle_group_request(msg, packet.ip.src);
    return;
  }
  if (msg.type == rdma::CmType::kConnectRequest && msg.service_id == kServiceP4ceUpdate) {
    handle_update_request(msg, packet.ip.src);
    return;
  }
  if (msg.type == rdma::CmType::kReadyToUse) {
    // The leader's final handshake leg; the group is already programmed.
    return;
  }
  // Replies from replicas to our own connects.
  cm_->handle(packet);
}

void ControlPlane::send_cm_reply(Ipv4Addr dst, rdma::CmMessage msg) {
  net::Packet p;
  p.eth.src_mac = mac();
  p.ip.src = ip();
  p.ip.dst = dst;
  p.udp.src_port = 0x1b58;
  p.bth.opcode = rdma::Opcode::kSendOnly;
  p.bth.dest_qp = rdma::kCmQpn;
  p.cm = std::move(msg);
  send_packet(std::move(p));
}

void ControlPlane::reject_leader(Ipv4Addr leader_ip, u32 tid, u8 reason) {
  rdma::CmMessage reject;
  reject.type = rdma::CmType::kConnectReject;
  reject.transaction_id = tid;
  reject.reject_reason = reason;
  send_cm_reply(leader_ip, std::move(reject));
}

std::optional<u16> ControlPlane::allocate_group_slot() {
  for (u16 offset = 0; offset < kMaxGroups; ++offset) {
    const u16 idx = static_cast<u16>((next_group_seq_ + offset) % kMaxGroups);
    if (!dataplane_.group_active(idx)) {
      next_group_seq_ = static_cast<u16>(idx + 1);
      return idx;
    }
  }
  return std::nullopt;
}

void ControlPlane::collect_stale_groups(u64 new_term, Ipv4Addr leader_ip,
                                        const std::vector<Ipv4Addr>& replica_ips) {
  // "It is possible that, for a while, the switch maintains both the
  // multicast group of the old leader and of the new leader" (§III-A). We
  // garbage-collect groups with an older term that share replicas with the
  // incoming one; their writes would be NAK'd by the replicas anyway.
  for (auto it = groups_.begin(); it != groups_.end();) {
    const GroupRecord& record = it->second;
    const bool overlaps = std::any_of(
        record.spec.replicas.begin(), record.spec.replicas.end(), [&](const auto& conn) {
          return std::find(replica_ips.begin(), replica_ips.end(), conn.ip) !=
                 replica_ips.end();
        });
    // A re-connecting leader (re-acceleration probe after fallback) replaces
    // its own group even at an unchanged term.
    if (overlaps && (record.term < new_term || record.spec.leader.ip == leader_ip)) {
      std::ignore = device_.multicast().delete_group(record.spec.mcast_group_id);
      std::ignore = dataplane_.remove_group(record.spec.group_idx);
      it = groups_.erase(it);
    } else {
      ++it;
    }
  }
}

void ControlPlane::handle_group_request(const rdma::CmMessage& msg, Ipv4Addr from) {
  auto request = GroupRequestData::decode(msg.private_data);
  if (!request || request->replica_ips.empty() ||
      request->replica_ips.size() > kMaxReplicasPerGroup) {
    reject_leader(from, msg.transaction_id, 1);
    return;
  }
  collect_stale_groups(request->term, from, request->replica_ips);

  const auto slot = allocate_group_slot();
  if (!slot) {
    reject_leader(from, msg.transaction_id, 2);
    return;
  }

  auto setup = std::make_shared<PendingSetup>();
  setup->leader_tid = msg.transaction_id;
  setup->leader_ip = from;
  setup->leader_qpn = msg.sender_qpn;
  setup->leader_psn = msg.starting_psn;
  setup->request = *request;
  setup->group_idx = *slot;
  setup->bcast_qpn = 0x8000u + *slot + (static_cast<Qpn>(request->term % 0x1000) << 4);
  setup->aggr_qpn = setup->bcast_qpn + 0x4000u;
  setup->replicas.resize(request->replica_ips.size());
  setup->awaiting = static_cast<u32>(request->replica_ips.size());

  // Establish one connection per replica, all advertising the same Aggr
  // queue pair and the leader's starting PSN (so the per-replica PSN delta
  // is zero at setup; the data plane supports arbitrary deltas).
  const ReplicaJoinData join{request->leader_node_id, request->term};
  for (std::size_t rid = 0; rid < request->replica_ips.size(); ++rid) {
    const Ipv4Addr replica_ip = request->replica_ips[rid];
    cm_->connect_virtual(
        replica_ip, kServiceReplicaLog, setup->aggr_qpn, setup->leader_psn, join.encode(),
        [this, setup, rid](StatusOr<rdma::CmAgent::ConnectResult> result) {
          on_replica_connected(setup, rid, std::move(result));
        },
        kReplicaConnectTimeout);
  }
}

void ControlPlane::on_replica_connected(std::shared_ptr<PendingSetup> setup, std::size_t rid,
                                        StatusOr<rdma::CmAgent::ConnectResult> result) {
  if (setup->failed) return;
  if (!result.is_ok()) {
    setup->failed = true;
    reject_leader(setup->leader_ip, setup->leader_tid, 3);
    return;
  }
  const auto& ok = result.value();
  const auto advert = MemoryAdvertisement::decode(ok.private_data);
  if (!advert) {
    setup->failed = true;
    reject_leader(setup->leader_ip, setup->leader_tid, 4);
    return;
  }
  ConnectionEntry& conn = setup->replicas[rid];
  conn.ip = ok.remote_ip;
  conn.mac = 0xEE'0000'0000ull | ok.remote_ip;
  conn.qpn = ok.remote_qpn;
  conn.vaddr = advert->vaddr;
  conn.buffer_len = advert->length;
  conn.rkey = advert->rkey;
  conn.psn_delta = 0;  // we advertised the leader's starting PSN
  const u32* port = dataplane_.route(ok.remote_ip);
  if (port == nullptr) {
    setup->failed = true;
    reject_leader(setup->leader_ip, setup->leader_tid, 5);
    return;
  }
  conn.port = *port;

  if (--setup->awaiting == 0) finalize_setup(std::move(setup));
}

void ControlPlane::finalize_setup(std::shared_ptr<PendingSetup> setup) {
  // Reprogramming the data plane is the slow part: tables, registers and
  // the replication engine all change. Modeled as the measured 40 ms.
  sim_.schedule(kReconfigDelay, [this, setup] {
    ++reconfigurations_;

    GroupSpec spec;
    spec.group_idx = setup->group_idx;
    spec.mcast_group_id = 100 + setup->group_idx;
    spec.bcast_qpn = setup->bcast_qpn;
    spec.aggr_qpn = setup->aggr_qpn;
    // Majority of (replicas + leader) minus the leader itself: "receiving f
    // acknowledgments ensures that strictly more than half of the servers
    // agree on the value (the f replicas + the leader)" (§IV-A).
    spec.f_needed = static_cast<u32>(setup->replicas.size() + 1) / 2;
    spec.virtual_rkey = rng_.next_u32() | 1;
    spec.leader.ip = setup->leader_ip;
    spec.leader.mac = 0xEE'0000'0000ull | setup->leader_ip;
    spec.leader.qpn = setup->leader_qpn;
    const u32* leader_port = dataplane_.route(setup->leader_ip);
    if (leader_port == nullptr) {
      reject_leader(setup->leader_ip, setup->leader_tid, 5);
      return;
    }
    spec.leader.port = *leader_port;
    spec.replicas = setup->replicas;

    std::vector<sw::McastCopy> copies;
    for (std::size_t rid = 0; rid < spec.replicas.size(); ++rid) {
      copies.push_back(sw::McastCopy{spec.replicas[rid].port, static_cast<u16>(rid)});
    }
    std::ignore = device_.multicast().create_group(spec.mcast_group_id, std::move(copies));
    if (Status st = dataplane_.install_group(spec); !st) {
      std::ignore = device_.multicast().delete_group(spec.mcast_group_id);
      reject_leader(setup->leader_ip, setup->leader_tid, 6);
      return;
    }
    groups_[spec.bcast_qpn] =
        GroupRecord{spec, setup->request.term, setup->request.leader_node_id};

    // Tell the leader its single connection is ready: virtual address zero
    // and a virtual key, "adjusted during replication" (§IV-A).
    u64 min_len = ~0ull;
    for (const auto& replica : spec.replicas) min_len = std::min(min_len, replica.buffer_len);
    rdma::CmMessage reply;
    reply.type = rdma::CmType::kConnectReply;
    reply.transaction_id = setup->leader_tid;
    reply.sender_qpn = spec.bcast_qpn;
    reply.starting_psn = setup->leader_psn;
    reply.private_data = MemoryAdvertisement{0, min_len, spec.virtual_rkey}.encode();
    send_cm_reply(setup->leader_ip, std::move(reply));
  });
}

void ControlPlane::handle_update_request(const rdma::CmMessage& msg, Ipv4Addr from) {
  // Membership update: the BCast QPN rides in sender_qpn, the new replica
  // set in the private data. Only removals/subsets are expected (crash
  // exclusion); unknown replicas are rejected.
  auto request = GroupRequestData::decode(msg.private_data);
  auto it = groups_.find(msg.sender_qpn);
  if (!request || it == groups_.end() || it->second.spec.leader.ip != from) {
    reject_leader(from, msg.transaction_id, 7);
    return;
  }
  GroupRecord& record = it->second;

  std::vector<ConnectionEntry> new_replicas;
  for (Ipv4Addr ip : request->replica_ips) {
    auto conn = std::find_if(record.spec.replicas.begin(), record.spec.replicas.end(),
                             [&](const auto& c) { return c.ip == ip; });
    if (conn == record.spec.replicas.end()) {
      reject_leader(from, msg.transaction_id, 8);
      return;
    }
    new_replicas.push_back(*conn);
  }

  const u32 tid = msg.transaction_id;
  sim_.schedule(kReconfigDelay, [this, tid, from, bcast = msg.sender_qpn,
                                         replicas = std::move(new_replicas)]() mutable {
    auto record_it = groups_.find(bcast);
    if (record_it == groups_.end()) {
      reject_leader(from, tid, 7);
      return;
    }
    GroupRecord& record = record_it->second;
    ++reconfigurations_;

    std::vector<sw::McastCopy> copies;
    for (std::size_t rid = 0; rid < replicas.size(); ++rid) {
      copies.push_back(sw::McastCopy{replicas[rid].port, static_cast<u16>(rid)});
    }
    std::ignore = device_.multicast().update_group(record.spec.mcast_group_id, std::move(copies));
    // Quorum size stays derived from the original membership so exclusions
    // can never weaken safety.
    std::ignore = dataplane_.update_group_replicas(record.spec.group_idx, replicas,
                                     record.spec.f_needed);
    record.spec.replicas = std::move(replicas);

    rdma::CmMessage reply;
    reply.type = rdma::CmType::kConnectReply;
    reply.transaction_id = tid;
    reply.sender_qpn = bcast;
    send_cm_reply(from, std::move(reply));
  });
}

}  // namespace p4ce::p4
