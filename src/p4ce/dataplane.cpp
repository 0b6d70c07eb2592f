#include "p4ce/dataplane.hpp"

#include <algorithm>
#include <string>
#include <tuple>

#include "obs/context.hpp"
#include "rdma/headers.hpp"
#include "sim/simulator.hpp"

namespace p4ce::p4 {

namespace {
constexpr u64 src_key(u16 group_idx, Ipv4Addr ip) noexcept {
  return (static_cast<u64>(group_idx) << 32) | ip;
}

/// The families GroupStats reads, in its field order.
constexpr const char* kGroupFamilies[] = {
    "switch.p4ce.requests_scattered", "switch.p4ce.acks_gathered",
    "switch.p4ce.acks_forwarded",     "switch.p4ce.naks_forwarded",
    "switch.p4ce.bad_rkey_drops",
};

obs::Counter& group_counter(obs::MetricsRegistry& registry, std::size_t family,
                           const std::string& switch_name, u16 group_idx) {
  return registry.counter(kGroupFamilies[family],
                          {{"sw", switch_name}, {"group", std::to_string(group_idx)}});
}

}  // namespace

P4ceDataplane::GroupCounters::GroupCounters(obs::MetricsRegistry& registry,
                                            const std::string& switch_name, u16 group_idx)
    : requests_scattered(group_counter(registry, 0, switch_name, group_idx)),
      acks_gathered(group_counter(registry, 1, switch_name, group_idx)),
      acks_forwarded(group_counter(registry, 2, switch_name, group_idx)),
      naks_forwarded(group_counter(registry, 3, switch_name, group_idx)),
      bad_rkey_drops(group_counter(registry, 4, switch_name, group_idx)) {}

P4ceDataplane::Metrics::Metrics(obs::MetricsRegistry& registry, const std::string& switch_name)
    : scatter_copies(registry.counter("switch.p4ce.scatter_copies")),
      header_rewrites(registry.counter("switch.p4ce.header_rewrites")),
      l3_forwarded(registry.counter("switch.p4ce.l3_forwarded", {{"sw", switch_name}})),
      gather_occupancy(registry.gauge("switch.p4ce.gather_occupancy")) {}

P4ceDataplane::P4ceDataplane(sim::Simulator& sim, std::string switch_name, Ipv4Addr switch_ip,
                             AckDropStage drop_stage)
    : sim_(sim),
      switch_name_(std::move(switch_name)),
      switch_ip_(switch_ip),
      drop_stage_(drop_stage),
      m_(sim.obs().metrics, switch_name_) {
  // The per-group families are declared bare as well, so a run that
  // installs no group still reports each of them, as 0.
  for (const char* family : kGroupFamilies) sim.obs().metrics.counter(family);
}

P4ceDataplane::GroupStats P4ceDataplane::group_stats(u16 group_idx) const {
  const auto& c = groups_.at(group_idx).counters;
  if (!c) return {};
  return {c->requests_scattered.value(), c->acks_gathered.value(), c->acks_forwarded.value(),
          c->naks_forwarded.value(), c->bad_rkey_drops.value()};
}

Status P4ceDataplane::add_route(Ipv4Addr dst, u32 port) {
  l3_.set(dst, port);
  return Status::ok();
}

Status P4ceDataplane::install_group(const GroupSpec& spec) {
  if (spec.group_idx >= kMaxGroups) {
    return error(StatusCode::kInvalidArgument, "group index out of range");
  }
  if (spec.replicas.size() > kMaxReplicasPerGroup) {
    return error(StatusCode::kInvalidArgument, "too many replicas for group");
  }
  GroupState& group = groups_[spec.group_idx];
  if (group.active) return error(StatusCode::kAlreadyExists, "group slot in use");

  group.spec = spec;
  group.num_recv.cp_clear(0);
  group.credits.cp_clear(31);
  if (Status st = bcast_table_.add(spec.bcast_qpn, spec.group_idx); !st) return st;
  if (Status st = aggr_table_.add(spec.aggr_qpn, spec.group_idx); !st) {
    std::ignore = bcast_table_.remove(spec.bcast_qpn);
    return st;
  }
  for (std::size_t rid = 0; rid < spec.replicas.size(); ++rid) {
    replica_src_table_.set(src_key(spec.group_idx, spec.replicas[rid].ip),
                           static_cast<u16>(rid));
  }
  if (!group.counters) group.counters.emplace(sim_.obs().metrics, switch_name_, spec.group_idx);
  group.active = true;
  return Status::ok();
}

Status P4ceDataplane::remove_group(u16 group_idx) {
  if (group_idx >= kMaxGroups || !groups_[group_idx].active) {
    return error(StatusCode::kNotFound, "no such group");
  }
  GroupState& group = groups_[group_idx];
  std::ignore = bcast_table_.remove(group.spec.bcast_qpn);
  std::ignore = aggr_table_.remove(group.spec.aggr_qpn);
  for (const auto& replica : group.spec.replicas) {
    std::ignore = replica_src_table_.remove(src_key(group_idx, replica.ip));
  }
  group.active = false;
  return Status::ok();
}

Status P4ceDataplane::update_group_replicas(u16 group_idx, std::vector<ConnectionEntry> replicas,
                                            u32 f_needed) {
  if (group_idx >= kMaxGroups || !groups_[group_idx].active) {
    return error(StatusCode::kNotFound, "no such group");
  }
  if (replicas.size() > kMaxReplicasPerGroup) {
    return error(StatusCode::kInvalidArgument, "too many replicas for group");
  }
  GroupState& group = groups_[group_idx];
  for (const auto& replica : group.spec.replicas) {
    std::ignore = replica_src_table_.remove(src_key(group_idx, replica.ip));
  }
  group.spec.replicas = std::move(replicas);
  group.spec.f_needed = f_needed;
  for (std::size_t rid = 0; rid < group.spec.replicas.size(); ++rid) {
    replica_src_table_.set(src_key(group_idx, group.spec.replicas[rid].ip),
                           static_cast<u16>(rid));
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Ingress
// ---------------------------------------------------------------------------

void P4ceDataplane::ingress(sw::PacketContext& ctx) {
  net::Packet& p = ctx.packet;

  // 1. CM traffic addressed to the switch goes to the control plane:
  //    "P4CE configures the data plane of the switch to have all
  //    ConnectRequests intended for the switch redirected to the control
  //    plane" (§IV-A). Punted CM handling covers the whole handshake.
  if (p.is_cm() && p.ip.dst == switch_ip_) {
    ctx.punt_to_cpu = true;
    return;
  }

  // 2. Requests addressed to the switch on a BCast queue pair: scatter.
  if (p.ip.dst == switch_ip_ && rdma::is_request(p.bth.opcode)) {
    const u16* group_idx = bcast_table_.lookup(p.bth.dest_qp);
    if (group_idx == nullptr || !groups_[*group_idx].active) {
      ctx.drop = true;  // stale group or unknown QP: the leader will time out
      return;
    }
    GroupState& group = groups_[*group_idx];
    // Validate the virtual authentication key on packets that carry it.
    if (p.reth && p.reth->rkey != group.spec.virtual_rkey) {
      group.counters->bad_rkey_drops.inc();
      ctx.drop = true;
      return;
    }
    // Reset NumRecv for this PSN: the answers to this request start from 0
    // ("the dataplane also resets NumRecv at the index corresponding to the
    // PSN of the packet it is multicasting", §IV-B).
    group.num_recv.write(p.bth.psn % kNumRecvSlots, 0);
    group.counters->requests_scattered.inc();
    // One gather-table slot is now awaiting ACKs for this PSN.
    if (rdma::is_last_or_only(p.bth.opcode)) m_.gather_occupancy.add(1);
    if (sim_.obs().tracer.is_enabled()) {
      // Scope the PSN lookup to this group's BCast QP: concurrent domains
      // run overlapping PSN windows on the same switch.
      auto& tracer = sim_.obs().tracer;
      if (const u64 inst = tracer.instance_for_psn(p.bth.psn, p.bth.dest_qp)) {
        tracer.on_scatter(inst, sim_.now());
      }
    }
    ctx.meta[kMetaGroup] = *group_idx;
    ctx.meta[kMetaFlags] |= kFlagScatter;
    ctx.mcast_group = group.spec.mcast_group_id;
    return;
  }

  // 3. ACKs from replicas on an Aggr queue pair: gather.
  if (p.is_ack()) {
    const u16* group_idx = aggr_table_.lookup(p.bth.dest_qp);
    if (group_idx != nullptr && groups_[*group_idx].active) {
      const u16* rid = replica_src_table_.lookup(src_key(*group_idx, p.ip.src));
      if (rid == nullptr) {
        ctx.drop = true;  // not a current member (e.g. excluded replica)
        return;
      }
      ingress_gather(ctx, *group_idx, *rid);
      return;
    }
    // ACK not destined for an aggregation QP: plain forwarding below.
  }

  // 4. Everything else: normal L3 forwarding.
  const u32* port = l3_.lookup(p.ip.dst);
  if (port == nullptr) {
    ctx.drop = true;
    return;
  }
  m_.l3_forwarded.inc();
  ctx.unicast_port = *port;
}

void P4ceDataplane::ingress_gather(sw::PacketContext& ctx, u16 group_idx, u16 rid) {
  GroupState& group = groups_[group_idx];
  net::Packet& p = ctx.packet;

  // Translate the replica's PSN back to the leader's numbering.
  const u32 delta = group.spec.replicas[rid].psn_delta;
  const Psn leader_psn = (p.bth.psn - delta) & kPsnMask;
  ctx.meta[kMetaGroup] = group_idx;
  ctx.meta[kMetaPsn] = leader_psn;

  // Negative acknowledgments are forwarded unconditionally so the leader
  // learns that a replica is misbehaving and can fall back (§III).
  if (p.is_nak()) {
    group.counters->naks_forwarded.inc();
    send_to_leader(ctx, group);
    return;
  }

  // Store this replica's latest credit count, then fold the minimum across
  // all replicas' registers the Tofino way: the running minimum travels in
  // packet metadata through one register stage per replica, each stage using
  // the subtract-underflow trick (§IV-D).
  if (credit_aggregation_) {
    u32 running_min = 31;
    const u32 replica_count = static_cast<u32>(group.spec.replicas.size());
    for (u32 i = 0; i < replica_count; ++i) {
      if (i == rid) {
        running_min = group.credits.store_and_fold_min(i, p.aeth ? p.aeth->credits : 0,
                                                       running_min);
      } else {
        running_min = group.credits.fold_min(i, running_min);
      }
    }
    ctx.meta[kMetaMinCredit] = running_min;
  } else {
    // Ablation: no aggregation; the leader only ever sees the credit count
    // of whichever replica happened to send the forwarded ACK.
    ctx.meta[kMetaMinCredit] = p.aeth ? p.aeth->credits : 0;
  }

  // Count this answer; forward the f-th, drop the others.
  const u32 count = group.num_recv.increment_read(leader_psn % kNumRecvSlots);
  group.counters->acks_gathered.inc();
  auto& tracer = sim_.obs().tracer;
  const u64 inst =
      tracer.is_enabled() ? tracer.instance_for_psn(leader_psn, group.spec.bcast_qpn) : 0;
  if (inst != 0) tracer.on_ack(inst, sim_.now(), rid);
  if (count == group.spec.f_needed) {
    group.counters->acks_forwarded.inc();
    m_.gather_occupancy.add(-1);
    if (inst != 0) tracer.on_quorum(inst, sim_.now());
    send_to_leader(ctx, group);
    return;
  }
  if (drop_stage_ == AckDropStage::kIngress) {
    // Final design: "changing the processing of ACKs to drop the packet
    // directly in the ingress of the replicas" lets aggregation scale to
    // 121 M answers per second *per replica* (§IV-D).
    ctx.drop = true;
  } else {
    // First-implementation behaviour kept for the ablation: surplus ACKs
    // ride to the leader's egress parser and are dropped there.
    ctx.meta[kMetaFlags] |= kFlagToLeader | kFlagEgressDrop;
    ctx.unicast_port = group.spec.leader.port;
  }
}

void P4ceDataplane::send_to_leader(sw::PacketContext& ctx, const GroupState& group) {
  ctx.meta[kMetaFlags] |= kFlagToLeader;
  ctx.unicast_port = group.spec.leader.port;
}

// ---------------------------------------------------------------------------
// Egress
// ---------------------------------------------------------------------------

void P4ceDataplane::egress(sw::PacketContext& ctx) {
  net::Packet& p = ctx.packet;
  const u32 flags = ctx.meta[kMetaFlags];

  if (flags & kFlagToLeader) {
    if (flags & kFlagEgressDrop) {
      // Ablation mode: the surplus ACK is discarded only now, after having
      // consumed leader-egress parser capacity.
      ctx.drop = true;
      return;
    }
    const GroupState& group = groups_[ctx.meta[kMetaGroup]];
    if (!group.active) {
      ctx.drop = true;
      return;
    }
    // Rewrite the aggregated (or NAK) answer so the leader sees a single
    // acknowledgment coming from the switch: destination queue pair, packet
    // sequence number, IP addresses, and the recomputed congestion fields
    // (§III "Gather").
    m_.header_rewrites.inc();
    p.eth.src_mac = 0xAA'0000'0000ull | switch_ip_;
    p.eth.dst_mac = group.spec.leader.mac;
    p.ip.src = switch_ip_;
    p.ip.dst = group.spec.leader.ip;
    p.bth.dest_qp = group.spec.leader.qpn;
    p.bth.psn = ctx.meta[kMetaPsn] & kPsnMask;
    if (p.aeth && !p.aeth->is_nak) {
      p.aeth->credits = static_cast<u8>(std::min<u32>(ctx.meta[kMetaMinCredit], 31));
    }
    return;
  }

  if (flags & kFlagScatter) {
    const GroupState& group = groups_[ctx.meta[kMetaGroup]];
    if (!group.active || ctx.replication_id >= group.spec.replicas.size()) {
      ctx.drop = true;
      return;
    }
    // Tailor this carbon copy for its replica: "it rewrites the destination
    // queue pair, the authentication key, the virtual address of the buffer
    // accessed by the request, the packet sequence number and the IP address
    // of the destination" (§III "Broadcast").
    m_.scatter_copies.inc();
    m_.header_rewrites.inc();
    if (sim_.obs().tracer.is_enabled()) {
      // The PSN is still leader-numbered here (and dest_qp is still the
      // group's BCast QP); resolve before the rewrite.
      auto& tracer = sim_.obs().tracer;
      if (const u64 inst = tracer.instance_for_psn(p.bth.psn, p.bth.dest_qp)) {
        tracer.on_scatter_copy(inst, ctx.egress_time, ctx.replication_id);
      }
    }
    const ConnectionEntry& conn = group.spec.replicas[ctx.replication_id];
    p.eth.src_mac = 0xAA'0000'0000ull | switch_ip_;
    p.eth.dst_mac = conn.mac;
    p.ip.src = switch_ip_;
    p.ip.dst = conn.ip;
    p.bth.dest_qp = conn.qpn;
    p.bth.psn = (p.bth.psn + conn.psn_delta) & kPsnMask;
    if (p.reth) {
      // The leader addresses a virtual buffer based at 0; each replica's log
      // lives at its own virtual address with its own key.
      p.reth->vaddr = conn.vaddr + p.reth->vaddr;
      p.reth->rkey = conn.rkey;
    }
    return;
  }

  // Plain forwarded traffic leaves untouched.
}

}  // namespace p4ce::p4
