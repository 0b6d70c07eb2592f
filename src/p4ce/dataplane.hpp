// The P4CE data plane: the pipeline program that implements transparent
// RDMA group communication — scatter (packet duplication with per-replica
// header rewriting, §IV-B) and gather (ACK aggregation with NumRecv
// counting, NAK passthrough and min-credit folding, §IV-C/D) — plus plain
// L3 forwarding for all traffic not addressed to the switch.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "p4ce/tables.hpp"
#include "switchsim/pipeline.hpp"
#include "switchsim/register.hpp"
#include "switchsim/table.hpp"

namespace p4ce::sim {
class Simulator;
}  // namespace p4ce::sim

namespace p4ce::p4 {

/// Where surplus gathered ACKs are dropped. The paper's first implementation
/// dropped them in the leader's egress, bottlenecking aggregation at one
/// parser's 121 M pps; the final design drops them in the replica's ingress
/// so capacity scales with the number of replicas (§IV-D, reproduced by
/// bench/ablation_ack_path).
enum class AckDropStage { kIngress, kEgress };

class P4ceDataplane : public sw::PipelineProgram {
 public:
  /// `sim` is the run's clock: its registry receives the switch.p4ce.*
  /// series, and tracing hooks timestamp scatter/gather events with it.
  /// `switch_name` labels this program's series ({sw=<name>}); it is the
  /// name of the device that loads it, unique within a run.
  P4ceDataplane(sim::Simulator& sim, std::string switch_name, Ipv4Addr switch_ip,
                AckDropStage drop_stage = AckDropStage::kIngress);

  // --- Control-plane programming API (the BfRt surface) -----------------

  /// Static L3 forwarding: destination IP -> egress port.
  Status add_route(Ipv4Addr dst, u32 port);
  const u32* route(Ipv4Addr dst) const noexcept { return l3_.lookup(dst); }

  /// Install a fully-resolved communication group.
  Status install_group(const GroupSpec& spec);
  /// Remove a group, freeing its tables and registers.
  Status remove_group(u16 group_idx);
  /// Replace the replica set of an existing group (member exclusion).
  Status update_group_replicas(u16 group_idx, std::vector<ConnectionEntry> replicas,
                               u32 f_needed);

  /// Ablation switch: when disabled, the forwarded ACK carries only the
  /// sending replica's credit count instead of the min across all replicas
  /// — "the credit count of the slowest replicas would likely be ignored"
  /// (§IV-C).
  void set_credit_aggregation(bool enabled) noexcept { credit_aggregation_ = enabled; }

  bool group_active(u16 group_idx) const noexcept {
    return group_idx < kMaxGroups && groups_[group_idx].active;
  }
  const GroupSpec* group_spec(u16 group_idx) const noexcept {
    return group_active(group_idx) ? &groups_[group_idx].spec : nullptr;
  }

  // --- Data plane ---------------------------------------------------------

  void ingress(sw::PacketContext& ctx) override;
  void egress(sw::PacketContext& ctx) override;

  // --- Statistics -----------------------------------------------------------

  /// A group slot's counts, read from its switch.p4ce.*{sw=..,group=..}
  /// series. They start when the slot is first installed and never
  /// restart: a group reinstalled in a slot counts on from the last one.
  struct GroupStats {
    u64 requests_scattered = 0;  ///< request packets entering the multicast engine
    u64 acks_gathered = 0;       ///< positive replica ACKs counted
    u64 acks_forwarded = 0;      ///< f-th ACKs forwarded to the leader
    u64 naks_forwarded = 0;      ///< NAKs forwarded immediately
    u64 bad_rkey_drops = 0;      ///< requests whose virtual R_key did not match
  };
  GroupStats group_stats(u16 group_idx) const;
  /// Packets this switch forwarded as plain L3 (switch.p4ce.l3_forwarded{sw=..}).
  u64 l3_forwarded() const noexcept { return m_.l3_forwarded.value(); }

 private:
  // Packet metadata slots (ctx.meta indices).
  static constexpr u32 kMetaGroup = 0;
  static constexpr u32 kMetaFlags = 1;
  static constexpr u32 kMetaPsn = 2;
  static constexpr u32 kMetaMinCredit = 3;
  static constexpr u32 kFlagToLeader = 1u << 0;
  static constexpr u32 kFlagEgressDrop = 1u << 1;  // ablation: drop surplus late
  static constexpr u32 kFlagScatter = 1u << 2;

  /// The series behind GroupStats, labelled {sw=<name>,group=<idx>}.
  struct GroupCounters {
    GroupCounters(obs::MetricsRegistry& registry, const std::string& switch_name, u16 group_idx);
    obs::Counter& requests_scattered;
    obs::Counter& acks_gathered;
    obs::Counter& acks_forwarded;
    obs::Counter& naks_forwarded;
    obs::Counter& bad_rkey_drops;
  };

  struct GroupState {
    bool active = false;
    GroupSpec spec;
    /// NumRecv (Table II): ACKs received per in-flight PSN, indexed PSN mod 256.
    sw::TofinoRegister<u32> num_recv{kNumRecvSlots};
    /// Last credit count announced by each replica (§IV-D), indexed by rid.
    sw::TofinoRegister<u32> credits{kMaxReplicasPerGroup, 31u};
    /// Bound when the slot is first installed, kept across reinstalls.
    std::optional<GroupCounters> counters;
  };

  void ingress_gather(sw::PacketContext& ctx, u16 group_idx, u16 rid);
  void send_to_leader(sw::PacketContext& ctx, const GroupState& group);

  /// The series no reader needs per group. Copies and rewrites are bare,
  /// shared by every P4CE switch of the run; l3_forwarded is this switch's.
  struct Metrics {
    Metrics(obs::MetricsRegistry& registry, const std::string& switch_name);
    obs::Counter& scatter_copies;
    obs::Counter& header_rewrites;
    obs::Counter& l3_forwarded;
    obs::Gauge& gather_occupancy;
  };

  sim::Simulator& sim_;
  std::string switch_name_;
  Ipv4Addr switch_ip_;
  AckDropStage drop_stage_;
  Metrics m_;
  bool credit_aggregation_ = true;
  sw::ExactMatchTable<Ipv4Addr, u32> l3_{"l3_forward"};
  sw::ExactMatchTable<Qpn, u16> bcast_table_{"bcast_qp", 1024};
  sw::ExactMatchTable<Qpn, u16> aggr_table_{"aggr_qp", 1024};
  /// (group_idx << 32 | replica ip) -> endpoint id.
  sw::ExactMatchTable<u64, u16> replica_src_table_{"replica_src", 4096};
  std::array<GroupState, kMaxGroups> groups_;
};

}  // namespace p4ce::p4
