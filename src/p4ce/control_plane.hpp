// The P4CE control plane: runs on the switch CPU (the paper's 1237 lines of
// Python + Scapy + BfRt). It captures punted CM packets, establishes the
// per-replica connections on behalf of the leader, programs the data-plane
// tables and the multicast engine, and handles membership updates. Each
// reconfiguration costs the 40 ms measured in §V-E.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "p4ce/dataplane.hpp"
#include "p4ce/tables.hpp"
#include "rdma/cm.hpp"
#include "rdma/nic.hpp"
#include "switchsim/switch.hpp"

namespace p4ce::p4 {

class ControlPlane : public rdma::PacketIo {
 public:
  ControlPlane(sim::Simulator& sim, sw::SwitchDevice& device, P4ceDataplane& dataplane);
  ~ControlPlane() override;

  // --- PacketIo (the CPU port: packets crafted "by hand") ----------------
  void send_packet(net::Packet&& packet) override;
  Ipv4Addr ip() const noexcept override { return device_.ip(); }
  net::MacAddr mac() const noexcept override { return 0xAA'0000'0000ull | device_.ip(); }
  sim::Simulator& simulator() noexcept override { return sim_; }

  /// Number of groups currently installed.
  std::size_t active_groups() const noexcept { return groups_.size(); }

 private:
  struct GroupRecord {
    GroupSpec spec;
    u64 term = 0;
    u32 leader_node_id = 0;
  };
  struct PendingSetup {
    u32 leader_tid = 0;        ///< transaction id of the leader's request
    Ipv4Addr leader_ip = 0;
    Qpn leader_qpn = 0;
    Psn leader_psn = 0;
    GroupRequestData request;
    u16 group_idx = 0;
    Qpn bcast_qpn = 0;
    Qpn aggr_qpn = 0;
    std::vector<ConnectionEntry> replicas;  ///< filled as replies arrive
    u32 awaiting = 0;
    bool failed = false;
  };

  void on_punt(net::Packet packet, u32 ingress_port);
  void handle_group_request(const rdma::CmMessage& msg, Ipv4Addr from);
  void handle_update_request(const rdma::CmMessage& msg, Ipv4Addr from);
  void on_replica_connected(std::shared_ptr<PendingSetup> setup, std::size_t rid,
                            StatusOr<rdma::CmAgent::ConnectResult> result);
  void finalize_setup(std::shared_ptr<PendingSetup> setup);
  void reject_leader(Ipv4Addr leader_ip, u32 tid, u8 reason);
  void send_cm_reply(Ipv4Addr dst, rdma::CmMessage msg);
  std::optional<u16> allocate_group_slot();
  void collect_stale_groups(u64 new_term, Ipv4Addr leader_ip,
                            const std::vector<Ipv4Addr>& replica_ips);

  sim::Simulator& sim_;
  sw::SwitchDevice& device_;
  P4ceDataplane& dataplane_;
  Rng rng_;
  std::unique_ptr<rdma::CmAgent> cm_;  ///< active-side connects to replicas
  std::map<Qpn, GroupRecord> groups_;  ///< by BCast QPN
  u16 next_group_seq_ = 0;
  u64 reconfigurations_ = 0;
};

}  // namespace p4ce::p4
