// Cluster builder: wires hosts (NIC + memory + CPU + consensus node), the
// programmable switch running the P4CE program with its control plane, the
// backup (plain forwarding) switch, and all links — the paper's testbed
// (§V-A) in simulation.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "consensus/calibration.hpp"
#include "consensus/node.hpp"
#include "net/packet.hpp"
#include "p4ce/control_plane.hpp"
#include "p4ce/dataplane.hpp"
#include "rdma/nic.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "switchsim/switch.hpp"

namespace p4ce::core {

struct ClusterOptions {
  /// Machines per consensus domain (1 leader + n-1 replicas). The paper
  /// evaluates "2 replicas" (3 machines) and "4 replicas" (5 machines).
  u32 machines = 3;
  /// Independent consensus domains sharing the same switch ("P4CE supports
  /// multiple consensus groups in parallel", §IV-A). Domain d owns machines
  /// [d*machines, (d+1)*machines).
  u32 domains = 1;
  consensus::Mode mode = consensus::Mode::kP4ce;
  u64 log_size = 64ull << 20;
  consensus::Calibration cal = consensus::Calibration::throughput();

  static constexpr double link_gbps = 100.0;         ///< 100 GbE, §V-A
  static constexpr Duration link_propagation = 150;  ///< ns per hop (short datacenter cables)
};

/// One machine: memory, RNIC, a serial CPU core for the protocol, and the
/// consensus node.
class Host {
 public:
  Host(sim::Simulator& sim, std::string name, Ipv4Addr ip, u64 seed);

  rdma::MemoryManager memory;
  rdma::Nic nic;
  sim::CpuExecutor cpu;
  std::unique_ptr<consensus::Node> node;
};

class Cluster {
 public:
  static std::unique_ptr<Cluster> create(const ClusterOptions& options);

  sim::Simulator& sim() noexcept { return sim_; }
  const ClusterOptions& options() const noexcept { return options_; }
  u32 size() const noexcept { return static_cast<u32>(hosts_.size()); }
  u32 domains() const noexcept { return options_.domains; }
  u32 replica_count() const noexcept { return options_.machines - 1; }

  Host& host(u32 i) { return *hosts_.at(i); }
  consensus::Node& node(u32 i) { return *hosts_.at(i)->node; }

  sw::SwitchDevice& primary_switch() noexcept { return *primary_; }
  sw::SwitchDevice& backup_switch() noexcept { return *backup_; }
  p4::P4ceDataplane& dataplane() noexcept { return *dataplane_; }
  p4::ControlPlane& control_plane() noexcept { return *control_plane_; }

  /// Start every node and run the simulation until a leader is active (or
  /// `max_wait` of simulated time passes). Returns success.
  bool start(Duration max_wait = 2'000'000'000);

  /// The active leader of a domain, or nullptr during a view change.
  consensus::Node* leader(u32 domain = 0) noexcept;

  void run_for(Duration span) { sim_.run_for(span); }
  SimTime now() const noexcept { return sim_.now(); }

  // --- Failure injection ---------------------------------------------------

  /// Crash host i, between runs or from inside an event.
  void crash_node(u32 i) { hosts_.at(i)->node->crash(); }
  void crash_switch() { primary_->power_off(); }

  // --- Link statistics (Fig. 5's "who fills which link" evidence) -----------

  /// Wire bytes host i has transmitted toward the primary switch.
  u64 host_tx_wire_bytes(u32 i) const { return primary_links_.at(i)->wire_bytes_sent(0); }
  /// Wire bytes the primary switch has transmitted toward host i.
  u64 host_rx_wire_bytes(u32 i) const { return primary_links_.at(i)->wire_bytes_sent(1); }

 private:
  Cluster() = default;

  sim::Simulator sim_;
  ClusterOptions options_;
  std::unique_ptr<sw::SwitchDevice> primary_;
  std::unique_ptr<sw::SwitchDevice> backup_;
  std::unique_ptr<p4::P4ceDataplane> dataplane_;
  std::unique_ptr<p4::P4ceDataplane> backup_dataplane_;
  std::unique_ptr<p4::ControlPlane> control_plane_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<net::Link>> primary_links_;
  std::vector<std::unique_ptr<net::Link>> backup_links_;
};

/// Canonical backend name for reports and logs ("mu", "p4ce", "one_sided").
std::string_view backend_name(consensus::Mode mode) noexcept;

/// Addressing plan shared by tests and benches.
constexpr Ipv4Addr host_ip(u32 i) noexcept { return net::make_ip(0, static_cast<u8>(10 + i)); }
inline constexpr Ipv4Addr kPrimarySwitchIp = net::make_ip(1, 1);
inline constexpr Ipv4Addr kBackupSwitchIp = net::make_ip(1, 2);

}  // namespace p4ce::core
