// The programmable switch device: ports, pipeline scheduling, traffic
// manager with replication engine, punt path to the control-plane CPU, and
// packet injection from the CPU. The loaded PipelineProgram decides what the
// switch *does*; this class models what the hardware *is*.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "switchsim/multicast.hpp"
#include "switchsim/pipeline.hpp"
#include "switchsim/port.hpp"

namespace p4ce::sw {

/// Fixed match-action latency per gress (cut-through ASIC).
inline constexpr Duration kIngressLatency = 200;  // ns
inline constexpr Duration kEgressLatency = 200;   // ns
/// Latency of punting a packet to the control-plane CPU (PCIe + driver).
inline constexpr Duration kPuntLatency = 10'000;  // ns

class SwitchDevice {
 public:
  SwitchDevice(sim::Simulator& sim, std::string name, Ipv4Addr ip);

  SwitchDevice(const SwitchDevice&) = delete;
  SwitchDevice& operator=(const SwitchDevice&) = delete;

  const std::string& name() const noexcept { return name_; }
  Ipv4Addr ip() const noexcept { return ip_; }
  sim::Simulator& simulator() noexcept { return sim_; }

  /// Add a port; returns its index. Attach the link separately.
  u32 add_port();
  Port& port(u32 index) { return *ports_.at(index); }
  u32 port_count() const noexcept { return static_cast<u32>(ports_.size()); }

  /// Load the data-plane program (must outlive the switch's use of it).
  void load_program(PipelineProgram* program) noexcept { program_ = program; }

  MulticastEngine& multicast() noexcept { return mcast_; }

  /// Handler for packets the data plane punts to the CPU.
  void set_cpu_handler(std::function<void(net::Packet, u32 ingress_port)> handler) {
    cpu_handler_ = std::move(handler);
  }

  /// Inject a control-plane-crafted packet; it traverses the normal ingress
  /// pipeline as if it arrived on the CPU port.
  void inject_from_cpu(net::Packet&& packet);

  /// Crash-stop the switch: all processing ceases, packets blackhole, and
  /// peers discover the failure through RDMA timeouts (§III-A). Copies
  /// whose egress time is at or after now are lost on the wire.
  void power_off();
  void power_on();
  bool powered() const noexcept { return powered_; }

  u64 ingress_drops() const noexcept { return m_ingress_drops_.value(); }
  u64 egress_drops() const noexcept { return m_egress_drops_.value(); }
  u64 punted() const noexcept { return m_punts_.value(); }

 private:
  friend class Port;

  /// A packet a port took in flight: admit it to the port's ingress parser
  /// at its arrival and schedule the ingress stage.
  void on_port_rx(u32 port, net::Packet&& packet, const net::InFlight& flight);
  void run_ingress(PacketContext&& ctx);
  void route(PacketContext&& ctx);
  /// Admit one copy to its port's egress parser, run the egress stage and
  /// post the copy for its egress time.
  void run_egress(PacketContext&& ctx);

  sim::Simulator& sim_;
  std::string name_;
  Ipv4Addr ip_;
  std::vector<std::unique_ptr<Port>> ports_;
  MulticastEngine mcast_;
  PipelineProgram* program_ = nullptr;
  std::function<void(net::Packet, u32)> cpu_handler_;
  bool powered_ = true;
  // Registry counters labelled {sw=<name>}, bound at construction; the
  // getters above read them. Switch names are unique within a run.
  obs::Counter& m_ingress_drops_;
  obs::Counter& m_egress_drops_;
  obs::Counter& m_punts_;
};

}  // namespace p4ce::sw
