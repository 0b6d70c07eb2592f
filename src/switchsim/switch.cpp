#include "switchsim/switch.hpp"

#include <cassert>
#include <string_view>

#include "obs/context.hpp"

namespace p4ce::sw {

SwitchDevice::SwitchDevice(sim::Simulator& sim, std::string name, Ipv4Addr ip)
    : sim_(sim),
      name_(std::move(name)),
      ip_(ip),
      m_ingress_drops_(sim.obs().metrics.counter("switch.ingress_drops", {{"sw", name_}})),
      m_egress_drops_(sim.obs().metrics.counter("switch.egress_drops", {{"sw", name_}})),
      m_punts_(sim.obs().metrics.counter("switch.punts", {{"sw", name_}})) {}

void SwitchDevice::power_off() {
  if (!powered_) return;
  sim_.obs().recorder.trigger("switch_failure", sim_.now(), "switch_ip", ip_);
  powered_ = false;
  // Egress copies already posted for a slot at or after now never leave.
  for (const auto& port : ports_) port->set_silent(true);
}

void SwitchDevice::power_on() {
  if (powered_) return;
  powered_ = true;
  for (const auto& port : ports_) port->set_silent(false);
}

u32 SwitchDevice::add_port() {
  const u32 index = static_cast<u32>(ports_.size());
  ports_.push_back(std::make_unique<Port>(*this, index));
  return index;
}

void SwitchDevice::on_port_rx(u32 port, net::Packet&& packet, const net::InFlight& flight) {
  if (!powered_ || program_ == nullptr) return;
  // Per-port ingress parser: a finite packet rate, the §IV-D bottleneck.
  // Only this port's link feeds it, in send order, so admitting at the
  // arrival time now gives the parse time the arrival would have.
  Port& in = *ports_[port];
  const SimTime parsed = in.ingress_parser().admit(flight.arrival);
  in.note_ingress_backlog(flight.arrival);
  auto ingress = [this, port, flight, p = std::move(packet)]() mutable {
    if (!powered_ || (flight.link != nullptr && flight.link->lost(flight))) return;
    PacketContext ctx;
    ctx.packet = std::move(p);
    ctx.ingress_port = port;
    run_ingress(std::move(ctx));
  };
  static_assert(sim::Simulator::fits_inline<decltype(ingress)>(),
                "a switch ingress hop must not heap-allocate its event");
  sim_.schedule_at(parsed + kIngressLatency, std::move(ingress));
}

void SwitchDevice::inject_from_cpu(net::Packet&& packet) {
  if (!powered_ || program_ == nullptr) return;
  sim_.schedule(kPuntLatency, [this, p = std::move(packet)]() mutable {
    if (!powered_) return;
    PacketContext ctx;
    ctx.packet = std::move(p);
    ctx.ingress_port = kCpuPort;
    run_ingress(std::move(ctx));
  });
}

void SwitchDevice::run_ingress(PacketContext&& ctx) {
  program_->ingress(ctx);
  route(std::move(ctx));
}

void SwitchDevice::route(PacketContext&& ctx) {
  if (ctx.drop) {
    m_ingress_drops_.inc();
    return;
  }
  if (ctx.punt_to_cpu) {
    m_punts_.inc();
    if (!cpu_handler_) return;
    sim_.schedule(kPuntLatency,
                  [this, p = std::move(ctx.packet), port = ctx.ingress_port]() mutable {
                    if (powered_ && cpu_handler_) cpu_handler_(std::move(p), port);
                  });
    return;
  }
  if (ctx.mcast_group) {
    // Traffic manager: the replication engine produces one carbon copy per
    // configured (port, rid) pair; "operating on packet replicas must be
    // done in the egress" (§II-B).
    const auto& copies = mcast_.lookup(*ctx.mcast_group);
    if (copies.empty()) {
      m_ingress_drops_.inc();
      return;
    }
    // Carbon copies; the last one takes the context itself.
    for (std::size_t i = 0; i < copies.size(); ++i) {
      PacketContext replica = i + 1 < copies.size() ? ctx : std::move(ctx);
      replica.egress_port = copies[i].egress_port;
      replica.replication_id = copies[i].replication_id;
      run_egress(std::move(replica));
    }
    return;
  }
  if (ctx.unicast_port) {
    ctx.egress_port = *ctx.unicast_port;
    ctx.replication_id = 0;
    run_egress(std::move(ctx));
    return;
  }
  m_ingress_drops_.inc();  // no routing decision: drop
}

void SwitchDevice::run_egress(PacketContext&& ctx) {
  if (ctx.egress_port >= ports_.size()) {
    m_egress_drops_.inc();
    return;
  }
  // The egress stage runs now, inside the ingress event, and the copy is
  // posted onto the wire for the time the stage would have run. The port
  // is the only sender on its direction and its egress parser's slots only
  // move forward, so the link sees the copies in the order, and at the
  // times, an egress event per copy would have sent them.
  Port& out = *ports_[ctx.egress_port];
  ctx.egress_time = out.egress_parser().admit(sim_.now()) + kEgressLatency;
  out.note_egress_backlog(sim_.now());
  program_->egress(ctx);
  if (ctx.drop) {
    m_egress_drops_.inc();
    return;
  }
  out.transmit(std::move(ctx.packet), ctx.egress_time);
}

// ---------------------------------------------------------------------------
// Port
// ---------------------------------------------------------------------------

namespace {
std::string port_label(const SwitchDevice& device, u32 index, std::string_view series) {
  return obs::MetricsRegistry::label(series,
                                     {{"sw", device.name()}, {"port", std::to_string(index)}});
}
obs::Counter& port_counter(SwitchDevice& device, u32 index, std::string_view series) {
  return device.simulator().obs().metrics.counter(port_label(device, index, series));
}
obs::Gauge& port_gauge(SwitchDevice& device, u32 index, std::string_view series) {
  return device.simulator().obs().metrics.gauge(port_label(device, index, series));
}
}  // namespace

Port::Port(SwitchDevice& device, u32 index)
    : device_(device),
      index_(index),
      ingress_parser_(kParserPps),
      egress_parser_(kParserPps),
      m_rx_pkts_(port_counter(device, index, "switch.port.rx_pkts")),
      m_rx_bytes_(port_counter(device, index, "switch.port.rx_bytes")),
      m_tx_pkts_(port_counter(device, index, "switch.port.tx_pkts")),
      m_tx_bytes_(port_counter(device, index, "switch.port.tx_bytes")),
      m_ingress_backlog_(port_gauge(device, index, "switch.port.ingress_backlog_ns")),
      m_egress_backlog_(port_gauge(device, index, "switch.port.egress_backlog_ns")) {}

void Port::deliver(net::Packet&& packet) {
  const SimTime now = device_.simulator().now();
  const u32 wire = packet.wire_size();
  take_in_flight(std::move(packet), net::InFlight{now, now, link_ != nullptr ? link_->epoch() : 0,
                                                  link_, 1 - end_, wire});
}

bool Port::take_in_flight(net::Packet&& packet, const net::InFlight& flight) {
  m_rx_pkts_.inc();
  m_rx_bytes_.inc(packet.wire_size());
  device_.on_port_rx(index_, std::move(packet), flight);
  return true;
}

void Port::transmit(net::Packet&& packet, SimTime start) {
  if (link_ == nullptr) return;
  m_tx_pkts_.inc();
  m_tx_bytes_.inc(packet.wire_size());
  link_->send_at(end_, std::move(packet), start);
}

void Port::set_silent(bool silent) {
  if (link_ == nullptr) return;
  if (silent) {
    link_->silence(end_);
  } else {
    link_->unsilence(end_);
  }
}

void Port::note_ingress_backlog(SimTime now) noexcept {
  m_ingress_backlog_.set(static_cast<double>(ingress_parser_.backlog(now)));
}

void Port::note_egress_backlog(SimTime now) noexcept {
  m_egress_backlog_.set(static_cast<double>(egress_parser_.backlog(now)));
}

}  // namespace p4ce::sw
