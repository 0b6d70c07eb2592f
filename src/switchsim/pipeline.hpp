// The programmable pipeline contract: a packet traverses ingress parser ->
// ingress match-action -> traffic manager (buffer + replication engine) ->
// egress parser -> egress match-action -> deparser (paper Fig. 1). Routing
// and replication decisions must be taken in the ingress; per-copy rewriting
// must be done in the egress — exactly the constraint the paper calls out.
#pragma once

#include <array>
#include <optional>

#include "common/time.hpp"
#include "common/types.hpp"
#include "net/packet.hpp"

namespace p4ce::sw {

/// The port id the control-plane CPU injects from / is punted to.
inline constexpr u32 kCpuPort = 0xff;

/// Per-packet state carried through the pipeline. `meta` models the
/// bridged/intrinsic metadata P4 programs attach to packets (P4CE uses it
/// for the group index, the translated PSN and the running credit minimum).
struct PacketContext {
  net::Packet packet;
  u32 ingress_port = 0;

  // Ingress decisions.
  bool drop = false;
  bool punt_to_cpu = false;
  std::optional<u32> unicast_port;
  std::optional<u32> mcast_group;

  // Set by the traffic manager for each copy before egress.
  u16 replication_id = 0;
  u32 egress_port = 0;
  /// When this copy's egress stage runs in simulated time. The switch runs
  /// the stage early, inside the ingress event, so an egress program reads
  /// the time here rather than from the clock.
  SimTime egress_time = 0;

  // Program-defined metadata words.
  std::array<u32, 4> meta{};
};

/// A data-plane program: what gets compiled onto the ASIC.
class PipelineProgram {
 public:
  virtual ~PipelineProgram() = default;
  virtual void ingress(PacketContext& ctx) = 0;
  virtual void egress(PacketContext& ctx) = 0;
};

}  // namespace p4ce::sw
