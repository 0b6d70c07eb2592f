// Ethernet / IPv4 / UDP header definitions.
//
// The simulator passes structured headers between components and never
// serializes them. Each header's `kWireSize` is its size in network byte
// order; Packet::frame_size() adds these up for bandwidth accounting, and
// net_test pins every one of them.
#pragma once


#include "common/types.hpp"

namespace p4ce::net {

/// 48-bit MAC address stored in the low bits of a u64.
using MacAddr = u64;

inline constexpr u16 kEtherTypeIpv4 = 0x0800;
inline constexpr u8 kIpProtoUdp = 17;
/// IANA-assigned UDP destination port for RoCE v2.
inline constexpr u16 kRoceUdpPort = 4791;

/// Layer-1 overhead per frame that occupies the wire but is not part of the
/// frame itself: preamble + SFD (8 B) and minimum inter-frame gap (12 B).
inline constexpr u32 kPhyOverheadBytes = 20;
/// Frame check sequence appended to every Ethernet frame.
inline constexpr u32 kEthernetFcsBytes = 4;

struct EthernetHeader {
  MacAddr dst_mac = 0;
  MacAddr src_mac = 0;
  u16 ethertype = kEtherTypeIpv4;

  static constexpr u32 kWireSize = 14;
};

struct Ipv4Header {
  u8 dscp_ecn = 0;
  u16 total_length = 0;  ///< header + payload, bytes
  u8 ttl = 64;
  u8 protocol = kIpProtoUdp;
  Ipv4Addr src = 0;
  Ipv4Addr dst = 0;

  static constexpr u32 kWireSize = 20;
};

struct UdpHeader {
  u16 src_port = 0;
  u16 dst_port = kRoceUdpPort;
  u16 length = 0;  ///< header + payload, bytes

  static constexpr u32 kWireSize = 8;
};

/// Build an address 10.0.`hi`.`lo` (host order).
constexpr Ipv4Addr make_ip(u8 hi, u8 lo) noexcept {
  return (10u << 24) | (0u << 16) | (static_cast<u32>(hi) << 8) | lo;
}

}  // namespace p4ce::net
