// InfiniBand / RoCE v2 transport headers (IBTA spec vol. 1): BTH (base
// transport header), RETH (RDMA extended transport header), AETH (ACK
// extended transport header), the atomic headers, and the connection-manager
// messages exchanged during the handshake (ConnectRequest / ConnectReply /
// ReadyToUse / ConnectReject). Headers travel as structs; each one's wire
// size is a constant (`kWireSize`, or `wire_size()` where it varies).
//
// These are exactly the fields the P4CE switch rewrites during scatter and
// gather (paper Table I), so fidelity here is what makes the in-network
// transformations meaningful.
#pragma once

#include <string_view>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace p4ce::rdma {

/// Reliable-connection opcodes (IBTA values).
///
/// The atomic opcodes follow the IBTA RC numbering: a CompareSwap or
/// FetchAdd request is a single packet carrying the AtomicETH (below), and
/// the responder answers with a single AtomicAcknowledge packet carrying
/// both an AETH (credits / MSN, like any ACK) and the AtomicAckETH holding
/// the original 64-bit value. MaskedCompareSwap is the ConnectX "extended
/// atomics" masked variant; real HW negotiates it as a vendor extension with
/// its own opcode space, which we flatten into the next free RC opcode —
/// a documented modeling liberty, not an IBTA number.
enum class Opcode : u8 {
  kSendFirst = 0x00,
  kSendMiddle = 0x01,
  kSendLast = 0x02,
  kSendOnly = 0x04,
  kWriteFirst = 0x06,
  kWriteMiddle = 0x07,
  kWriteLast = 0x08,
  kWriteOnly = 0x0a,
  kReadRequest = 0x0c,
  kReadResponseFirst = 0x0d,
  kReadResponseMiddle = 0x0e,
  kReadResponseLast = 0x0f,
  kReadResponseOnly = 0x10,
  kAcknowledge = 0x11,
  kAtomicAcknowledge = 0x12,
  kCompareSwap = 0x13,
  kFetchAdd = 0x14,
  kMaskedCompareSwap = 0x15,  ///< ConnectX extended atomic (modeling liberty)
};

std::string_view to_string(Opcode op) noexcept;

constexpr bool is_write(Opcode op) noexcept {
  return op == Opcode::kWriteFirst || op == Opcode::kWriteMiddle || op == Opcode::kWriteLast ||
         op == Opcode::kWriteOnly;
}
constexpr bool is_read_request(Opcode op) noexcept { return op == Opcode::kReadRequest; }
constexpr bool is_read_response(Opcode op) noexcept {
  return op >= Opcode::kReadResponseFirst && op <= Opcode::kReadResponseOnly;
}
/// True for the single-packet verbs atomic requests (CAS / FAA / masked CAS).
constexpr bool is_atomic(Opcode op) noexcept {
  return op == Opcode::kCompareSwap || op == Opcode::kFetchAdd ||
         op == Opcode::kMaskedCompareSwap;
}
constexpr bool is_atomic_response(Opcode op) noexcept {
  return op == Opcode::kAtomicAcknowledge;
}
constexpr bool is_request(Opcode op) noexcept {
  return is_write(op) || is_read_request(op) || is_atomic(op);
}
/// True for the packet of a message that carries the RETH header.
constexpr bool carries_reth(Opcode op) noexcept {
  return op == Opcode::kWriteFirst || op == Opcode::kWriteOnly || op == Opcode::kReadRequest;
}
/// True for the final packet of a multi-packet message (or a single-packet one).
constexpr bool is_last_or_only(Opcode op) noexcept {
  return op == Opcode::kWriteLast || op == Opcode::kWriteOnly || op == Opcode::kSendLast ||
         op == Opcode::kSendOnly || op == Opcode::kReadResponseLast ||
         op == Opcode::kReadResponseOnly;
}

/// Base transport header: present in every RoCE packet.
struct Bth {
  Opcode opcode = Opcode::kWriteOnly;
  bool solicited_event = false;
  bool ack_request = false;
  u16 partition_key = 0xffff;
  Qpn dest_qp = 0;  ///< 24-bit queue pair identifier ("like a TCP port")
  Psn psn = 0;      ///< 24-bit packet sequence number

  static constexpr u32 kWireSize = 12;
};

/// RDMA extended transport header: carried by WriteFirst/WriteOnly/ReadRequest.
struct Reth {
  u64 vaddr = 0;    ///< remote virtual address the operation targets
  RKey rkey = 0;    ///< authentication key for the target memory region
  u32 dma_len = 0;  ///< total length of the RDMA operation, bytes

  static constexpr u32 kWireSize = 16;
};

/// NAK codes (subset relevant to this system).
enum class NakCode : u8 {
  kPsnSequenceError = 0,
  kInvalidRequest = 1,
  kRemoteAccessError = 2,
  kRemoteOperationalError = 3,
};

std::string_view to_string(NakCode c) noexcept;

/// ACK extended transport header, carried by Acknowledge and ReadResponse
/// packets. The syndrome byte encodes ACK-with-credits or NAK-with-code.
///
/// Simplification vs IBTA: the real spec encodes credits with a 5-bit
/// log-ish table; we store the credit count directly in the 5 bits
/// (0..31), which preserves the protocol role (receiver-buffer
/// backpressure) with a simpler encoding.
struct Aeth {
  bool is_nak = false;
  NakCode nak_code = NakCode::kPsnSequenceError;
  u8 credits = 0;  ///< requests the responder can still buffer (0..31)
  u32 msn = 0;     ///< message sequence number (24-bit)

  static constexpr u32 kWireSize = 4;
};

/// Atomic extended transport header, carried by CompareSwap / FetchAdd /
/// MaskedCompareSwap request packets (one packet per atomic; atomics never
/// segment). Wire layout, network byte order:
///
///   vaddr      u64   remote address of the 8-byte target word
///   rkey       u32   authentication key for the target region
///   swap_add   u64   CAS: value swapped in on compare match
///                    FAA: value added to the target word
///   compare    u64   CAS: expected original value (ignored by FAA)
///   [swap_mask    u64]  masked CAS only: which bits of swap_add are written
///   [compare_mask u64]  masked CAS only: which bits of compare are checked
///
/// 28 bytes for CAS/FAA (the IBTA AtomicETH size); the masked variant
/// appends the two masks for 44 bytes, mirroring the ConnectX extended-
/// atomics layout. On the wire the BTH opcode says whether the masks are
/// present; the struct carries that as `masked`.
struct AtomicEth {
  u64 vaddr = 0;
  RKey rkey = 0;
  u64 swap_add = 0;
  u64 compare = 0;
  bool masked = false;     ///< true iff the masks travel on the wire
  u64 swap_mask = ~0ull;
  u64 compare_mask = ~0ull;

  static constexpr u32 kWireSize = 28;        ///< CAS / FAA
  static constexpr u32 kMaskedWireSize = 44;  ///< masked CAS
  u32 wire_size() const noexcept { return masked ? kMaskedWireSize : kWireSize; }
};

/// Atomic ACK extended transport header, carried by AtomicAcknowledge
/// packets right after the AETH: the 8-byte original value of the target
/// word, read before the atomic was applied (IBTA AtomicAckETH).
struct AtomicAckEth {
  u64 original = 0;

  static constexpr u32 kWireSize = 8;
};

/// Connection-manager message types (MADs on QP1 in real InfiniBand; we model
/// them as RoCE packets addressed to the well-known CM queue pair).
enum class CmType : u8 {
  kConnectRequest = 1,
  kConnectReply = 2,
  kReadyToUse = 3,
  kConnectReject = 4,
  kDisconnectRequest = 5,
};

std::string_view to_string(CmType t) noexcept;

inline constexpr Qpn kCmQpn = 1;  ///< well-known queue pair for CM traffic

/// Connection-manager handshake message. `private_data` carries
/// application-defined bytes; P4CE uses it to transmit the replica set
/// (ConnectRequest) and the virtual address / virtual R_key (ConnectReply),
/// exactly as described in §IV-A of the paper.
struct CmMessage {
  CmType type = CmType::kConnectRequest;
  u32 transaction_id = 0;   ///< matches replies to requests
  Qpn sender_qpn = 0;       ///< QP the sender created for this connection
  Psn starting_psn = 0;     ///< first PSN the sender will use on its requests
  u16 service_id = 0;       ///< which listener the request targets
  u8 reject_reason = 0;     ///< for ConnectReject
  Bytes private_data;       ///< up to kMaxPrivateData bytes

  static constexpr std::size_t kMaxPrivateData = 196;  // IBTA CM REQ limit

  /// type, reject reason (1 B each), service id (2 B), transaction id (4 B),
  /// QPN and starting PSN (3 B each), private-data length (2 B), then the
  /// private data.
  u32 wire_size() const noexcept { return 16 + static_cast<u32>(private_data.size()); }
};

/// The ICRC trailer each RoCE v2 packet carries.
inline constexpr u32 kIcrcBytes = 4;

}  // namespace p4ce::rdma
