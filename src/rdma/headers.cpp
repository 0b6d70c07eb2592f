#include "rdma/headers.hpp"

namespace p4ce::rdma {

std::string_view to_string(Opcode op) noexcept {
  switch (op) {
    case Opcode::kSendFirst: return "SEND_FIRST";
    case Opcode::kSendMiddle: return "SEND_MIDDLE";
    case Opcode::kSendLast: return "SEND_LAST";
    case Opcode::kSendOnly: return "SEND_ONLY";
    case Opcode::kWriteFirst: return "WRITE_FIRST";
    case Opcode::kWriteMiddle: return "WRITE_MIDDLE";
    case Opcode::kWriteLast: return "WRITE_LAST";
    case Opcode::kWriteOnly: return "WRITE_ONLY";
    case Opcode::kReadRequest: return "READ_REQUEST";
    case Opcode::kReadResponseFirst: return "READ_RESP_FIRST";
    case Opcode::kReadResponseMiddle: return "READ_RESP_MIDDLE";
    case Opcode::kReadResponseLast: return "READ_RESP_LAST";
    case Opcode::kReadResponseOnly: return "READ_RESP_ONLY";
    case Opcode::kAcknowledge: return "ACK";
    case Opcode::kAtomicAcknowledge: return "ATOMIC_ACK";
    case Opcode::kCompareSwap: return "CMP_SWAP";
    case Opcode::kFetchAdd: return "FETCH_ADD";
    case Opcode::kMaskedCompareSwap: return "MASKED_CMP_SWAP";
  }
  return "UNKNOWN_OPCODE";
}

std::string_view to_string(NakCode c) noexcept {
  switch (c) {
    case NakCode::kPsnSequenceError: return "PSN_SEQUENCE_ERROR";
    case NakCode::kInvalidRequest: return "INVALID_REQUEST";
    case NakCode::kRemoteAccessError: return "REMOTE_ACCESS_ERROR";
    case NakCode::kRemoteOperationalError: return "REMOTE_OPERATIONAL_ERROR";
  }
  return "UNKNOWN_NAK";
}

std::string_view to_string(CmType t) noexcept {
  switch (t) {
    case CmType::kConnectRequest: return "ConnectRequest";
    case CmType::kConnectReply: return "ConnectReply";
    case CmType::kReadyToUse: return "ReadyToUse";
    case CmType::kConnectReject: return "ConnectReject";
    case CmType::kDisconnectRequest: return "DisconnectRequest";
  }
  return "UnknownCm";
}

}  // namespace p4ce::rdma
