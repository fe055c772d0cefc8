// InfiniBand transport headers as used by RoCEv2 (IBTA spec vol. 1).
//
// Only the RC (Reliable Connection) opcodes exercised by Lumina's traffic
// generator are modeled: Send, RDMA Write, RDMA Read, Acknowledge, plus the
// RoCEv2 CNP used by DCQCN.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace lumina {

/// BTH opcode values. The top three bits select the transport service
/// (000b = RC); the CNP opcode 0x81 is the RoCEv2 congestion notification
/// packet defined outside the RC space.
enum class IbOpcode : std::uint8_t {
  kSendFirst = 0x00,
  kSendMiddle = 0x01,
  kSendLast = 0x02,
  kSendOnly = 0x04,
  kWriteFirst = 0x06,
  kWriteMiddle = 0x07,
  kWriteLast = 0x08,
  kWriteOnly = 0x0a,
  kReadRequest = 0x0c,
  kReadRespFirst = 0x0d,
  kReadRespMiddle = 0x0e,
  kReadRespLast = 0x0f,
  kReadRespOnly = 0x10,
  kAcknowledge = 0x11,
  kAtomicAck = 0x12,
  kCmpSwap = 0x13,
  kFetchAdd = 0x14,
  kCnp = 0x81,
};

/// Every modeled opcode, in enum order.
inline constexpr IbOpcode kIbOpcodes[] = {
    IbOpcode::kSendFirst,      IbOpcode::kSendMiddle,
    IbOpcode::kSendLast,       IbOpcode::kSendOnly,
    IbOpcode::kWriteFirst,     IbOpcode::kWriteMiddle,
    IbOpcode::kWriteLast,      IbOpcode::kWriteOnly,
    IbOpcode::kReadRequest,    IbOpcode::kReadRespFirst,
    IbOpcode::kReadRespMiddle, IbOpcode::kReadRespLast,
    IbOpcode::kReadRespOnly,   IbOpcode::kAcknowledge,
    IbOpcode::kAtomicAck,      IbOpcode::kCmpSwap,
    IbOpcode::kFetchAdd,       IbOpcode::kCnp,
};

std::string to_string(IbOpcode op);

/// True for opcodes that carry message payload from requester or responder.
constexpr bool is_data_opcode(IbOpcode op) {
  switch (op) {
    case IbOpcode::kSendFirst:
    case IbOpcode::kSendMiddle:
    case IbOpcode::kSendLast:
    case IbOpcode::kSendOnly:
    case IbOpcode::kWriteFirst:
    case IbOpcode::kWriteMiddle:
    case IbOpcode::kWriteLast:
    case IbOpcode::kWriteOnly:
    case IbOpcode::kReadRespFirst:
    case IbOpcode::kReadRespMiddle:
    case IbOpcode::kReadRespLast:
    case IbOpcode::kReadRespOnly:
      return true;
    default:
      return false;
  }
}

constexpr bool is_read_response(IbOpcode op) {
  return op == IbOpcode::kReadRespFirst || op == IbOpcode::kReadRespMiddle ||
         op == IbOpcode::kReadRespLast || op == IbOpcode::kReadRespOnly;
}

constexpr bool is_send(IbOpcode op) {
  return op == IbOpcode::kSendFirst || op == IbOpcode::kSendMiddle ||
         op == IbOpcode::kSendLast || op == IbOpcode::kSendOnly;
}

constexpr bool is_write(IbOpcode op) {
  return op == IbOpcode::kWriteFirst || op == IbOpcode::kWriteMiddle ||
         op == IbOpcode::kWriteLast || op == IbOpcode::kWriteOnly;
}

/// True for the last packet of a message (completion-generating on ACK).
constexpr bool is_last_or_only(IbOpcode op) {
  switch (op) {
    case IbOpcode::kSendLast:
    case IbOpcode::kSendOnly:
    case IbOpcode::kWriteLast:
    case IbOpcode::kWriteOnly:
    case IbOpcode::kReadRespLast:
    case IbOpcode::kReadRespOnly:
      return true;
    default:
      return false;
  }
}

/// Base Transport Header (12 bytes).
struct Bth {
  IbOpcode opcode = IbOpcode::kSendOnly;
  bool solicited = false;
  /// MigReq bit. §6.2.3 of the paper: E810 sends 0, ConnectX sends 1, and
  /// the mismatch triggers CX5's APM slow path.
  bool mig_req = true;
  std::uint8_t pad_count = 0;  // 2 bits
  std::uint8_t tver = 0;       // 4 bits
  std::uint16_t pkey = 0xffff;
  std::uint32_t dest_qpn = 0;  // 24 bits
  bool ack_req = false;
  std::uint32_t psn = 0;  // 24 bits

  static constexpr std::size_t kWireSize = 12;

  bool operator==(const Bth&) const = default;
};

/// RDMA Extended Transport Header (16 bytes) — Write first/only packets and
/// Read requests.
struct Reth {
  std::uint64_t vaddr = 0;
  std::uint32_t rkey = 0;
  std::uint32_t dma_len = 0;

  static constexpr std::size_t kWireSize = 16;

  bool operator==(const Reth&) const = default;
};

/// Atomic Extended Transport Header (28 bytes) — CmpSwap and FetchAdd
/// requests.
struct AtomicEth {
  std::uint64_t vaddr = 0;
  std::uint32_t rkey = 0;
  std::uint64_t swap_add = 0;  ///< Add operand (FetchAdd) or swap value.
  std::uint64_t compare = 0;   ///< Compare operand (CmpSwap only).

  static constexpr std::size_t kWireSize = 28;

  bool operator==(const AtomicEth&) const = default;
};

/// Atomic ACK Extended Transport Header (8 bytes): the original value read
/// from responder memory, returned after the AETH.
struct AtomicAckEth {
  std::uint64_t original = 0;

  static constexpr std::size_t kWireSize = 8;

  bool operator==(const AtomicAckEth&) const = default;
};

constexpr bool is_atomic(IbOpcode op) {
  return op == IbOpcode::kCmpSwap || op == IbOpcode::kFetchAdd;
}

/// The extension headers that follow the BTH for an opcode, in wire order.
/// The parser reads exactly these; a builder spec that carries exactly
/// these gets a seeded parse view.
struct ExtensionHeaders {
  bool reth = false;
  bool aeth = false;
  bool atomic_eth = false;
  bool atomic_ack_eth = false;

  bool operator==(const ExtensionHeaders&) const = default;
};

constexpr ExtensionHeaders extension_headers(IbOpcode op) {
  return ExtensionHeaders{
      .reth = op == IbOpcode::kWriteFirst || op == IbOpcode::kWriteOnly ||
              op == IbOpcode::kReadRequest,
      .aeth = op == IbOpcode::kAcknowledge ||
              op == IbOpcode::kReadRespFirst ||
              op == IbOpcode::kReadRespLast ||
              op == IbOpcode::kReadRespOnly || op == IbOpcode::kAtomicAck,
      .atomic_eth = is_atomic(op),
      .atomic_ack_eth = op == IbOpcode::kAtomicAck,
  };
}

/// ACK Extended Transport Header (4 bytes) — ACK/NAK and read responses.
struct Aeth {
  std::uint8_t syndrome = 0;
  std::uint32_t msn = 0;  // 24 bits

  static constexpr std::size_t kWireSize = 4;

  bool operator==(const Aeth&) const = default;

  /// Positive ACK with unlimited credits (syndrome 000 11111b).
  static constexpr Aeth ack(std::uint32_t msn) { return Aeth{0x1f, msn}; }
  /// NAK, PSN sequence error (syndrome 011 00000b) — the Go-Back-N NACK.
  static constexpr Aeth nak_sequence_error(std::uint32_t msn) {
    return Aeth{0x60, msn};
  }
  /// RNR NAK (syndrome 001 TTTTTb): receiver not ready, retry after the
  /// encoded timer. The 5-bit timer field is the IBTA RNR timer code.
  static constexpr Aeth rnr_nak(std::uint32_t msn, std::uint8_t timer_code) {
    return Aeth{static_cast<std::uint8_t>(0x20 | (timer_code & 0x1f)), msn};
  }
  /// NAK, remote access error (syndrome 011 00010b): bad rkey or an access
  /// outside the registered memory region. Fatal to the QP.
  static constexpr Aeth nak_remote_access(std::uint32_t msn) {
    return Aeth{0x62, msn};
  }

  constexpr bool is_ack() const { return (syndrome & 0xe0) == 0x00; }
  constexpr bool is_nak() const { return (syndrome & 0xe0) == 0x60; }
  constexpr bool is_rnr_nak() const { return (syndrome & 0xe0) == 0x20; }
  constexpr std::uint8_t rnr_timer_code() const { return syndrome & 0x1f; }
  /// NAK code (valid when is_nak()): 0 = PSN sequence error (Go-Back-N),
  /// 2 = remote access error, per IBTA table 58.
  constexpr std::uint8_t nak_code() const { return syndrome & 0x1f; }
  constexpr bool is_seq_nak() const { return is_nak() && nak_code() == 0; }
  constexpr bool is_access_nak() const { return is_nak() && nak_code() == 2; }
};

/// 24-bit PSN arithmetic: wraps modulo 2^24; distances are interpreted in
/// the signed half-range, like TCP sequence comparison.
inline constexpr std::uint32_t kPsnMask = 0xffffff;

constexpr std::uint32_t psn_add(std::uint32_t psn, std::int64_t delta) {
  return static_cast<std::uint32_t>(
      (static_cast<std::int64_t>(psn) + delta) & kPsnMask);
}

/// Signed distance a-b in [-2^23, 2^23).
constexpr std::int32_t psn_distance(std::uint32_t a, std::uint32_t b) {
  std::int32_t d = static_cast<std::int32_t>((a - b) & kPsnMask);
  if (d >= (1 << 23)) d -= (1 << 24);
  return d;
}

constexpr bool psn_ge(std::uint32_t a, std::uint32_t b) {
  return psn_distance(a, b) >= 0;
}
constexpr bool psn_gt(std::uint32_t a, std::uint32_t b) {
  return psn_distance(a, b) > 0;
}

}  // namespace lumina
