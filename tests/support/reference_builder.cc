#include "support/reference_builder.h"

#include <span>
#include <vector>

#include "packet/packet_arena.h"

namespace lumina {
namespace {

/// Appends big-endian fields to a growing vector, one push_back a byte.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u24(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void raw(std::span<const std::uint8_t> bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

 private:
  std::vector<std::uint8_t>& out_;
};

constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
constexpr std::uint8_t kIpProtoUdp = 17;
constexpr std::size_t kCnpPayloadLen = 16;  // 16 reserved bytes per RoCEv2

}  // namespace

Packet build_roce_packet_reference(const RocePacketSpec& spec) {
  Packet pkt;
  pkt.bytes = PacketArena::acquire_current();
  const std::size_t payload_len =
      spec.opcode == IbOpcode::kCnp ? kCnpPayloadLen : spec.payload_len;
  const std::size_t ib_len =
      Bth::kWireSize + (spec.reth ? Reth::kWireSize : 0) +
      (spec.aeth ? Aeth::kWireSize : 0) +
      (spec.atomic_eth ? AtomicEth::kWireSize : 0) +
      (spec.atomic_ack_eth ? AtomicAckEth::kWireSize : 0) + payload_len +
      4;  // +4 iCRC
  const std::size_t udp_len = 8 + ib_len;
  const std::size_t ip_len = 20 + udp_len;
  pkt.bytes.reserve(14 + ip_len);

  ByteWriter w(pkt.bytes);
  // Ethernet.
  w.raw(spec.dst_mac.octets);
  w.raw(spec.src_mac.octets);
  w.u16(kEtherTypeIpv4);
  // IPv4 (no options).
  w.u8(0x45);
  w.u8(static_cast<std::uint8_t>(spec.dscp << 2 | (spec.ecn & 0b11)));
  w.u16(static_cast<std::uint16_t>(ip_len));
  w.u16(0);       // identification
  w.u16(0x4000);  // DF
  w.u8(spec.ttl);
  w.u8(kIpProtoUdp);
  w.u16(0);  // checksum placeholder
  w.u32(spec.src_ip.value);
  w.u32(spec.dst_ip.value);
  // UDP.
  w.u16(spec.src_udp_port);
  w.u16(kRoceUdpPort);
  w.u16(static_cast<std::uint16_t>(udp_len));
  w.u16(0);  // UDP checksum optional for IPv4; RoCEv2 senders emit 0
  // BTH.
  w.u8(static_cast<std::uint8_t>(spec.opcode));
  w.u8(static_cast<std::uint8_t>((spec.mig_req ? 0x40 : 0x00)));
  w.u16(0xffff);  // pkey
  w.u8(0);        // resv8a
  w.u24(spec.dest_qpn & kPsnMask);
  // Fold ack_req into the top bit of the PSN word, per BTH layout.
  w.u8(static_cast<std::uint8_t>(spec.ack_req ? 0x80 : 0x00));
  w.u24(spec.psn & kPsnMask);

  if (spec.reth) {
    w.u64(spec.reth->vaddr);
    w.u32(spec.reth->rkey);
    w.u32(spec.reth->dma_len);
  }
  if (spec.aeth) {
    w.u8(spec.aeth->syndrome);
    w.u24(spec.aeth->msn & kPsnMask);
  }
  if (spec.atomic_eth) {
    w.u64(spec.atomic_eth->vaddr);
    w.u32(spec.atomic_eth->rkey);
    w.u64(spec.atomic_eth->swap_add);
    w.u64(spec.atomic_eth->compare);
  }
  if (spec.atomic_ack_eth) {
    w.u64(spec.atomic_ack_eth->original);
  }
  // Deterministic payload pattern.
  const std::size_t payload_at = pkt.bytes.size();
  pkt.bytes.resize(payload_at + payload_len);
  std::uint8_t* payload = pkt.bytes.data() + payload_at;
  for (std::size_t i = 0; i < payload_len; ++i) {
    payload[i] = static_cast<std::uint8_t>(spec.psn + i);
  }

  refresh_ip_checksum(pkt);
  w.u32(0);  // iCRC placeholder
  refresh_icrc(pkt);
  return pkt;
}

}  // namespace lumina
