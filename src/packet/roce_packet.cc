#include "packet/roce_packet.h"

#include <algorithm>

#include "packet/bytes.h"
#include "packet/icrc.h"
#include "packet/packet_arena.h"

namespace lumina {
namespace {

constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
constexpr std::uint8_t kIpProtoUdp = 17;
constexpr std::size_t kCnpPayloadLen = 16;  // 16 reserved bytes per RoCEv2

std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < bytes.size(); i += 2) {
    sum += static_cast<std::uint32_t>(bytes[i]) << 8 | bytes[i + 1];
  }
  if (bytes.size() % 2 != 0) {
    sum += static_cast<std::uint32_t>(bytes.back()) << 8;
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

/// Whether a spec carries exactly the extension headers decode_roce reads
/// for its opcode (in the same order the builder writes them).
bool extensions_match_opcode(const RocePacketSpec& spec) {
  return ExtensionHeaders{spec.reth.has_value(), spec.aeth.has_value(),
                          spec.atomic_eth.has_value(),
                          spec.atomic_ack_eth.has_value()} ==
         extension_headers(spec.opcode);
}

/// True when the packet's cached view is valid (for some parse mode).
bool view_cached(const Packet& pkt) {
  return pkt.view_state == ViewCacheState::kFull ||
         pkt.view_state == ViewCacheState::kTrimmed;
}

/// The actual decoder. `short_frame` reports whether the frame is shorter
/// than the IP total length (success then required allow_trimmed).
std::optional<RoceView> decode_roce(std::span<const std::uint8_t> frame,
                                    bool allow_trimmed, bool* short_frame) {
  ByteReader r(frame);
  RoceView v;
  *short_frame = false;

  // Ethernet.
  for (auto& o : v.eth_dst.octets) o = r.u8();
  for (auto& o : v.eth_src.octets) o = r.u8();
  if (r.u16() != kEtherTypeIpv4) return std::nullopt;
  // IPv4.
  if (r.u8() != 0x45) return std::nullopt;
  const std::uint8_t tos = r.u8();
  v.dscp = tos >> 2;
  v.ecn = tos & 0b11;
  const std::uint16_t total_len = r.u16();
  r.skip(4);  // id, flags/frag
  v.ttl = r.u8();
  if (r.u8() != kIpProtoUdp) return std::nullopt;
  r.skip(2);  // checksum
  v.src_ip.value = r.u32();
  v.dst_ip.value = r.u32();
  const std::size_t declared_size = total_len + 14u;
  if (declared_size != frame.size() &&
      !(allow_trimmed && declared_size > frame.size())) {
    return std::nullopt;
  }
  // UDP.
  v.udp_src_port = r.u16();
  v.udp_dst_port = r.u16();
  r.skip(4);  // length, checksum
  // BTH.
  const std::uint8_t opcode = r.u8();
  v.bth.opcode = static_cast<IbOpcode>(opcode);
  const std::uint8_t flags = r.u8();
  v.bth.solicited = (flags & 0x80) != 0;
  v.bth.mig_req = (flags & 0x40) != 0;
  v.bth.pad_count = (flags >> 4) & 0b11;
  v.bth.tver = flags & 0x0f;
  v.bth.pkey = r.u16();
  r.skip(1);  // resv8a
  v.bth.dest_qpn = r.u24();
  v.bth.ack_req = (r.u8() & 0x80) != 0;
  v.bth.psn = r.u24();
  if (!r.ok()) return std::nullopt;

  const ExtensionHeaders ext = extension_headers(v.bth.opcode);
  if (ext.reth) {
    Reth reth;
    reth.vaddr = r.u64();
    reth.rkey = r.u32();
    reth.dma_len = r.u32();
    v.reth = reth;
  }
  if (ext.aeth) {
    Aeth aeth;
    aeth.syndrome = r.u8();
    aeth.msn = r.u24();
    v.aeth = aeth;
  }
  if (ext.atomic_eth) {
    AtomicEth atomic;
    atomic.vaddr = r.u64();
    atomic.rkey = r.u32();
    atomic.swap_add = r.u64();
    atomic.compare = r.u64();
    v.atomic_eth = atomic;
  }
  if (ext.atomic_ack_eth) {
    v.atomic_ack_eth = AtomicAckEth{r.u64()};
  }
  if (!r.ok()) return std::nullopt;

  v.payload_offset = r.offset();
  if (declared_size == frame.size()) {
    if (r.remaining() < 4) return std::nullopt;
    v.payload_len = r.remaining() - 4;
    ByteReader tail(frame.subspan(frame.size() - 4));
    v.icrc = tail.u32();
  } else {
    // Trimmed capture: derive the payload length from the IP header.
    if (declared_size < v.payload_offset + 4) return std::nullopt;
    v.payload_len = declared_size - v.payload_offset - 4;
    v.icrc = 0;
    *short_frame = true;
  }
  return v;
}

/// Decodes on a cache miss and records the outcome in the packet's cache.
std::optional<RoceView> decode_and_cache(const Packet& pkt,
                                         bool allow_trimmed) {
  bool short_frame = false;
  const auto v = decode_roce(pkt.span(), allow_trimmed, &short_frame);
  if (v) {
    pkt.view = *v;
    pkt.view_state =
        short_frame ? ViewCacheState::kTrimmed : ViewCacheState::kFull;
  } else {
    pkt.view_state = allow_trimmed ? ViewCacheState::kUnparseable
                                   : ViewCacheState::kNotFull;
  }
  return v;
}

}  // namespace

std::string to_string(EventType t) {
  switch (t) {
    case EventType::kNone: return "none";
    case EventType::kEcn: return "ecn";
    case EventType::kDrop: return "drop";
    case EventType::kCorrupt: return "corrupt";
    case EventType::kRewriteMigReq: return "rewrite-migreq";
    case EventType::kDelay: return "delay";
    case EventType::kReorder: return "reorder";
    case EventType::kDuplicate: return "duplicate";
    case EventType::kBurstLoss: return "burst-loss";
    case EventType::kPauseStorm: return "pause-storm";
    case EventType::kLinkFlap: return "link-flap";
  }
  return "unknown";
}

void Packet::clone_into(Packet& out, std::size_t max_bytes) const {
  const std::size_t n = std::min(bytes.size(), max_bytes);
  out.bytes.assign(bytes.begin(),
                   bytes.begin() + static_cast<std::ptrdiff_t>(n));
  if (n == bytes.size()) {
    // Identical bytes -> identical parse: the copy inherits the cache
    // verbatim, whatever state it is in.
    out.view = view;
    out.view_state = view_state;
    return;
  }
  if (view_state == ViewCacheState::kFull && n >= view.payload_offset) {
    // The headers survive the trim, so the full view still describes the
    // copy — except the iCRC, which the trimmed parser reports as 0.
    out.view = view;
    out.view.icrc = 0;
    out.view_state = ViewCacheState::kTrimmed;
  } else {
    out.view_state = ViewCacheState::kUnknown;
  }
}

Packet Packet::clone_arena(std::size_t max_bytes) const {
  Packet out{PacketArena::acquire_current()};
  clone_into(out, max_bytes);
  return out;
}

Packet build_roce_packet(const RocePacketSpec& spec) {
  const std::size_t payload_len =
      spec.opcode == IbOpcode::kCnp ? kCnpPayloadLen : spec.payload_len;
  const std::size_t payload_at =
      off::kBth + Bth::kWireSize + (spec.reth ? Reth::kWireSize : 0) +
      (spec.aeth ? Aeth::kWireSize : 0) +
      (spec.atomic_eth ? AtomicEth::kWireSize : 0) +
      (spec.atomic_ack_eth ? AtomicAckEth::kWireSize : 0);
  const std::size_t frame_len = payload_at + payload_len + 4;  // +4 iCRC
  const std::size_t ip_len = frame_len - off::kIp;
  const std::uint8_t tos =
      static_cast<std::uint8_t>(spec.dscp << 2 | (spec.ecn & 0b11));

  // One buffer, sized once: every byte below is a direct store.
  Packet pkt{PacketArena::acquire_current()};
  pkt.bytes.resize(frame_len);
  ByteStore s(pkt.bytes.data());
  // Ethernet.
  s.raw(spec.dst_mac.octets);
  s.raw(spec.src_mac.octets);
  s.u16(kEtherTypeIpv4);
  // IPv4 (no options).
  s.u8(0x45);
  s.u8(tos);
  s.u16(static_cast<std::uint16_t>(ip_len));
  s.u16(0);       // identification
  s.u16(0x4000);  // DF
  s.u8(spec.ttl);
  s.u8(kIpProtoUdp);
  s.u16(0);  // checksum, filled in below
  s.u32(spec.src_ip.value);
  s.u32(spec.dst_ip.value);
  // UDP.
  s.u16(spec.src_udp_port);
  s.u16(kRoceUdpPort);
  s.u16(static_cast<std::uint16_t>(frame_len - off::kUdp));
  s.u16(0);  // UDP checksum optional for IPv4; RoCEv2 senders emit 0
  // BTH.
  s.u8(static_cast<std::uint8_t>(spec.opcode));
  s.u8(static_cast<std::uint8_t>(spec.mig_req ? 0x40 : 0x00));
  s.u16(0xffff);  // pkey
  s.u8(0);        // resv8a
  s.u24(spec.dest_qpn & kPsnMask);
  // Fold ack_req into the top bit of the PSN word, per BTH layout.
  s.u8(static_cast<std::uint8_t>(spec.ack_req ? 0x80 : 0x00));
  s.u24(spec.psn & kPsnMask);

  if (spec.reth) {
    s.u64(spec.reth->vaddr);
    s.u32(spec.reth->rkey);
    s.u32(spec.reth->dma_len);
  }
  if (spec.aeth) {
    s.u8(spec.aeth->syndrome);
    s.u24(spec.aeth->msn & kPsnMask);
  }
  if (spec.atomic_eth) {
    s.u64(spec.atomic_eth->vaddr);
    s.u32(spec.atomic_eth->rkey);
    s.u64(spec.atomic_eth->swap_add);
    s.u64(spec.atomic_eth->compare);
  }
  if (spec.atomic_ack_eth) {
    s.u64(spec.atomic_ack_eth->original);
  }
  // Deterministic payload pattern (content is irrelevant to the analyzers,
  // but the bytes must exist so iCRC/corruption behave like hardware).
  std::uint8_t* const payload = s.pos();
  std::uint8_t pattern = static_cast<std::uint8_t>(spec.psn);
  for (std::size_t i = 0; i < payload_len; ++i) payload[i] = pattern++;

  refresh_ip_checksum(pkt);

  // Seed the parse view from the spec when the frame parses back to it:
  // its extension headers are the ones decode_roce reads for the opcode,
  // and its length fits the IPv4 total-length field.
  if (extensions_match_opcode(spec) && ip_len <= 0xffff) {
    RoceView& v = pkt.view;
    v.eth_dst = spec.dst_mac;
    v.eth_src = spec.src_mac;
    v.src_ip = spec.src_ip;
    v.dst_ip = spec.dst_ip;
    v.ttl = spec.ttl;
    v.dscp = tos >> 2;
    v.ecn = tos & 0b11;
    v.udp_src_port = spec.src_udp_port;
    v.udp_dst_port = kRoceUdpPort;
    v.bth = Bth{};
    v.bth.opcode = spec.opcode;
    v.bth.mig_req = spec.mig_req;
    v.bth.dest_qpn = spec.dest_qpn & kPsnMask;
    v.bth.ack_req = spec.ack_req;
    v.bth.psn = spec.psn & kPsnMask;
    v.reth = spec.reth;
    v.aeth = spec.aeth;
    if (v.aeth) v.aeth->msn &= kPsnMask;
    v.atomic_eth = spec.atomic_eth;
    v.atomic_ack_eth = spec.atomic_ack_eth;
    v.payload_offset = payload_at;
    v.payload_len = payload_len;
    pkt.view_state = ViewCacheState::kFull;
  }
  refresh_icrc(pkt);  // the trailer, and a seeded view's icrc
  return pkt;
}

std::optional<RoceView> parse_roce(const Packet& pkt, bool allow_trimmed) {
  switch (pkt.view_state) {
    case ViewCacheState::kFull:
      return pkt.view;
    case ViewCacheState::kTrimmed:
      if (allow_trimmed) return pkt.view;
      return std::nullopt;
    case ViewCacheState::kUnparseable:
      return std::nullopt;
    case ViewCacheState::kNotFull:
      // The full parse was rejected; a trimmed parse is more permissive and
      // still has to run once.
      if (!allow_trimmed) return std::nullopt;
      return decode_and_cache(pkt, /*allow_trimmed=*/true);
    case ViewCacheState::kUnknown:
      break;
  }
  return decode_and_cache(pkt, allow_trimmed);
}

std::optional<RoceView> parse_roce_bytes(std::span<const std::uint8_t> bytes,
                                         bool allow_trimmed) {
  bool short_frame = false;
  return decode_roce(bytes, allow_trimmed, &short_frame);
}

bool verify_icrc(const Packet& pkt) {
  if (pkt.size() < off::kBth + Bth::kWireSize + 4) return false;
  const std::uint32_t want = frame_icrc(pkt);
  ByteReader tail(pkt.span().subspan(pkt.size() - 4));
  return tail.u32() == want;
}

std::uint32_t frame_icrc(const Packet& pkt) {
  return compute_icrc(pkt.span().first(pkt.size() - 4), off::kIp);
}

void refresh_icrc(Packet& pkt) {
  const std::uint32_t icrc = frame_icrc(pkt);
  poke_u16(pkt.span(), pkt.size() - 4, static_cast<std::uint16_t>(icrc >> 16));
  poke_u16(pkt.span(), pkt.size() - 2, static_cast<std::uint16_t>(icrc));
  if (pkt.view_state == ViewCacheState::kFull) pkt.view.icrc = icrc;
}

void set_ecn_ce(Packet& pkt) {
  pkt.bytes[off::kIpTos] |= 0b11;
  refresh_ip_checksum(pkt);
  if (view_cached(pkt)) pkt.view.ecn = 0b11;
}

void set_ttl(Packet& pkt, std::uint8_t ttl) {
  pkt.bytes[off::kIpTtl] = ttl;
  refresh_ip_checksum(pkt);
  if (view_cached(pkt)) pkt.view.ttl = ttl;
}

void set_src_mac(Packet& pkt, std::uint64_t value48) {
  poke_u48(pkt.span(), off::kEthSrc, value48);
  if (view_cached(pkt)) pkt.view.eth_src = MacAddress::from_u48(value48);
}

void set_dst_mac(Packet& pkt, std::uint64_t value48) {
  poke_u48(pkt.span(), off::kEthDst, value48);
  if (view_cached(pkt)) pkt.view.eth_dst = MacAddress::from_u48(value48);
}

void set_udp_dst_port(Packet& pkt, std::uint16_t port) {
  poke_u16(pkt.span(), off::kUdpDstPort, port);
  if (view_cached(pkt)) pkt.view.udp_dst_port = port;
}

void set_mig_req(Packet& pkt, bool mig_req) {
  const std::uint8_t old_flags = pkt.bytes[off::kBthFlags];
  const std::uint8_t new_flags =
      mig_req ? static_cast<std::uint8_t>(old_flags | 0x40)
              : static_cast<std::uint8_t>(old_flags & ~0x40);
  pkt.bytes[off::kBthFlags] = new_flags;

  // MigReq is covered by the iCRC. CRC32 is linear over GF(2), so the new
  // trailer is the old one xored with the CRC of a delta message that is
  // zero everywhere except the flipped flags byte — one table step for the
  // delta byte plus an O(log n) zero-byte advance over the tail, instead
  // of a full-frame recompute. A frame whose trailer was already stale
  // (e.g. an injected corruption) stays exactly as stale, matching what a
  // switch data plane's incremental checksum update would do.
  const std::uint8_t delta = old_flags ^ new_flags;
  const std::size_t tail_len = pkt.size() - 4 - off::kBthFlags - 1;
  std::uint32_t delta_crc =
      crc32_update(0, std::span<const std::uint8_t>(&delta, 1));
  delta_crc = crc32_zero_advance(delta_crc, tail_len);

  ByteReader tail(pkt.span().subspan(pkt.size() - 4));
  const std::uint32_t icrc = tail.u32() ^ delta_crc;
  poke_u16(pkt.span(), pkt.size() - 4, static_cast<std::uint16_t>(icrc >> 16));
  poke_u16(pkt.span(), pkt.size() - 2, static_cast<std::uint16_t>(icrc));

  if (view_cached(pkt)) {
    pkt.view.bth.mig_req = mig_req;
    // Trimmed parses always report icrc 0; only full views track the
    // trailer.
    if (pkt.view_state == ViewCacheState::kFull) pkt.view.icrc = icrc;
  }
}

void corrupt_payload_bit(Packet& pkt, std::size_t bit_index) {
  const auto view = parse_roce(pkt);
  std::size_t byte_at;
  if (view && view->payload_len > 0) {
    // Payload bytes are invisible to the parse view: the cache stays valid.
    byte_at = view->payload_offset + (bit_index / 8) % view->payload_len;
  } else {
    // Header-byte fallback (or an unparseable frame): the flip lands where
    // the cache cannot describe it — drop it.
    byte_at = pkt.size() - 5;  // last byte before the iCRC
    pkt.invalidate_view();
  }
  pkt.bytes[byte_at] ^= static_cast<std::uint8_t>(1u << (bit_index % 8));
}

void refresh_ip_checksum(Packet& pkt) {
  poke_u16(pkt.span(), off::kIpCsum, 0);
  const std::uint16_t csum =
      internet_checksum(pkt.span().subspan(off::kIp, 20));
  poke_u16(pkt.span(), off::kIpCsum, csum);
}

}  // namespace lumina
