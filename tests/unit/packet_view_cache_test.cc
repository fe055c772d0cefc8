// The parse-view cache invalidation contract (docs/packet.md): every
// in-place mutator must leave the cached view identical to what a fresh
// decode of the mutated bytes would produce, across full, trimmed, and
// arena-recycled packets.
#include <gtest/gtest.h>

#include "packet/addresses.h"
#include "packet/bytes.h"
#include "packet/packet_arena.h"
#include "packet/roce_packet.h"

namespace lumina {
namespace {

RocePacketSpec base_spec() {
  RocePacketSpec spec;
  spec.src_mac = MacAddress::from_u48(0x0200000000aa);
  spec.dst_mac = MacAddress::from_u48(0x0200000000bb);
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.opcode = IbOpcode::kWriteOnly;
  spec.reth = Reth{0x2000, 0x42, 1024};
  spec.payload_len = 1024;
  spec.dest_qpn = 0x010203;
  spec.psn = 0x000042;
  return spec;
}

/// Fresh decode of the same bytes, bypassing pkt's cache.
RoceView fresh_view(const Packet& pkt, bool allow_trimmed = false) {
  Packet copy;
  copy.bytes = pkt.bytes;
  const auto view = parse_roce(copy, allow_trimmed);
  EXPECT_TRUE(view.has_value());
  return view.value_or(RoceView{});
}

TEST(ViewCache, BuilderSeedsTheViewAFreshDecodeWouldProduce) {
  const Packet pkt = build_roce_packet(base_spec());
  EXPECT_EQ(pkt.view_state, ViewCacheState::kFull);
  EXPECT_EQ(pkt.view, fresh_view(pkt));
  EXPECT_EQ(parse_roce(pkt), fresh_view(pkt));
}

TEST(ViewCache, FirstParsePopulatesAndRepeatParsesServe) {
  Packet pkt = build_roce_packet(base_spec());
  pkt.invalidate_view();  // as if the bytes had come off a wire
  EXPECT_EQ(pkt.view_state, ViewCacheState::kUnknown);
  const auto first = parse_roce(pkt);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(pkt.view_state, ViewCacheState::kFull);
  // Later hops (any parse mode — a full view satisfies both).
  EXPECT_EQ(parse_roce(pkt), first);
  EXPECT_EQ(parse_roce(pkt, /*allow_trimmed=*/true), first);
}

TEST(ViewCache, EveryMutatorAgreesWithFreshParse) {
  Packet pkt = build_roce_packet(base_spec());
  ASSERT_TRUE(parse_roce(pkt).has_value());

  set_ecn_ce(pkt);
  EXPECT_EQ(pkt.view, fresh_view(pkt)) << "set_ecn_ce";
  set_ttl(pkt, 7);
  EXPECT_EQ(pkt.view, fresh_view(pkt)) << "set_ttl";
  set_src_mac(pkt, 0x00005eed5eedULL);
  EXPECT_EQ(pkt.view, fresh_view(pkt)) << "set_src_mac";
  set_dst_mac(pkt, 0x0000c0ffeeeeULL);
  EXPECT_EQ(pkt.view, fresh_view(pkt)) << "set_dst_mac";
  set_udp_dst_port(pkt, 12345);
  EXPECT_EQ(pkt.view, fresh_view(pkt)) << "set_udp_dst_port";
  set_mig_req(pkt, false);
  EXPECT_EQ(pkt.view, fresh_view(pkt)) << "set_mig_req off";
  set_mig_req(pkt, true);
  EXPECT_EQ(pkt.view, fresh_view(pkt)) << "set_mig_req on";
  refresh_icrc(pkt);
  EXPECT_EQ(pkt.view, fresh_view(pkt)) << "refresh_icrc";
}

TEST(ViewCache, MutatorsBeforeFirstParseAlsoAgree) {
  // Mutating a never-parsed packet must not fabricate a cache entry.
  Packet pkt = build_roce_packet(base_spec());
  pkt.invalidate_view();  // drop the builder's seed: nothing parsed yet
  set_ttl(pkt, 9);
  set_mig_req(pkt, false);
  EXPECT_EQ(pkt.view_state, ViewCacheState::kUnknown);
  const auto view = parse_roce(pkt);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->ttl, 9);
  EXPECT_FALSE(view->bth.mig_req);
}

TEST(ViewCache, PayloadCorruptionKeepsCacheHeaderFlipDropsIt) {
  Packet pkt = build_roce_packet(base_spec());
  ASSERT_TRUE(parse_roce(pkt).has_value());
  corrupt_payload_bit(pkt, 123);  // payload byte: headers unchanged
  EXPECT_EQ(pkt.view_state, ViewCacheState::kFull);
  EXPECT_EQ(pkt.view, fresh_view(pkt));

  // Zero-payload frame: the fallback flips a header byte, which the view
  // cannot describe — the cache must drop.
  RocePacketSpec ack = base_spec();
  ack.opcode = IbOpcode::kAcknowledge;
  ack.reth.reset();
  ack.payload_len = 0;
  ack.aeth = Aeth::ack(1);
  Packet nak = build_roce_packet(ack);
  ASSERT_TRUE(parse_roce(nak).has_value());
  corrupt_payload_bit(nak);
  EXPECT_EQ(nak.view_state, ViewCacheState::kUnknown);
}

TEST(ViewCache, DirectByteWriteWithInvalidateRedecodes) {
  Packet pkt = build_roce_packet(base_spec());
  ASSERT_TRUE(parse_roce(pkt).has_value());
  // Raw write outside the mutator API: caller must invalidate.
  poke_u16(pkt.span(), off::kBthPsn + 1, 0x1234);
  pkt.invalidate_view();
  EXPECT_EQ(pkt.view_state, ViewCacheState::kUnknown);
  const auto view = parse_roce(pkt);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->bth.psn & 0xffffu, 0x1234u);
}

TEST(ViewCache, TrimmedFrameStatesTrackParseMode) {
  Packet pkt = build_roce_packet(base_spec());
  // A direct trim of a never-parsed frame: a raw byte write, so the
  // builder's seed must go.
  pkt.bytes.resize(128);
  pkt.invalidate_view();
  // Full parse fails and must not poison the trimmed mode.
  EXPECT_FALSE(parse_roce(pkt).has_value());
  EXPECT_EQ(pkt.view_state, ViewCacheState::kNotFull);
  const auto trimmed = parse_roce(pkt, /*allow_trimmed=*/true);
  ASSERT_TRUE(trimmed.has_value());
  EXPECT_EQ(pkt.view_state, ViewCacheState::kTrimmed);
  EXPECT_EQ(trimmed->payload_len, 1024u);
  EXPECT_EQ(trimmed->icrc, 0u);
  // A cached trimmed view still never satisfies a full parse.
  EXPECT_FALSE(parse_roce(pkt).has_value());
  // And the cached trimmed view matches a fresh trimmed decode even after
  // mutators run on it (the dumper's restore-port path).
  Packet copy;
  copy.bytes = pkt.bytes;
  set_udp_dst_port(pkt, kRoceUdpPort);
  set_udp_dst_port(copy, kRoceUdpPort);
  copy.invalidate_view();
  EXPECT_EQ(pkt.view, parse_roce(copy, /*allow_trimmed=*/true).value());
}

TEST(ViewCache, NonRoceFrameCachesTheRejection) {
  Packet junk;
  junk.bytes.assign(64, 0xcc);
  EXPECT_FALSE(parse_roce(junk, /*allow_trimmed=*/true).has_value());
  EXPECT_EQ(junk.view_state, ViewCacheState::kUnparseable);
  // Both modes now short-circuit.
  EXPECT_FALSE(parse_roce(junk).has_value());
  EXPECT_FALSE(parse_roce(junk, /*allow_trimmed=*/true).has_value());
}

TEST(ViewCache, CopiesCarryTheCacheIndependently) {
  Packet pkt = build_roce_packet(base_spec());
  ASSERT_TRUE(parse_roce(pkt).has_value());
  Packet copy = pkt;
  EXPECT_EQ(copy.view_state, ViewCacheState::kFull);
  EXPECT_EQ(copy.view, pkt.view);
  // Mutating the copy must not leak into the original's cache.
  set_ttl(copy, 3);
  EXPECT_NE(copy.view.ttl, pkt.view.ttl);
  EXPECT_EQ(pkt.view, fresh_view(pkt));
  EXPECT_EQ(copy.view, fresh_view(copy));
}

TEST(ViewCache, ArenaSlotReuseCannotServeStaleViews) {
  // The cache lives on the Packet, not on the buffer: a packet built from a
  // recycled arena buffer carries a view of its own bytes, even though a
  // differently-shaped packet parsed out of that slot earlier.
  PacketArena arena;
  PacketArena::Scope scope(&arena);

  RocePacketSpec first_spec = base_spec();
  std::uint32_t first_psn = 0;
  {
    Packet first = build_roce_packet(first_spec);
    ScopedPacketReclaim reclaim(first);
    const auto view = parse_roce(first);
    ASSERT_TRUE(view.has_value());
    first_psn = view->bth.psn;
  }
  ASSERT_GE(arena.pooled(), 1u);

  RocePacketSpec second_spec = base_spec();
  second_spec.opcode = IbOpcode::kAcknowledge;
  second_spec.reth.reset();
  second_spec.payload_len = 0;
  second_spec.aeth = Aeth::ack(2);
  second_spec.psn = 0x000099;
  Packet second = build_roce_packet(second_spec);
  EXPECT_GE(arena.reused(), 1u);  // the slot actually recycled
  EXPECT_EQ(second.view, fresh_view(second));
  const auto view = parse_roce(second);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->bth.opcode, IbOpcode::kAcknowledge);
  EXPECT_EQ(view->bth.psn, 0x000099u);
  EXPECT_NE(view->bth.psn, first_psn);
}

}  // namespace
}  // namespace lumina
