// Unit tests for the traffic dumper: RSS spreading, per-core capacity and
// overflow, packet trimming and capture records, TERM handling, the
// pool's shared store, and pcap persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "dumper/dumper.h"

namespace lumina {
namespace {

Packet mirrored_packet(std::uint64_t seq, Tick ts, std::uint16_t udp_port,
                       std::uint32_t payload = 1024) {
  RocePacketSpec spec;
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.opcode = IbOpcode::kWriteOnly;
  spec.reth = Reth{0, 0, payload};
  spec.payload_len = payload;
  spec.psn = static_cast<std::uint32_t>(seq);
  Packet pkt = build_roce_packet(spec);
  set_src_mac(pkt, seq);                     // mirror sequence number
  set_dst_mac(pkt, static_cast<std::uint64_t>(ts));  // switch timestamp
  set_ttl(pkt, static_cast<std::uint8_t>(EventType::kNone));
  set_udp_dst_port(pkt, udp_port);
  return pkt;
}

/// Feeds packets into a dumper directly (bypassing a link).
void feed(Simulator& sim, TrafficDumper& dumper, int count,
          Tick inter_arrival, bool randomize_ports, std::uint64_t seed = 1) {
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const std::uint16_t port =
        randomize_ports ? static_cast<std::uint16_t>(rng.next_below(0xffff))
                        : kRoceUdpPort;
    sim.schedule_at(i * inter_arrival,
                    [&dumper, pkt = mirrored_packet(
                         static_cast<std::uint64_t>(i), i * inter_arrival,
                         port)]() mutable {
                      dumper.handle_packet(0, std::move(pkt));
                    });
  }
  sim.run();
}

TEST(Dumper, CapturesAndExtractsMetadata) {
  Simulator sim;
  TrafficDumper dumper(&sim, "d0", {});
  dumper.handle_packet(0, mirrored_packet(7, 12345, 4000));
  ASSERT_EQ(dumper.packets().size(), 1u);
  EXPECT_EQ(dumper.packets()[0].meta.mirror_seq, 7u);
  EXPECT_EQ(dumper.packets()[0].meta.ingress_timestamp, 12345);
  EXPECT_EQ(dumper.counters().captured, 1u);
  EXPECT_EQ(dumper.counters().discarded, 0u);
}

TEST(Dumper, TrimsTo128BytesKeepingOriginalLength) {
  Simulator sim;
  TrafficDumper dumper(&sim, "d0", {});
  const Packet big = mirrored_packet(0, 0, 4000, 4096);
  const std::size_t orig = big.size();
  dumper.handle_packet(0, big);
  ASSERT_EQ(dumper.packets().size(), 1u);
  EXPECT_EQ(dumper.packets()[0].pkt.size(), 128u);
  EXPECT_EQ(dumper.packets()[0].orig_len, orig);
  // Headers still parse from the trimmed capture, and the record's view
  // (taken from the wire frame's cache) is exactly that parse.
  const TracePacket& record = dumper.packets()[0];
  const auto view = parse_roce_bytes(record.pkt.span(), true);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->payload_len, 4096u);
  EXPECT_EQ(view->icrc, 0u);
  ASSERT_TRUE(record.has_view);
  EXPECT_EQ(record.view, *view);
}

TEST(Dumper, SmallPacketsNotPadded) {
  Simulator sim;
  TrafficDumper dumper(&sim, "d0", {});
  const Packet small = mirrored_packet(0, 0, 4000, 8);
  dumper.handle_packet(0, small);
  const TracePacket& record = dumper.packets()[0];
  EXPECT_LT(record.pkt.size(), 128u);
  EXPECT_EQ(record.orig_len, small.size());
  // A whole frame keeps its full view, iCRC included.
  const auto view = parse_roce_bytes(record.pkt.span());
  ASSERT_TRUE(view.has_value());
  EXPECT_NE(view->icrc, 0u);
  EXPECT_EQ(record.view, *view);
}

TEST(Dumper, CaptureRestoresUdpPortBeforeTerm) {
  // The port goes back to 4791 when the record is written (§3.4), so the
  // capture store never holds a randomized port.
  Simulator sim;
  TrafficDumper dumper(&sim, "d0", {});
  dumper.handle_packet(0, mirrored_packet(0, 0, 31337));
  dumper.handle_packet(0, mirrored_packet(1, 10, 31337, 8));
  ASSERT_EQ(dumper.packets().size(), 2u);
  for (const TracePacket& record : dumper.packets()) {
    const auto view = parse_roce_bytes(record.pkt.span(), true);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->udp_dst_port, kRoceUdpPort);
    EXPECT_EQ(record.view.udp_dst_port, kRoceUdpPort);
  }
}

TEST(Dumper, TrimShorterThanHeadersLeavesRecordWithoutView) {
  // A trim that cuts into the BTH leaves bytes no parser accepts: the
  // record is kept (and counted) but flagged, and the trace skips it.
  Simulator sim;
  TrafficDumper::Options options;
  options.trim_bytes = 48;
  TrafficDumper dumper(&sim, "d0", options);
  dumper.handle_packet(0, mirrored_packet(3, 0, 4000));
  ASSERT_EQ(dumper.packets().size(), 1u);
  EXPECT_EQ(dumper.packets()[0].pkt.size(), 48u);
  EXPECT_FALSE(dumper.packets()[0].has_view);
  EXPECT_EQ(dumper.packets()[0].meta.mirror_seq, 3u);
  EXPECT_EQ(dumper.counters().captured, 1u);
}

TEST(Dumper, PoolMembersShareOneStore) {
  Simulator sim;
  CaptureStore store;
  TrafficDumper a(&sim, "d0", {}, &store);
  TrafficDumper b(&sim, "d1", {}, &store);
  a.handle_packet(0, mirrored_packet(1, 0, 4000));
  b.handle_packet(0, mirrored_packet(0, 0, 4001));
  a.handle_packet(0, mirrored_packet(2, 0, 4002));
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(&a.packets(), &store);
  EXPECT_EQ(&b.packets(), &store);
  // Arrival order, not mirror order.
  EXPECT_EQ(store[0].meta.mirror_seq, 1u);
  EXPECT_EQ(store[1].meta.mirror_seq, 0u);
  EXPECT_EQ(store[2].meta.mirror_seq, 2u);
  EXPECT_EQ(a.counters().captured, 2u);
  EXPECT_EQ(b.counters().captured, 1u);
}

TEST(CaptureStore, RecordsNeverMoveAndIndexAcrossChunks) {
  // Enough records to fill every growing chunk and several capped ones.
  const std::size_t n = 3 * CaptureStore::kMaxChunk + 5;
  CaptureStore store;
  std::vector<const TracePacket*> addresses;
  for (std::size_t i = 0; i < n; ++i) {
    TracePacket& record = store.emplace_back();
    record.orig_len = i;
    addresses.push_back(&record);
  }
  ASSERT_EQ(store.size(), n);
  std::size_t i = 0;
  for (const TracePacket& record : store) {
    ASSERT_EQ(&record, addresses[i]) << "record " << i << " moved";
    ASSERT_EQ(&store[i], addresses[i]) << "index " << i;
    ASSERT_EQ(record.orig_len, i);
    ++i;
  }
  EXPECT_EQ(i, n);
  EXPECT_EQ(&store.back(), addresses.back());

  // erase_if keeps order and leaves records ahead of the first removal
  // where they were.
  const std::size_t first_removed = CaptureStore::kFirstChunk + 3;
  const std::size_t removed = store.erase_if([&](const TracePacket& r) {
    return r.orig_len >= first_removed && r.orig_len % 3 == 0;
  });
  EXPECT_EQ(store.size(), n - removed);
  for (std::size_t k = 0; k < first_removed; ++k) {
    EXPECT_EQ(&store[k], addresses[k]);
  }
  std::size_t prev = 0;
  std::size_t count = 0;
  for (const TracePacket& record : store) {
    if (count++ > 0) {
      EXPECT_GT(record.orig_len, prev);
    }
    EXPECT_TRUE(record.orig_len < first_removed || record.orig_len % 3 != 0);
    prev = record.orig_len;
  }
  EXPECT_EQ(count, store.size());

  CaptureStore empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.begin(), empty.end());
  EXPECT_EQ(empty.erase_if([](const TracePacket&) { return true; }), 0u);
}

TEST(Dumper, SingleFlowWithoutRandomizationOverloadsOneCore) {
  // All packets hash to one core: arrival every 100 ns vs 300 ns service.
  Simulator sim;
  TrafficDumper::Options options;
  options.cores = 8;
  options.per_packet_service = 300;
  options.ring_capacity = 64;
  TrafficDumper dumper(&sim, "d0", options);
  feed(sim, dumper, 2000, 100, /*randomize_ports=*/false);
  EXPECT_GT(dumper.counters().discarded, 0u);
  EXPECT_LT(dumper.counters().captured, 2000u);
}

TEST(Dumper, RandomizedPortsSpreadAcrossCores) {
  // Same load with randomized UDP ports: 8 cores absorb it.
  Simulator sim;
  TrafficDumper::Options options;
  options.cores = 8;
  options.per_packet_service = 300;
  options.ring_capacity = 64;
  TrafficDumper dumper(&sim, "d0", options);
  feed(sim, dumper, 2000, 100, /*randomize_ports=*/true);
  EXPECT_EQ(dumper.counters().discarded, 0u);
  EXPECT_EQ(dumper.counters().captured, 2000u);
}

TEST(Dumper, SlowArrivalNeverDropsEvenOnOneCore) {
  Simulator sim;
  TrafficDumper::Options options;
  options.cores = 1;
  options.per_packet_service = 300;
  options.ring_capacity = 16;
  TrafficDumper dumper(&sim, "d0", options);
  feed(sim, dumper, 500, 400, false);  // arrival slower than service
  EXPECT_EQ(dumper.counters().discarded, 0u);
}

TEST(Dumper, TerminateRestoresUdpPortsAndStopsCapture) {
  Simulator sim;
  TrafficDumper dumper(&sim, "d0", {});
  dumper.handle_packet(0, mirrored_packet(0, 0, 31337));
  dumper.terminate();
  ASSERT_EQ(dumper.packets().size(), 1u);
  const auto view = parse_roce_bytes(dumper.packets()[0].pkt.span(), true);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->udp_dst_port, kRoceUdpPort);  // restored (§3.4)
  // Post-TERM arrivals are ignored.
  dumper.handle_packet(0, mirrored_packet(1, 1, 4000));
  EXPECT_EQ(dumper.packets().size(), 1u);
}

TEST(Dumper, WritesPcapAfterTerminate) {
  Simulator sim;
  TrafficDumper dumper(&sim, "d0", {});
  for (int i = 0; i < 5; ++i) {
    dumper.handle_packet(
        0, mirrored_packet(static_cast<std::uint64_t>(i), i * 1000, 9999));
  }
  dumper.terminate();
  const std::string path = ::testing::TempDir() + "/dumper_test.pcap";
  ASSERT_TRUE(dumper.write_pcap(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  // Global header + 5 * (record header + trimmed packet).
  EXPECT_GE(std::ftell(f), 24 + 5 * 16);
  std::fclose(f);
  std::remove(path.c_str());
}

class DumperCoreSweep : public ::testing::TestWithParam<int> {};

TEST_P(DumperCoreSweep, CapacityScalesWithCores) {
  // Offered load: one packet per 50 ns (20 Mpps), service 300 ns/core.
  // Roughly `cores/6` of the load can be captured.
  const int cores = GetParam();
  Simulator sim;
  TrafficDumper::Options options;
  options.cores = cores;
  options.per_packet_service = 300;
  options.ring_capacity = 32;
  TrafficDumper dumper(&sim, "d0", options);
  feed(sim, dumper, 3000, 50, true);
  const double ratio = static_cast<double>(dumper.counters().captured) / 3000;
  const double expected = std::min(1.0, cores * (50.0 / 300.0));
  EXPECT_NEAR(ratio, expected, 0.25) << "cores=" << cores;
}

INSTANTIATE_TEST_SUITE_P(Cores, DumperCoreSweep,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace lumina
