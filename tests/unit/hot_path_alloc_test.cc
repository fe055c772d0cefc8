// Allocation regression test for the per-packet hot path: event closures
// that never carry a Packet, ring-buffer port FIFOs, switch slot parking,
// an allocation-free RNIC pump, and a capture path that writes each frame
// once into the trace keep heap traffic inside Orchestrator::run() to a
// small constant per wire packet, and heap bytes to a small constant per
// captured frame. The same runs hold the event kernel's budget: fired
// events per wire packet, which a kernel event that fires with nothing to
// do raises (docs/simulator.md, "Events per frame").
//
// This binary replaces the global operator new/delete with a counting
// version (the same shape as perfbench/alloc_count.cc); counting is on only
// around run().
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "orchestrator/orchestrator.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};  ///< Requested sizes, summed.

void count(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t size) {
  count(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count(size);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

// Out of line so the compiler never pairs an inlined free() with the
// operator new that produced the pointer (a -Wmismatched-new-delete false
// positive: both sides here are malloc/free).
__attribute__((noinline)) void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = allocate_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = allocate_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return allocate_aligned(size, align);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}

namespace lumina {
namespace {

constexpr double kMaxAllocsPerWirePacket = 2.0;
constexpr std::uint64_t kMinWirePackets = 10000;

struct RunAllocs {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t wire_packets = 0;  ///< Σ host tx_packets.
  std::uint64_t captured = 0;      ///< Σ dumper captures.
  std::uint64_t events = 0;        ///< Kernel events fired.
};

/// Runs `orch` with allocation counting on around run() alone.
RunAllocs count_run(Orchestrator& orch) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_bytes.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const TestResult& result = orch.run();
  g_counting.store(false, std::memory_order_relaxed);
  RunAllocs out;
  out.allocs = g_allocs.load(std::memory_order_relaxed);
  out.bytes = g_bytes.load(std::memory_order_relaxed);
  for (const auto& host : result.host_counters) {
    out.wire_packets += host.tx_packets;
  }
  for (const auto& dumper : orch.dumpers()) {
    out.captured += dumper->counters().captured;
  }
  out.events = orch.sim().events_processed();
  EXPECT_TRUE(result.finished);
  EXPECT_TRUE(result.integrity.ok()) << result.integrity.to_string();
  return out;
}

void expect_allocs_bounded(const RunAllocs& run) {
  ASSERT_GE(run.wire_packets, kMinWirePackets);
  const double per_packet = static_cast<double>(run.allocs) /
                            static_cast<double>(run.wire_packets);
  EXPECT_LE(per_packet, kMaxAllocsPerWirePacket)
      << run.allocs << " allocations for " << run.wire_packets
      << " wire packets";
}

/// Heap bytes requested inside run() per frame the dumper pool captured.
/// A capture costs one record (<= 256 B) plus its trimmed bytes, and the
/// shared store's doubling growth requests up to two records' worth more
/// per frame; collect_results adds nothing when captures arrive in mirror
/// order. The rest is the run's other state. Measured 960 B (lossy Read)
/// and 1400 B (ECN incast); a capture path that keeps per-dumper stores
/// and merges them into a second trace-sized vector requests 1739 B and
/// 2180 B.
void expect_bytes_bounded(const RunAllocs& run, double max_per_frame) {
  ASSERT_GT(run.captured, 0u);
  const double per_frame =
      static_cast<double>(run.bytes) / static_cast<double>(run.captured);
  EXPECT_LE(per_frame, max_per_frame)
      << run.bytes << " heap bytes for " << run.captured
      << " captured frames";
}

/// Fired kernel events per wire packet. A Port files a frame's tx done
/// only when a frame waits behind it or a drained listener (the RNIC's
/// pump) is attached, and the switch sends a frame's mirror copy and
/// forwards it from one pipeline-exit event. Measured 6.98 (loss-free
/// Read) and 8.24 (ECN incast); filing every tx done and sending the
/// mirror copy and the frame from separate events gave 9.00 and 10.04,
/// and either one alone 7.98 / 9.24 or 8.00 / 9.04.
void expect_events_bounded(const RunAllocs& run, double max_per_packet) {
  const double per_packet = static_cast<double>(run.events) /
                            static_cast<double>(run.wire_packets);
  EXPECT_LE(per_packet, max_per_packet)
      << run.events << " kernel events for " << run.wire_packets
      << " wire packets";
}

TEST(HotPathAlloc, LossyTwoHostReadStaysWithinBudget) {
  // Small frames and injected drops: NAK/retransmission recovery, RTO
  // timers, and the mirror/dumper path on every frame.
  // Every 97th response packet of each QP is dropped; the injector's ITER
  // of a flow advances with each retransmission round, so drop k matches
  // iter k (the perfbench lossy_read_2host shape, scaled down).
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx5;
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.verb = RdmaVerb::kRead;
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = 100;
  cfg.traffic.message_size = 16 * 1024;
  cfg.traffic.mtu = 256;
  constexpr std::uint32_t kDropEvery = 97;
  const auto packets_per_qp = static_cast<std::uint32_t>(
      cfg.traffic.num_msgs_per_qp * (cfg.traffic.message_size /
                                     cfg.traffic.mtu));
  for (int qp = 1; qp <= cfg.traffic.num_connections; ++qp) {
    for (std::uint32_t k = 1; k * kDropEvery <= packets_per_qp; ++k) {
      DataPacketEvent drop;
      drop.qpn = qp;
      drop.psn = k * kDropEvery;
      drop.type = EventType::kDrop;
      drop.iter = k;
      cfg.traffic.data_pkt_events.push_back(drop);
    }
  }
  Orchestrator orch(cfg);
  const RunAllocs run = count_run(orch);
  EXPECT_GT(orch.result().switch_counters.dropped_by_event, 0u);
  expect_allocs_bounded(run);
  expect_bytes_bounded(run, 1280.0);
}

TEST(HotPathAlloc, LossFreeTwoHostReadStaysWithinBudget) {
  // The lossy Read above without its drops. With no recovery traffic the
  // event queue's depth swings widely and the calendar queue grows and
  // shrinks its bucket table many times; bucket storage that survived only
  // until the next resize was re-grown from empty each time.
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx5;
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.verb = RdmaVerb::kRead;
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = 100;
  cfg.traffic.message_size = 16 * 1024;
  cfg.traffic.mtu = 256;
  Orchestrator orch(cfg);
  const RunAllocs run = count_run(orch);
  EXPECT_EQ(orch.result().switch_counters.dropped_by_event, 0u);
  expect_allocs_bounded(run);
  expect_events_bounded(run, 7.1);
}

TEST(HotPathAlloc, EcnIncastStaysWithinBudget) {
  // Same-tick fan-in into one egress queue with step ECN marking: CNPs,
  // DCQCN rate updates, and deep switch FIFOs.
  TestConfig cfg;
  cfg.hosts.clear();
  constexpr int kHosts = 8;
  for (int i = 0; i < kHosts; ++i) {
    HostConfig host;
    host.name = "h" + std::to_string(i);
    host.nic_type = NicType::kCx6Dx;
    cfg.hosts.push_back(host);
  }
  for (int i = 0; i + 1 < kHosts; ++i) {
    cfg.connections.push_back(ConnectionSpec{i, kHosts - 1});
  }
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.num_msgs_per_qp = 24;
  cfg.traffic.message_size = 64 * 1024;
  cfg.traffic.mtu = 1024;
  Orchestrator::Options options;
  options.switch_options.ecn_marking_threshold_bytes = 30 * 1024;
  Orchestrator orch(cfg, options);
  const RunAllocs run = count_run(orch);
  EXPECT_GT(orch.result().switch_counters.ecn_marked_by_queue, 0u);
  expect_allocs_bounded(run);
  expect_bytes_bounded(run, 1792.0);
  expect_events_bounded(run, 8.4);
}

}  // namespace
}  // namespace lumina
