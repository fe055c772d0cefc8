// Differential test of trace reconstruction (§3.4–3.5).
//
// The dumper pool writes each frame once, as its final capture record, into
// one shared store, and the orchestrator restores mirror order in place.
// The reference here is the reconstruction that path replaced, kept
// verbatim: per dumper, a trimmed clone of every admitted frame (or the
// whole frame when it fits the trim), its UDP port restored, the captures
// concatenated in dumper order, a key sort by (mirror_seq, position),
// parse_roce(..., allow_trimmed) on each, unparseable frames skipped, the
// delay-release join and the integrity check. Tap nodes spliced between
// the switch and each dumper copy every frame the dumper admits, so the
// reference sees exactly what the pool saw. Both must agree field by field
// across pool sizes, ring discards, delay/reorder/duplicate events, frames
// at or below the trim, a pause storm, and a slowed dumper link that
// pushes the in-place reorder onto its fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "orchestrator/orchestrator.h"
#include "util/random.h"

namespace lumina {
namespace {

/// Spliced onto the switch -> dumper link: forwards every frame to the
/// dumper and keeps a copy of each one the dumper admits, with the view
/// cache the dumper's admit stage leaves on it.
class CaptureTap : public Node {
 public:
  CaptureTap(Simulator* sim, TrafficDumper* dumper,
             std::vector<std::uint64_t>* arrival_seqs)
      : port_(sim, this, 0), dumper_(dumper), arrival_seqs_(arrival_seqs) {}

  void handle_packet(int in_port, Packet pkt) override {
    Packet copy;
    pkt.clone_into(copy);
    (void)parse_roce(copy);  // the admit stage's full parse
    const std::uint64_t before = dumper_->counters().captured;
    dumper_->handle_packet(in_port, std::move(pkt));
    if (dumper_->counters().captured == before) return;  // ring discard
    arrival_seqs_->push_back(extract_mirror_meta(copy).mirror_seq);
    admitted.push_back(std::move(copy));
  }
  std::string name() const override { return "tap"; }

  Port& port() { return port_; }
  std::vector<Packet> admitted;  ///< Arrival order.

 private:
  Port port_;
  TrafficDumper* dumper_;
  std::vector<std::uint64_t>* arrival_seqs_;  ///< Pool-wide arrival order.
};

struct ExpectedPacket {
  std::vector<std::uint8_t> bytes;
  RoceView view;
  MirrorMeta meta;
  std::size_t orig_len = 0;
  Tick released_at = 0;
};

struct Expected {
  std::vector<ExpectedPacket> trace;
  IntegrityReport integrity;
};

/// The pre-capture-record reconstruction, from the taps' admitted frames.
Expected reference_reconstruction(
    std::vector<std::unique_ptr<CaptureTap>>& taps, std::size_t trim_bytes,
    EventInjectorSwitch& injector) {
  struct Dumped {
    Packet pkt;
    std::size_t orig_len = 0;
    MirrorMeta meta;
  };
  std::vector<Dumped> captures;
  for (auto& tap : taps) {
    for (Packet& frame : tap->admitted) {
      Dumped dumped;
      dumped.orig_len = frame.size();
      dumped.meta = extract_mirror_meta(frame);
      if (frame.size() > trim_bytes) {
        frame.clone_into(dumped.pkt, trim_bytes);
      } else {
        dumped.pkt = std::move(frame);
      }
      if (dumped.pkt.size() >= off::kUdpDstPort + 2) {
        restore_roce_udp_port(dumped.pkt);
      }
      captures.push_back(std::move(dumped));
    }
  }
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  for (std::size_t i = 0; i < captures.size(); ++i) {
    order.emplace_back(captures[i].meta.mirror_seq, i);
  }
  std::sort(order.begin(), order.end());

  Expected out;
  const auto& releases = injector.delay_releases();
  for (const auto& [seq, i] : order) {
    Dumped& dumped = captures[i];
    const auto view = parse_roce(dumped.pkt, /*allow_trimmed=*/true);
    if (!view) continue;
    ExpectedPacket& p = out.trace.emplace_back();
    p.bytes = dumped.pkt.bytes;
    p.view = *view;
    p.meta = dumped.meta;
    p.orig_len = dumped.orig_len;
    if (const auto it = releases.find(seq); it != releases.end()) {
      p.released_at = it->second;
    }
  }

  IntegrityReport& integrity = out.integrity;
  const std::size_t n = out.trace.size();
  integrity.trace_packets = n;
  integrity.injector_mirrored = injector.mirror_engine().mirrored_count();
  integrity.injector_roce_rx = injector.roce_counters().roce_rx;
  integrity.seqnums_consecutive = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (out.trace[i].meta.mirror_seq != i) {
      integrity.seqnums_consecutive = false;
      break;
    }
  }
  if (integrity.injector_mirrored >= n) {
    integrity.missing_seqnums = integrity.injector_mirrored - n;
  }
  integrity.matches_mirrored_count = integrity.injector_mirrored == n;
  integrity.matches_roce_rx_count = integrity.injector_roce_rx == n;
  return out;
}

struct Outcome {
  TestResult result;
  Expected expected;
  std::vector<std::uint64_t> arrival_seqs;  ///< The shared store's order.
  std::uint64_t discarded = 0;
};

/// Runs `cfg` with taps on every dumper link. `slow_dumper` (when >= 0)
/// gets a link at `slow_factor` of the normal rate.
Outcome run_tapped(const TestConfig& cfg, Orchestrator::Options options,
                   int slow_dumper = -1, double slow_factor = 1.0) {
  Orchestrator orch(cfg, options);
  Testbed& testbed = orch.testbed();
  Outcome out;
  std::vector<std::unique_ptr<CaptureTap>> taps;
  for (int j = 0; j < static_cast<int>(testbed.dumpers().size()); ++j) {
    TrafficDumper* dumper =
        testbed.dumpers()[static_cast<std::size_t>(j)].get();
    auto tap =
        std::make_unique<CaptureTap>(&orch.sim(), dumper, &out.arrival_seqs);
    Port& egress = orch.injector().port(testbed.dumper_port(j));
    LinkParams link = egress.link();
    if (j == slow_dumper) link.gbps *= slow_factor;
    egress.attach(&tap->port(), link);
    taps.push_back(std::move(tap));
  }
  out.result = orch.run();
  out.expected = reference_reconstruction(
      taps, options.dumper_options.trim_bytes, orch.injector());
  for (const auto& dumper : testbed.dumpers()) {
    out.discarded += dumper->counters().discarded;
  }
  return out;
}

void expect_same_trace(const Outcome& out) {
  const auto& trace = out.result.trace.packets;
  const auto& want = out.expected.trace;
  ASSERT_EQ(trace.size(), want.size());
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TracePacket& got = trace[i];
    const ExpectedPacket& exp = want[i];
    ASSERT_EQ(got.pkt.bytes, exp.bytes) << "packet " << i;
    ASSERT_EQ(got.view, exp.view) << "packet " << i;
    ASSERT_EQ(got.meta.mirror_seq, exp.meta.mirror_seq) << "packet " << i;
    ASSERT_EQ(got.meta.ingress_timestamp, exp.meta.ingress_timestamp)
        << "packet " << i;
    ASSERT_EQ(got.meta.event, exp.meta.event) << "packet " << i;
    ASSERT_EQ(got.orig_len, exp.orig_len) << "packet " << i;
    ASSERT_EQ(got.released_at, exp.released_at) << "packet " << i;
  }
  const IntegrityReport& got = out.result.integrity;
  const IntegrityReport& exp = out.expected.integrity;
  EXPECT_EQ(got.seqnums_consecutive, exp.seqnums_consecutive);
  EXPECT_EQ(got.matches_mirrored_count, exp.matches_mirrored_count);
  EXPECT_EQ(got.matches_roce_rx_count, exp.matches_roce_rx_count);
  EXPECT_EQ(got.trace_packets, exp.trace_packets);
  EXPECT_EQ(got.injector_mirrored, exp.injector_mirrored);
  EXPECT_EQ(got.injector_roce_rx, exp.injector_roce_rx);
  EXPECT_EQ(got.missing_seqnums, exp.missing_seqnums);
}

/// Whether the shared store's arrival order sends restore_mirror_order
/// to its key-sort fallback.
bool arrival_order_needs_fallback(const std::vector<std::uint64_t>& seqs) {
  CaptureStore probe(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    probe[i].meta.mirror_seq = seqs[i];
  }
  return restore_mirror_order(probe);
}

TestConfig two_host(RdmaVerb verb, std::uint32_t message_size,
                    int num_msgs = 4, std::uint32_t mtu = 1024) {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx5;
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.verb = verb;
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = num_msgs;
  cfg.traffic.message_size = message_size;
  cfg.traffic.mtu = mtu;
  return cfg;
}

TestConfig incast(int senders) {
  TestConfig cfg;
  cfg.hosts.clear();
  for (int i = 0; i <= senders; ++i) {
    HostConfig host;
    host.nic_type = NicType::kCx6Dx;
    cfg.hosts.push_back(host);
  }
  for (int i = 0; i < senders; ++i) {
    cfg.connections.push_back(ConnectionSpec{i, senders});
  }
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.num_msgs_per_qp = 4;
  cfg.traffic.message_size = 32 * 1024;
  cfg.traffic.mtu = 1024;
  return cfg;
}

DataPacketEvent event(int qpn, std::uint32_t psn, EventType type,
                      std::uint32_t iter = 1) {
  DataPacketEvent ev;
  ev.qpn = qpn;
  ev.psn = psn;
  ev.type = type;
  ev.iter = iter;
  return ev;
}

Orchestrator::Options with_dumpers(int n) {
  Orchestrator::Options options;
  options.num_dumpers = n;
  return options;
}

TEST(TraceDifferential, OneDumper) {
  TestConfig cfg = two_host(RdmaVerb::kWrite, 16 * 1024);
  cfg.traffic.data_pkt_events.push_back(event(1, 7, EventType::kDrop));
  const Outcome out = run_tapped(cfg, with_dumpers(1));
  EXPECT_TRUE(out.result.integrity.ok());
  expect_same_trace(out);
  EXPECT_FALSE(arrival_order_needs_fallback(out.arrival_seqs));
}

TEST(TraceDifferential, TwoDumpersLossyRead) {
  // Small frames and drops (the lossy_read_2host shape, scaled down): the
  // two dumpers' arrivals interleave slightly out of mirror order.
  TestConfig cfg = two_host(RdmaVerb::kRead, 16 * 1024, 20, 256);
  for (int qp = 1; qp <= 2; ++qp) {
    for (std::uint32_t k = 1; k <= 3; ++k) {
      cfg.traffic.data_pkt_events.push_back(
          event(qp, 97 * k, EventType::kDrop, k));
    }
  }
  const Outcome out = run_tapped(cfg, with_dumpers(2));
  EXPECT_TRUE(out.result.integrity.ok());
  EXPECT_FALSE(std::is_sorted(out.arrival_seqs.begin(),
                              out.arrival_seqs.end()))
      << "arrivals already in mirror order: the reorder is not exercised";
  expect_same_trace(out);
  EXPECT_FALSE(arrival_order_needs_fallback(out.arrival_seqs));
}

TEST(TraceDifferential, ThreeDumpersEcnIncast) {
  TestConfig cfg = incast(4);
  Orchestrator::Options options = with_dumpers(3);
  options.switch_options.ecn_marking_threshold_bytes = 30 * 1024;
  const Outcome out = run_tapped(cfg, options);
  EXPECT_TRUE(out.result.integrity.ok());
  EXPECT_GT(out.result.switch_counters.ecn_marked_by_queue, 0u);
  expect_same_trace(out);
}

TEST(TraceDifferential, RingDiscards) {
  // One core with a tiny ring and slow service: the NIC discards, so the
  // trace has holes and the integrity check fails the same way in both.
  TestConfig cfg = two_host(RdmaVerb::kWrite, 16 * 1024);
  Orchestrator::Options options = with_dumpers(2);
  options.dumper_options.cores = 1;
  options.dumper_options.ring_capacity = 2;
  options.dumper_options.per_packet_service = 2000;
  const Outcome out = run_tapped(cfg, options);
  EXPECT_GT(out.discarded, 0u);
  EXPECT_FALSE(out.result.integrity.ok());
  expect_same_trace(out);
}

TEST(TraceDifferential, DelayReorderAndDuplicateEvents) {
  TestConfig cfg = two_host(RdmaVerb::kWrite, 16 * 1024);
  DataPacketEvent delay = event(1, 5, EventType::kDelay);
  delay.delay = 30 * kMicrosecond;
  cfg.traffic.data_pkt_events.push_back(delay);
  cfg.traffic.data_pkt_events.push_back(event(2, 6, EventType::kReorder));
  cfg.traffic.data_pkt_events.push_back(event(1, 20, EventType::kDuplicate));
  const Outcome out = run_tapped(cfg, with_dumpers(2));
  EXPECT_TRUE(out.result.integrity.ok());
  bool released = false;
  for (const auto& p : out.result.trace) released |= p.released_at > 0;
  EXPECT_TRUE(released) << "no delay-held packet in the trace";
  expect_same_trace(out);
}

TEST(TraceDifferential, FramesAtAndBelowTheTrim) {
  // 50-byte Writes make 124-byte WriteOnly frames; trimming at exactly
  // that size keeps them whole, like the 62-byte ACKs.
  TestConfig cfg = two_host(RdmaVerb::kWrite, 50, 16);
  Orchestrator::Options options = with_dumpers(2);
  options.dumper_options.trim_bytes = 124;
  const Outcome out = run_tapped(cfg, options);
  EXPECT_TRUE(out.result.integrity.ok());
  std::size_t at_trim = 0;
  for (const auto& p : out.result.trace) {
    EXPECT_EQ(p.pkt.size(), p.orig_len);
    if (p.orig_len == 124) ++at_trim;
  }
  EXPECT_GT(at_trim, 0u);
  expect_same_trace(out);
}

TEST(TraceDifferential, PauseStorm) {
  TestConfig cfg = incast(3);
  cfg.traffic.num_msgs_per_qp = 3;
  cfg.traffic.message_size = 16 * 1024;
  DataPacketEvent storm = event(1, 4, EventType::kPauseStorm);
  storm.fault.duration = 150 * kMicrosecond;
  cfg.traffic.data_pkt_events.push_back(storm);
  const Outcome out = run_tapped(cfg, with_dumpers(2));
  EXPECT_GT(out.result.telemetry.counters.count("injector.pause_storms"), 0u);
  expect_same_trace(out);
}

TEST(TraceDifferential, SlowDumperLinkTakesTheFallback) {
  // Dumper 1's link runs at an eighth of the rate, so its captures land
  // far behind dumper 0's and most of them are displaced by many records.
  TestConfig cfg = two_host(RdmaVerb::kWrite, 64 * 1024);
  const Outcome out = run_tapped(cfg, with_dumpers(2), /*slow_dumper=*/1,
                                 /*slow_factor=*/0.125);
  EXPECT_TRUE(arrival_order_needs_fallback(out.arrival_seqs));
  expect_same_trace(out);
}

// ---------------------------------------------------------------------------
// restore_mirror_order on synthetic stores
// ---------------------------------------------------------------------------

/// Records with the given sequence numbers; orig_len holds each record's
/// store position so tests can check which record ended where.
CaptureStore records_with(const std::vector<std::uint64_t>& seqs) {
  CaptureStore store(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    store[i].meta.mirror_seq = seqs[i];
    store[i].orig_len = i;
    store[i].pkt.bytes.assign(3, static_cast<std::uint8_t>(i));
  }
  return store;
}

/// Sorted by sequence number, equal numbers in store order, and every
/// record's bytes still its own.
void expect_stable_sorted(const CaptureStore& store) {
  for (std::size_t i = 0; i < store.size(); ++i) {
    const TracePacket& r = store[i];
    ASSERT_EQ(r.pkt.bytes,
              std::vector<std::uint8_t>(3, static_cast<std::uint8_t>(
                                               r.orig_len)));
    if (i == 0) continue;
    const TracePacket& prev = store[i - 1];
    ASSERT_LE(prev.meta.mirror_seq, r.meta.mirror_seq) << "at " << i;
    if (prev.meta.mirror_seq == r.meta.mirror_seq) {
      ASSERT_LT(prev.orig_len, r.orig_len) << "tie order at " << i;
    }
  }
}

TEST(MirrorOrder, SortedInputIsLeftAlone) {
  std::vector<std::uint64_t> seqs(1000);
  std::iota(seqs.begin(), seqs.end(), 0);
  CaptureStore store = records_with(seqs);
  EXPECT_FALSE(restore_mirror_order(store));
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store[i].orig_len, i);
  }
}

TEST(MirrorOrder, NearSortedInputStaysOnTheInsertionPass) {
  // Two interleaved dumper streams, each ascending, with local inversions.
  std::vector<std::uint64_t> seqs(2000);
  std::iota(seqs.begin(), seqs.end(), 0);
  for (std::size_t i = 0; i + 3 < seqs.size(); i += 17) {
    std::swap(seqs[i], seqs[i + 3]);
  }
  CaptureStore store = records_with(seqs);
  EXPECT_FALSE(restore_mirror_order(store));
  expect_stable_sorted(store);
}

TEST(MirrorOrder, AdversarialInputFallsBackAndSorts) {
  std::vector<std::uint64_t> reversed(3000);
  std::iota(reversed.rbegin(), reversed.rend(), 0);
  CaptureStore store = records_with(reversed);
  EXPECT_TRUE(restore_mirror_order(store));
  expect_stable_sorted(store);

  Rng rng(7);
  std::vector<std::uint64_t> shuffled(3000);
  for (auto& s : shuffled) s = rng.next_below(500);  // many ties
  store = records_with(shuffled);
  EXPECT_TRUE(restore_mirror_order(store));
  expect_stable_sorted(store);
}

TEST(MirrorOrder, TiesKeepStoreOrderOnBothPaths) {
  CaptureStore store = records_with({5, 5, 3, 5, 3, 7, 7, 6});
  EXPECT_FALSE(restore_mirror_order(store));
  expect_stable_sorted(store);
  EXPECT_EQ(store[0].orig_len, 2u);
  EXPECT_EQ(store[1].orig_len, 4u);

  CaptureStore empty;
  EXPECT_FALSE(restore_mirror_order(empty));
  CaptureStore one = records_with({9});
  EXPECT_FALSE(restore_mirror_order(one));
}

}  // namespace
}  // namespace lumina
