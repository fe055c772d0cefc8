// Unit tests for the network substrate: ports, links, serialization and
// propagation timing, egress queueing and drops, the in-flight FIFO under
// zero-delay serialization and link flaps, tx-done events filed only when
// a frame waits (and in the order an always-filed done would take), and
// teardown with frames still in flight or parked in the switch.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "injector/switch.h"
#include "net/node.h"
#include "orchestrator/orchestrator.h"
#include "packet/roce_packet.h"

namespace lumina {
namespace {

Packet make_packet(std::uint32_t payload) {
  RocePacketSpec spec;
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.opcode = IbOpcode::kSendOnly;
  spec.payload_len = payload;
  return build_roce_packet(spec);
}

/// A node that records every arrival with its timestamp.
class SinkNode : public Node {
 public:
  explicit SinkNode(Simulator* sim) : sim_(sim), port_(sim, this, 0) {}
  void handle_packet(int, Packet pkt) override {
    arrivals.push_back({sim_->now(), pkt.size()});
  }
  std::string name() const override { return "sink"; }
  Port& port() { return port_; }

  struct Arrival {
    Tick when;
    std::size_t bytes;
  };
  std::vector<Arrival> arrivals;

 private:
  Simulator* sim_;
  Port port_;
};

class NetTest : public ::testing::Test {
 protected:
  Simulator sim;
  SinkNode a{&sim};
  SinkNode b{&sim};
};

TEST_F(NetTest, DeliversAfterSerializationPlusPropagation) {
  connect(a.port(), b.port(), LinkParams{100.0, 500});
  const Packet pkt = make_packet(1024);
  const Tick expected_ser =
      static_cast<Tick>(static_cast<double>(pkt.wire_size()) * 8.0 / 100.0);
  a.port().send(pkt);
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].when, expected_ser + 500);
}

TEST_F(NetTest, SlowerLinkTakesLonger) {
  SinkNode c{&sim}, d{&sim};
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  connect(c.port(), d.port(), LinkParams{40.0, 0});
  a.port().send(make_packet(1024));
  c.port().send(make_packet(1024));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  ASSERT_EQ(d.arrivals.size(), 1u);
  EXPECT_NEAR(static_cast<double>(d.arrivals[0].when),
              static_cast<double>(b.arrivals[0].when) * 2.5, 2.0);
}

TEST_F(NetTest, BackToBackPacketsSerializeSequentially) {
  connect(a.port(), b.port(), LinkParams{100.0, 100});
  const Packet pkt = make_packet(1024);
  const Tick ser =
      static_cast<Tick>(static_cast<double>(pkt.wire_size()) * 8.0 / 100.0);
  for (int i = 0; i < 5; ++i) a.port().send(pkt);
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(b.arrivals[static_cast<std::size_t>(i)].when,
              ser * (i + 1) + 100);
  }
}

TEST_F(NetTest, FullDuplexDirectionsDoNotInterfere) {
  connect(a.port(), b.port(), LinkParams{100.0, 50});
  a.port().send(make_packet(1024));
  b.port().send(make_packet(1024));
  sim.run();
  ASSERT_EQ(a.arrivals.size(), 1u);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(a.arrivals[0].when, b.arrivals[0].when);
}

TEST_F(NetTest, EgressOverflowDropsTail) {
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  a.port().set_queue_byte_cap(3000);  // fits ~2 packets of ~1100 B
  for (int i = 0; i < 10; ++i) a.port().send(make_packet(1024));
  sim.run();
  EXPECT_LT(b.arrivals.size(), 10u);
  EXPECT_GE(b.arrivals.size(), 2u);
  EXPECT_EQ(a.port().counters().drops, 10u - b.arrivals.size());
  EXPECT_EQ(a.port().counters().tx_packets, b.arrivals.size());
}

TEST_F(NetTest, OverflowHighWaterMarkStopsAtTheCap) {
  // Flood far past the cap: the FIFO's high-water mark must reflect what
  // was actually queued — bounded by the byte cap, not by the offered load
  // — and every packet beyond it must land in `drops`.
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  const Packet pkt = make_packet(1024);
  a.port().set_queue_byte_cap(4 * pkt.size());
  for (int i = 0; i < 32; ++i) a.port().send(pkt);
  sim.run();
  const PortCounters& c = a.port().counters();
  EXPECT_GT(c.drops, 0u);
  EXPECT_EQ(c.drops + c.tx_packets, 32u);
  EXPECT_LE(c.max_queued_bytes, 4 * pkt.size());
  // The mark is a real high-water mark: at least one full burst fit.
  EXPECT_GE(c.max_queued_bytes, 3 * pkt.size());
  // Dropped packets never occupied the queue, so the mark is unchanged by
  // a second overflowing burst of the same shape.
  const std::size_t mark = c.max_queued_bytes;
  for (int i = 0; i < 32; ++i) a.port().send(pkt);
  sim.run();
  EXPECT_EQ(a.port().counters().max_queued_bytes, mark);
}

TEST_F(NetTest, HighWaterMarkTracksPeakWithoutOverflow) {
  // Below the cap the mark equals the largest backlog ever held: the full
  // burst minus the packet being serialized is queued at its peak.
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  const Packet pkt = make_packet(1024);
  for (int i = 0; i < 6; ++i) a.port().send(pkt);
  sim.run();
  const PortCounters& c = a.port().counters();
  EXPECT_EQ(c.drops, 0u);
  EXPECT_EQ(c.tx_packets, 6u);
  EXPECT_EQ(c.max_queued_bytes, 5 * pkt.size());
}

TEST_F(NetTest, CountersTrackTraffic) {
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  const Packet pkt = make_packet(512);
  a.port().send(pkt);
  a.port().send(pkt);
  sim.run();
  EXPECT_EQ(a.port().counters().tx_packets, 2u);
  EXPECT_EQ(a.port().counters().tx_bytes, 2 * pkt.size());
  EXPECT_EQ(b.port().counters().rx_packets, 2u);
  EXPECT_EQ(b.port().counters().rx_bytes, 2 * pkt.size());
  EXPECT_EQ(a.port().counters().drops, 0u);
}

TEST_F(NetTest, DrainedCallbackFiresWhenIdle) {
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  int drained = 0;
  a.port().set_drained_callback([&] { ++drained; });
  a.port().send(make_packet(64));
  a.port().send(make_packet(64));
  sim.run();
  EXPECT_EQ(drained, 1);  // queue emptied once
  EXPECT_TRUE(a.port().idle());
}

TEST_F(NetTest, ZeroSerializationFramesArriveInSendOrderOnOneTick) {
  // Minimum-size frames on an 800 Gbps link serialize in < 1 ns, which
  // rounds to 0: every frame leaves and lands on the same tick, and the
  // in-flight FIFO must still hand them over in send order.
  connect(a.port(), b.port(), LinkParams{800.0, 100});
  std::vector<std::size_t> sent;
  for (std::uint32_t payload = 0; payload < 6; ++payload) {
    const Packet pkt = make_packet(payload);
    ASSERT_EQ(a.port().serialization_delay(pkt), 0);
    sent.push_back(pkt.size());
    a.port().send(pkt);
  }
  sim.run();
  ASSERT_EQ(b.arrivals.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(b.arrivals[i].when, 100);
    EXPECT_EQ(b.arrivals[i].bytes, sent[i]) << "arrival " << i;
  }
  EXPECT_EQ(a.port().in_flight(), 0u);
}

TEST_F(NetTest, UncongestedPortFilesNoTxDoneEvent) {
  // A frame that finds the wire idle and nothing behind it schedules its
  // delivery alone: its tx done would find the FIFO empty.
  connect(a.port(), b.port(), LinkParams{100.0, 100});
  for (int i = 0; i < 3; ++i) {
    a.port().send(make_packet(512));
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.run();
  }
  ASSERT_EQ(b.arrivals.size(), 3u);
  EXPECT_EQ(sim.events_processed(), 3u);
  // A frame that queues behind a busy wire files the done that starts it.
  const Packet pkt = make_packet(512);
  const Tick start = sim.now();
  const Tick ser = a.port().serialization_delay(pkt);
  a.port().send(pkt);
  a.port().send(pkt);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 5u);
  EXPECT_EQ(b.arrivals[3].when, start + ser + 100);
  EXPECT_EQ(b.arrivals[4].when, start + 2 * ser + 100);
  EXPECT_EQ(sim.events_processed(), 3u + 3u);  // 2 deliveries + 1 done
}

/// Logs arrivals and witness events in one sequence, so same-tick order
/// between them shows.
class LogNode : public Node {
 public:
  LogNode(Simulator* sim, std::vector<std::string>* log)
      : sim_(sim), log_(log), port_(sim, this, 0) {}
  void handle_packet(int, Packet pkt) override {
    log_->push_back(std::to_string(sim_->now()) + " arrive " +
                    std::to_string(pkt.size()));
  }
  std::string name() const override { return "log"; }
  Port& port() { return port_; }

 private:
  Simulator* sim_;
  std::vector<std::string>* log_;
  Port port_;
};

TEST(NetOrder, SendAtBusyUntilMatchesEagerDone) {
  // The first frame's tx done is reserved at busy_until() under the id it
  // would have been scheduled with. A send at that tick from an event
  // ordered before the done finds the wire busy: the frame queues and the
  // done (now filed) starts it, after the event. From an event ordered
  // after the done it finds the wire idle and starts at once. Either way
  // it departs at busy_until(); which one shows in the id its delivery
  // gets, so the sending event also schedules a witness for the frame's
  // arrival tick. An always-filed done puts the witness before the arrival
  // in the first case and after it in the second.
  for (const bool before_done : {true, false}) {
    SCOPED_TRACE(before_done ? "ordered before the done"
                             : "ordered after the done");
    Simulator sim;
    std::vector<std::string> log;
    LogNode a(&sim, &log);
    LogNode b(&sim, &log);
    connect(a.port(), b.port(), LinkParams{100.0, 100});
    const Packet first = make_packet(1024);
    const Packet second = make_packet(256);
    const Tick end = a.port().serialization_delay(first);
    const Tick arrival = end + a.port().serialization_delay(second) + 100;
    const auto send_second = [&] {
      EXPECT_EQ(a.port().busy_until(), end);
      a.port().send(second);
      sim.schedule_at(arrival, [&] {
        log.push_back(std::to_string(sim.now()) + " witness");
      });
    };
    if (before_done) sim.schedule_at(end, send_second);
    a.port().send(first);
    if (!before_done) sim.schedule_at(end, send_second);
    sim.run();

    const std::string at = std::to_string(arrival) + " ";
    std::vector<std::string> want = {
        std::to_string(end + 100) + " arrive " + std::to_string(first.size())};
    if (before_done) {
      want.push_back(at + "witness");
      want.push_back(at + "arrive " + std::to_string(second.size()));
    } else {
      want.push_back(at + "arrive " + std::to_string(second.size()));
      want.push_back(at + "witness");
    }
    EXPECT_EQ(log, want);
    // The sending event, the witness and two deliveries, plus the first
    // frame's done only when the second frame waited for it.
    EXPECT_EQ(sim.events_processed(), before_done ? 5u : 4u);
  }
}

TEST_F(NetTest, LinkFlapOverAReservedDoneHoldsTheNextFrame) {
  // The link goes down while an uncongested frame serializes. A frame sent
  // before that frame's done (which it files) or after it (which it
  // releases) waits for the link either way.
  for (const bool before_done : {true, false}) {
    SCOPED_TRACE(before_done ? "sent before the done" : "sent after it");
    Simulator sim;
    SinkNode x{&sim};
    SinkNode y{&sim};
    connect(x.port(), y.port(), LinkParams{100.0, 100});
    const Packet pkt = make_packet(512);
    const Tick ser = x.port().serialization_delay(pkt);
    x.port().send(pkt);
    x.port().set_link_down(/*drop_queued=*/false);
    sim.schedule_at(before_done ? ser / 2 : 2 * ser,
                    [&] { x.port().send(pkt); });
    const Tick up_at = 5 * ser;
    sim.schedule_at(up_at, [&] { x.port().set_link_up(); });
    sim.run();
    ASSERT_EQ(y.arrivals.size(), 2u);
    EXPECT_EQ(y.arrivals[0].when, ser + 100);
    EXPECT_EQ(y.arrivals[1].when, up_at + ser + 100);
  }
}

/// Sends three distinguishable frames back to back on a long link and runs
/// to mid-way through the second one's serialization: the first frame is
/// propagating, the second serializing and the third queued.
struct FlapScenario {
  static constexpr Tick kPropagation = 1000;
  Tick ser = 0;
  std::vector<std::size_t> sizes;
};

FlapScenario start_flap_scenario(Simulator& sim, Port& port) {
  FlapScenario sc;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const Packet pkt = make_packet(1000 + i);
    sc.ser = port.serialization_delay(pkt);
    sc.sizes.push_back(pkt.size());
    port.send(pkt);
  }
  // Mid-way through the second frame's serialization.
  sim.run_until(sc.ser + sc.ser / 2);
  EXPECT_EQ(port.in_flight(), 2u);
  EXPECT_EQ(port.queued_bytes(), sc.sizes[2]);
  return sc;
}

TEST_F(NetTest, LinkFlapDeliversInFlightFramesAndDropsQueued) {
  connect(a.port(), b.port(), LinkParams{100.0, FlapScenario::kPropagation});
  const FlapScenario sc = start_flap_scenario(sim, a.port());
  EXPECT_EQ(a.port().set_link_down(/*drop_queued=*/true), 1u);
  sim.run();
  // Both frames already on the wire arrive on schedule; the queued one is
  // gone, and nothing restarts transmission while the link is down.
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(b.arrivals[0].bytes, sc.sizes[0]);
  EXPECT_EQ(b.arrivals[1].bytes, sc.sizes[1]);
  EXPECT_EQ(b.arrivals[1].when, 2 * sc.ser + FlapScenario::kPropagation);
  EXPECT_EQ(a.port().counters().drops, 1u);
  EXPECT_EQ(a.port().queued_bytes(), 0u);
  EXPECT_EQ(a.port().in_flight(), 0u);
}

TEST_F(NetTest, LinkFlapHoldsQueuedFramesUntilLinkUp) {
  connect(a.port(), b.port(), LinkParams{100.0, FlapScenario::kPropagation});
  const FlapScenario sc = start_flap_scenario(sim, a.port());
  EXPECT_EQ(a.port().set_link_down(/*drop_queued=*/false), 0u);
  const Tick up_at = 10 * sc.ser;
  sim.schedule_at(up_at, [&] { a.port().set_link_up(); });
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(b.arrivals[i].bytes, sc.sizes[i]) << "arrival " << i;
  }
  EXPECT_EQ(b.arrivals[1].when, 2 * sc.ser + FlapScenario::kPropagation);
  // The held frame starts serializing when the link returns.
  EXPECT_EQ(b.arrivals[2].when, up_at + sc.ser + FlapScenario::kPropagation);
  EXPECT_EQ(a.port().counters().drops, 0u);
}

TEST(NetTeardown, FramesInFlightAndParkedInTheSwitchAreFreed) {
  // Tearing a topology down mid-run must free every frame wherever it
  // waits: on a link (a port's in-flight FIFO), in an egress FIFO, or
  // parked in the switch pipeline for a scheduled forward. The ASan job's
  // leak checker holds this; the counts prove each place is occupied.
  Simulator sim;
  SinkNode src{&sim};
  SinkNode dst{&sim};
  EventInjectorSwitch sw(&sim, 2, EventInjectorSwitch::Options{});
  constexpr Tick kPropagation = 1000;
  connect(src.port(), sw.port(0), LinkParams{100.0, kPropagation});
  connect(sw.port(1), dst.port(), LinkParams{100.0, kPropagation});
  sw.add_route(Ipv4Address::from_octets(10, 0, 0, 2), 1);
  const Tick ser = src.port().serialization_delay(make_packet(1024));
  // More frames than the link holds while the first one propagates.
  const int frames = static_cast<int>(kPropagation / ser) + 4;
  for (int i = 0; i < frames; ++i) src.port().send(make_packet(1024));
  // The first frame has reached the switch and waits out the pipeline
  // latency; the rest are still on the wire or queued behind it.
  sim.run_until(kPropagation + ser + 1);
  EXPECT_EQ(sw.parked(), 1u);
  EXPECT_GE(src.port().in_flight(), 1u);
  EXPECT_GT(src.port().queued_bytes(), 0u);
  EXPECT_GT(sim.pending_events(), 0u);
}

TEST(NetTeardown, OrchestratorDestroyedMidRunFreesHeldFrames) {
  // A delay event parks one data frame in the switch far beyond the run's
  // deadline; destroying the orchestrator with it (and any frames still on
  // the wire) parked must release everything.
  TestConfig cfg;
  cfg.traffic.num_msgs_per_qp = 4;
  cfg.traffic.message_size = 64 * 1024;
  DataPacketEvent hold;
  hold.psn = 2;
  hold.type = EventType::kDelay;
  hold.delay = 10 * kMillisecond;
  cfg.traffic.data_pkt_events.push_back(hold);
  Orchestrator::Options options;
  options.max_sim_time = 50 * kMicrosecond;
  Orchestrator orch(cfg, options);
  orch.run();
  EXPECT_GE(orch.injector().parked(), 1u);
  EXPECT_GT(orch.sim().pending_events(), 0u);
}

TEST_F(NetTest, UnwiredPortBlackholes) {
  a.port().send(make_packet(64));  // no peer attached
  sim.run();
  EXPECT_TRUE(b.arrivals.empty());
}

class WireSizeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WireSizeTest, SerializationDelayScalesWithSize) {
  Simulator sim;
  SinkNode x{&sim}, y{&sim};
  connect(x.port(), y.port(), LinkParams{100.0, 0});
  const Packet pkt = make_packet(GetParam());
  EXPECT_EQ(x.port().serialization_delay(pkt),
            static_cast<Tick>(static_cast<double>(pkt.size() + 24) * 8.0 /
                              100.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, WireSizeTest,
                         ::testing::Values(0u, 64u, 256u, 1024u, 4096u));

}  // namespace
}  // namespace lumina
