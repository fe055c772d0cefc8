#include "injector/switch.h"

#include <algorithm>
#include <optional>
#include <span>

#include "packet/bytes.h"
#include "packet/packet_arena.h"
#include "util/logging.h"

namespace lumina {
namespace {

/// The IPv4 destination of an IPv4 frame (EtherType 0x0800, version 4,
/// a whole base header); nullopt for anything else.
std::optional<Ipv4Address> ipv4_destination(const Packet& pkt) {
  const std::span<const std::uint8_t> b = pkt.span();
  if (b.size() < off::kIp + 20 || b[off::kEthType] != 0x08 ||
      b[off::kEthType + 1] != 0x00 || (b[off::kIp] >> 4) != 4) {
    return std::nullopt;
  }
  return Ipv4Address{ByteReader(b.subspan(off::kIpDst)).u32()};
}

}  // namespace

EventInjectorSwitch::EventInjectorSwitch(Simulator* sim, int num_ports,
                                         Options options)
    : sim_(sim), options_(options), mirror_(options.rng_seed) {
  ports_.reserve(static_cast<std::size_t>(num_ports));
  for (int i = 0; i < num_ports; ++i) {
    ports_.push_back(std::make_unique<Port>(sim, this, i));
  }
}

void EventInjectorSwitch::add_route(Ipv4Address dst, int port_index) {
  routes_[dst] = port_index;
}

void EventInjectorSwitch::set_mirror_targets(
    std::vector<MirrorEngine::Target> targets) {
  mirror_.set_targets(std::move(targets));
}

void EventInjectorSwitch::register_flow(const FlowKey& flow,
                                        std::uint32_t ipsn) {
  iter_tracker_.register_flow(flow, ipsn);
}

void EventInjectorSwitch::install_rule(const EventRule& rule) {
  table_.install(rule);
}

void EventInjectorSwitch::clear_rules() {
  table_.clear();
  relative_rules_.clear();
  discovery_index_.clear();
  discovered_ = 0;
}

void EventInjectorSwitch::install_relative_rule(const RelativeEventRule& rule) {
  relative_rules_.push_back(rule);
}

void EventInjectorSwitch::attach_telemetry(telemetry::Telemetry* t) {
  if (t == nullptr || t->metrics == nullptr) {
    trace_ = nullptr;
    m_table_match_ = nullptr;
    m_table_miss_ = nullptr;
    m_added_latency_ = nullptr;
    return;
  }
  trace_ = t->trace;
  m_table_match_ = &t->metrics->counter("injector.table_match");
  m_table_miss_ = &t->metrics->counter("injector.table_miss");
  // Added latency of the event-injection stages over a plain L2 program
  // (event stage cost + any injected delay) — the Fig. 7 decomposition.
  m_added_latency_ = &t->metrics->histogram(
      "injector.added_latency_ns",
      telemetry::BucketBounds::exponential(16, 2.0, 16));
}

// The ingress data plane, in the order of Fig. 6: classify, event match,
// transform, mirror tap, emit (docs/packet.md "Per-packet data plane").
// The order of the schedule_after calls below fixes event ids, which break
// same-tick ties: the mirror send precedes the forward, a duplicate's
// clone precedes the original, and a held reorder predecessor follows its
// successor. A frame that leaves the pipeline as it came (no enforced
// drop, reorder hold, duplicate or injected delay) takes one pipeline-exit
// event that sends the mirror copy and then forwards the frame: the two
// sends would otherwise be events at the same tick with adjacent ids.
void EventInjectorSwitch::handle_packet(int in_port, Packet pkt) {
  // Forward/mirror/reorder paths move the frame onward; an enforced drop
  // leaves its buffer behind for the arena.
  ScopedPacketReclaim reclaim(pkt);
  const Tick now = sim_->now();

  // Classify: an IPv4 frame that is not RoCE-shaped is a plain L3 forward
  // after the base latency. A frame that is not IPv4 (LLDP, MAC control and
  // other link-local protocols) ends at the switch: counted, nothing
  // scheduled.
  const auto view = parse_roce(pkt);
  if (!view) {
    if (ipv4_destination(pkt)) {
      forward_after(options_.l2_pipeline_latency, std::move(pkt));
    } else {
      ++non_ip_dropped_;
    }
    return;
  }
  ++counters_.roce_rx;
  const bool is_data = is_data_opcode(view->bth.opcode);
  const FlowKey flow{view->src_ip, view->dst_ip, view->bth.dest_qpn};
  Tick base_latency = options_.l2_pipeline_latency;
  EventAction action;  // kNone unless a table rule matches
  bool burst_dropped = false;

  if (options_.enable_event_injection) {
    base_latency += options_.event_stage_latency;
    // ITER tracking + event matching apply to data-carrying packets only
    // (ACK/NACK/CNP are not injectable, §3.3 fn 2).
    if (is_data) {
      action = match_event(in_port, now, flow, *view);
      // An armed Gilbert–Elliott channel judges every data packet of its
      // flow — including the one that just armed it (the channel starts
      // in the Bad state, so the trigger is the burst's first casualty).
      burst_dropped = burst_channel_drops(flow);
    }
  }

  const EventType event = action.type;
  const Tick event_delay = action.delay;
  const bool drop =
      (event == EventType::kDrop || burst_dropped) && options_.enforce_drops;
  const bool hold = event == EventType::kReorder && is_data;
  const bool mirror_tap = options_.enable_mirroring && mirror_.has_targets();
  const bool one_exit = mirror_tap && !drop && !hold &&
                        event != EventType::kDuplicate && event_delay == 0;

  // Transform, before mirroring so the mirrored copy reflects what was (or
  // would have been) forwarded.
  switch (event) {
    case EventType::kEcn:
      set_ecn_ce(pkt);
      break;
    case EventType::kCorrupt:
      corrupt_payload_bit(pkt);
      break;
    default:
      break;
  }
  if (options_.rewrite_mig_req && is_data && !parse_roce(pkt)->bth.mig_req) {
    set_mig_req(pkt, true);
  }

  // Mirror tap: always before anything can drop (§3.4). A packet lost to
  // an armed burst channel (no table match of its own) is mirrored with
  // kBurstLoss so the trace explains why it vanished.
  if (mirror_tap) {
    const EventType mirror_event =
        burst_dropped && event == EventType::kNone ? EventType::kBurstLoss
                                                   : event;
    auto mirrored = mirror_.mirror(pkt, mirror_event, now);
    ++counters_.mirrored;
    // The mirror slot records ingress order, but a delayed packet reaches
    // the receiver event_delay later — possibly behind its successors.
    // Remember the release time by mirror seq so the trace can be replayed
    // in receiver order (delay_releases() doc).
    if (event == EventType::kDelay && event_delay > 0) {
      delay_releases_[mirror_.mirrored_count() - 1] = now + event_delay;
      ++fault_stats_.delays_applied;
    }
    const std::uint32_t copy = park(std::move(mirrored.clone));
    const int out = mirrored.port_index;
    if (one_exit) {
      sim_->schedule_after(base_latency,
                           [this, copy, out, frame = park(std::move(pkt))] {
                             port(out).send(unpark(copy));
                             forward(unpark(frame));
                           });
    } else {
      sim_->schedule_after(base_latency, [this, copy, out] {
        port(out).send(unpark(copy));
      });
    }
  }

  // Emit: drop enforcement, reorder holds, duplication, the L3 forward.
  if (options_.enable_event_injection) {
    telemetry::observe(m_added_latency_,
                       options_.event_stage_latency + event_delay);
  }
  if (drop) {
    ++counters_.dropped_by_event;
    if (burst_dropped) ++fault_stats_.burst_loss_dropped;
    telemetry::trace_instant(trace_, "injector", "drop_enforced", now,
                             telemetry::kTrackInjector,
                             parse_roce(pkt)->bth.psn);
    return;
  }

  // §7 extension: hold the packet so it leaves AFTER its flow's next data
  // packet (adjacent-pair reordering).
  if (hold) {
    ReorderSlot slot;
    slot.pkt = std::move(pkt);
    // Safety valve: flush if no successor shows up (tail packet).
    slot.flush_event = sim_->schedule_after(
        options_.reorder_flush_timeout, [this, flow] { flush_reorder(flow); });
    reorder_slots_[flow] = std::move(slot);
    return;
  }

  ++counters_.roce_tx;
  const Tick depart = base_latency + event_delay;
  // Duplication: a byte-identical clone chases the original one tick behind
  // — the receiver sees the same PSN twice back to back.
  if (event == EventType::kDuplicate) {
    Packet clone = pkt.clone_arena();
    ++counters_.roce_tx;
    ++fault_stats_.duplicates_emitted;
    forward_after(depart + 1, std::move(clone));
  }
  if (!one_exit) forward_after(depart, std::move(pkt));
  // A held (reordered) predecessor departs right behind this packet.
  if (is_data) {
    if (const auto it = reorder_slots_.find(flow); it != reorder_slots_.end()) {
      sim_->cancel(it->second.flush_event);
      Packet held = std::move(it->second.pkt);
      reorder_slots_.erase(it);
      ++counters_.roce_tx;
      forward_after(depart + 1, std::move(held));
    }
  }
}

EventAction EventInjectorSwitch::match_event(int in_port, Tick now,
                                             const FlowKey& flow,
                                             const RoceView& view) {
  // Stateful-discovery ablation: the first packet of a new flow binds
  // pending relative rules, taking its PSN as the IPSN.
  if (!relative_rules_.empty() && !discovery_index_.contains(flow)) {
    const int index = ++discovered_;
    discovery_index_[flow] = index;
    for (const auto& rel : relative_rules_) {
      if (rel.conn_index != index) continue;
      EventRule rule;
      rule.flow = flow;
      rule.psn = psn_add(view.bth.psn, static_cast<std::int64_t>(rel.psn) - 1);
      rule.iter = rel.iter;
      rule.action = rel.action;
      rule.delay = rel.delay;
      rule.fault = rel.fault;
      table_.install(rule);
    }
  }
  const std::uint32_t iter = iter_tracker_.observe(flow, view.bth.psn);
  const auto action = table_.match(flow, view.bth.psn, iter);
  if (!action) {
    telemetry::inc(m_table_miss_);
    return {};
  }
  ++counters_.events_applied;
  telemetry::inc(m_table_match_);
  telemetry::trace_instant(trace_, "injector", "event_applied", now,
                           telemetry::kTrackInjector, view.bth.psn);
  // Stateful fault activations: the matched packet arms the fault; its
  // ongoing effects then compose with any further rules.
  switch (action->type) {
    case EventType::kBurstLoss:
      start_burst_channel(flow, action->fault);
      break;
    case EventType::kPauseStorm:
      start_pause_storm(in_port, action->fault);
      break;
    case EventType::kLinkFlap:
      apply_link_flap(view.dst_ip, action->fault);
      break;
    default:
      break;
  }
  return *action;
}

void EventInjectorSwitch::start_burst_channel(const FlowKey& flow,
                                              const FaultParams& fault) {
  ++fault_stats_.burst_channels_started;
  // Seed derived from the switch seed and the flow identity, so channels
  // are independent per flow yet byte-deterministic for a fixed run seed.
  const std::uint64_t seed =
      options_.rng_seed ^
      (static_cast<std::uint64_t>(FlowKeyHash{}(flow)) * 0x100000001b3ULL);
  BurstChannelSlot slot{
      GilbertElliottChannel(fault.ge_p, fault.ge_r, seed, /*start_bad=*/true),
      fault.duration > 0 ? sim_->now() + fault.duration : 0};
  burst_channels_.insert_or_assign(flow, std::move(slot));
}

bool EventInjectorSwitch::burst_channel_drops(const FlowKey& flow) {
  if (burst_channels_.empty()) return false;
  const auto it = burst_channels_.find(flow);
  if (it == burst_channels_.end()) return false;
  if (it->second.expires != 0 && sim_->now() >= it->second.expires) {
    burst_channels_.erase(it);
    return false;
  }
  return it->second.channel.drop_next();
}

void EventInjectorSwitch::start_pause_storm(int in_port,
                                            const FaultParams& fault) {
  ++fault_stats_.pause_storms;
  const Tick refresh = std::max<Tick>(1, options_.pause_refresh_interval);
  const Tick duration = fault.duration > 0 ? fault.duration : refresh;
  const double gbps = port(in_port).link().gbps;
  // Each frame names ~2 refresh intervals of pause so coverage overlaps;
  // one quantum is 512 bit-times at the victim's link rate.
  const std::int64_t want_quanta =
      2 * refresh * static_cast<std::int64_t>(gbps) / kPfcBitTimesPerQuantum;
  const auto quanta = static_cast<std::uint16_t>(
      std::clamp<std::int64_t>(want_quanta, 1, 0xFFFF));
  const int priority = fault.priority;
  for (Tick at = 0; at < duration; at += refresh) {
    sim_->schedule_after(at, [this, in_port, priority, quanta] {
      send_pause_frame(in_port, priority, quanta);
    });
  }
  // Storm over: an explicit resume (0 quanta) reopens the priority.
  sim_->schedule_after(duration, [this, in_port, priority] {
    send_pause_frame(in_port, priority, 0);
  });
}

void EventInjectorSwitch::send_pause_frame(int port_index, int priority,
                                           std::uint16_t quanta) {
  PfcFrame frame;
  const int pri = std::clamp(priority, 0, 7);
  frame.class_enable = static_cast<std::uint16_t>(1u << pri);
  frame.quanta[static_cast<std::size_t>(pri)] = quanta;
  // Locally administered source MAC naming the emitting switch port.
  Packet pkt = build_pfc_frame(
      MacAddress::from_u48(0x02AA00000000ULL |
                           static_cast<std::uint64_t>(port_index)),
      frame);
  ++fault_stats_.pause_frames_sent;
  port(port_index).send(std::move(pkt));
}

void EventInjectorSwitch::apply_link_flap(Ipv4Address dst_ip,
                                          const FaultParams& fault) {
  const auto it = routes_.find(dst_ip);
  if (it == routes_.end()) return;
  ++fault_stats_.link_flaps;
  Port& egress = port(it->second);
  fault_stats_.flap_queued_dropped +=
      egress.set_link_down(fault.flap_drops_queued);
  const Tick duration = fault.duration > 0 ? fault.duration : kMicrosecond;
  const int port_index = it->second;
  sim_->schedule_after(duration,
                       [this, port_index] { port(port_index).set_link_up(); });
}

void EventInjectorSwitch::flush_reorder(const FlowKey& flow) {
  const auto it = reorder_slots_.find(flow);
  if (it == reorder_slots_.end()) return;
  Packet held = std::move(it->second.pkt);
  reorder_slots_.erase(it);
  ++counters_.roce_tx;
  forward(std::move(held));
}

std::uint32_t EventInjectorSwitch::park(Packet pkt) {
  if (free_parked_.empty()) {
    parked_.push_back(std::move(pkt));
    return static_cast<std::uint32_t>(parked_.size() - 1);
  }
  const std::uint32_t slot = free_parked_.back();
  free_parked_.pop_back();
  parked_[slot] = std::move(pkt);
  return slot;
}

Packet EventInjectorSwitch::unpark(std::uint32_t slot) {
  free_parked_.push_back(slot);
  return std::move(parked_[slot]);
}

void EventInjectorSwitch::forward_after(Tick delay, Packet pkt) {
  sim_->schedule_after(delay, [this, slot = park(std::move(pkt))] {
    forward(unpark(slot));
  });
}

void EventInjectorSwitch::forward(Packet pkt) {
  // Only IPv4 frames are ever forwarded: RoCE by its parsed view, anything
  // else by the IPv4 header.
  const auto view = parse_roce(pkt);
  const Ipv4Address dst = view ? view->dst_ip : *ipv4_destination(pkt);
  const auto it = routes_.find(dst);
  if (it == routes_.end()) {
    LUMINA_LOG(kWarn) << "switch: no route for " << dst.to_string();
    return;
  }
  Port& egress = port(it->second);
  // Congestion-driven ECN (extension): step marking at the egress queue.
  if (options_.ecn_marking_threshold_bytes > 0 && view &&
      is_data_opcode(view->bth.opcode) &&
      egress.queued_bytes() > options_.ecn_marking_threshold_bytes) {
    set_ecn_ce(pkt);
    ++counters_.ecn_marked_by_queue;
  }
  egress.send(std::move(pkt));
}

}  // namespace lumina
