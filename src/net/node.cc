#include "net/node.h"

#include <utility>

#include "packet/packet_arena.h"

namespace lumina {

void Port::send(Packet pkt) {
  if (peer_ == nullptr) {  // unwired port: blackhole
    PacketArena::reclaim(std::move(pkt));
    return;
  }
  if (queued_bytes_ + pkt.size() > queue_byte_cap_) {
    ++counters_.drops;
    PacketArena::reclaim(std::move(pkt));
    return;
  }
  queued_bytes_ += pkt.size();
  counters_.max_queued_bytes =
      std::max(counters_.max_queued_bytes, queued_bytes_);
  queue_.push_back(std::move(pkt));
  if (reserved_done_ != 0) {
    const std::uint64_t done = std::exchange(reserved_done_, 0);
    if (!sim_->passed(busy_until_, done)) {
      // The wire is still busy: file the done so it starts this frame.
      sim_->schedule_reserved(busy_until_, done,
                              [this] { start_transmission(); });
      return;
    }
    // The done has passed. Filed, it would have found the FIFO empty and
    // let the wire go idle.
    sim_->release_reserved(done);
    transmitting_ = false;
  }
  if (!transmitting_ && link_up_) start_transmission();
}

std::size_t Port::set_link_down(bool drop_queued) {
  link_up_ = false;
  if (!drop_queued) return 0;
  const std::size_t dropped = queue_.size();
  counters_.drops += dropped;
  while (!queue_.empty()) PacketArena::reclaim(queue_.pop_front());
  queued_bytes_ = 0;
  return dropped;
}

void Port::set_link_up() {
  if (link_up_) return;
  link_up_ = true;
  // A frame serializing at flap time still owns the wire; its completion
  // continuation restarts the queue. Otherwise kick it here.
  if (!transmitting_ && !queue_.empty()) start_transmission();
}

void Port::start_transmission() {
  if (!link_up_) {
    transmitting_ = false;
    return;
  }
  if (queue_.empty()) {
    transmitting_ = false;
    if (drained_cb_) drained_cb_();
    return;
  }
  transmitting_ = true;
  Packet pkt = queue_.pop_front();
  queued_bytes_ -= pkt.size();

  const Tick tx_delay = tx_time_ns(pkt.wire_size());
  const Tick done = sim_->now() + tx_delay;
  busy_until_ = done;
  ++counters_.tx_packets;
  counters_.tx_bytes += pkt.size();

  // Arrival times are non-decreasing in send order and same-tick events
  // fire in scheduling order, so this event's frame is the FIFO head.
  in_flight_.push_back(std::move(pkt));
  sim_->schedule_at(done + params_.propagation,
                    [this] { peer_->deliver(in_flight_.pop_front()); });
  if (!queue_.empty() || drained_cb_) {
    sim_->schedule_at(done, [this] { start_transmission(); });
  } else {
    reserved_done_ = sim_->reserve_id();
  }
}

void Port::deliver(Packet pkt) {
  ++counters_.rx_packets;
  counters_.rx_bytes += pkt.size();
  owner_->handle_packet(index_, std::move(pkt));
}

}  // namespace lumina
