// FIFO of packets over a power-of-two ring.
//
// The egress FIFO and in-flight FIFO of every Port, and the RNIC's control
// queue, hold a handful of frames at a time and cycle through millions.
// std::deque allocates and frees a chunk every few hundred pushes as its
// window slides; this ring allocates only when it outgrows its capacity
// (doubling), so a steady-state FIFO never touches the allocator. Slots
// keep moved-from (empty) Packets, so an idle ring pins no frame bytes.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "packet/roce_packet.h"

namespace lumina {

class PacketRing {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(Packet pkt) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(pkt);
    ++size_;
  }

  /// Removes and returns the oldest packet. The ring must not be empty.
  Packet pop_front() {
    Packet pkt = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return pkt;
  }

 private:
  static constexpr std::size_t kInitialSlots = 8;

  void grow() {
    std::vector<Packet> next(slots_.empty() ? kInitialSlots
                                            : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<Packet> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace lumina
