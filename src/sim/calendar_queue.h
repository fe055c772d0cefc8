// Calendar queue — the simulator's pending-event structure.
//
// A calendar queue (Brown 1988) hashes events into time buckets the way a
// desk calendar files appointments onto day pages: bucket index is
// (when / width) mod nbuckets, and dequeue walks the calendar one "day" at
// a time starting from the last-popped day. Links and timers produce
// tightly clustered timestamps, so with a width tuned to the observed
// inter-event gap both enqueue and dequeue are O(1) amortized — versus the
// O(log n) sift of the binary heap this replaced.
//
// Buckets hold 24-byte (when, id, slot) keys, never callbacks. Each
// callback is moved once into a slot of a chunked store owned by the
// queue, where its address stays fixed until it has fired: sorting a
// bucket, reclaiming a consumed prefix or re-filing the table on a resize
// copies keys only. Bucket vectors keep their capacity across resizes, so
// a queue whose depth swings through the grow and shrink thresholds stops
// allocating once every bucket has seen its peak load.
//
// Ordering contract: strict (when, id) lexicographic order, identical to
// the (time, seq) order of ReferenceScheduler. Every structural decision
// (bucket count, width, resize points) is a pure function of the push/pop
// sequence, so runs stay bit-for-bit reproducible.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/inline_callback.h"
#include "util/time.h"

namespace lumina {

class CalendarQueue {
 public:
  /// One pending event's ordering key. `id` doubles as the same-tick
  /// tie-breaker: ids are allocated in scheduling order, so (when, id) order
  /// equals the documented (time, seq) FIFO-within-tick order. `slot` names
  /// the event's callback in the slot store.
  struct Key {
    Tick when = 0;
    std::uint64_t id = 0;
    std::uint32_t slot = 0;
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

  CalendarQueue();

  /// Files the event and moves `cb` into a free callback slot.
  void push(Tick when, std::uint64_t id, InlineCallback&& cb);

  /// Removes and returns the minimum-(when, id) key. Pre: !empty(). The
  /// callback stays in its slot until release(key.slot).
  Key pop_min();

  /// Minimum key without removing it; nullptr when empty. The located
  /// position is memoized, so a peek followed by pop_min() costs one scan.
  const Key* peek_min();

  /// The callback stored in `slot`. Its address is stable while the slot is
  /// held, including across pushes that add slot chunks.
  InlineCallback& callback(std::uint32_t slot) {
    return (*chunks_[slot / kSlotsPerChunk])[slot % kSlotsPerChunk];
  }

  /// Destroys the callback in `slot` and returns the slot to the free list.
  void release(std::uint32_t slot) {
    callback(slot) = InlineCallback{};
    free_slots_.push_back(slot);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Structure telemetry for the sim_kernel bench and tests.
  std::size_t num_buckets() const { return mask_ + 1; }
  int width_shift() const { return shift_; }
  std::uint64_t resizes() const { return resizes_; }
  std::uint64_t direct_searches() const { return direct_searches_; }

 private:
  /// Bucket keys stay sorted ascending by (when, id); `head` marks the
  /// consumed prefix so popping the front never memmoves.
  struct Bucket {
    std::vector<Key> keys;
    std::size_t head = 0;

    bool has_live() const { return head < keys.size(); }
    const Key& front() const { return keys[head]; }
    void clear() {
      keys.clear();
      head = 0;
    }
  };

  /// 64 callbacks (4 KiB) per chunk: enough to amortize the allocation,
  /// small enough that a short run does not fault in memory it never uses.
  static constexpr std::uint32_t kSlotsPerChunk = 64;
  using SlotChunk = std::array<InlineCallback, kSlotsPerChunk>;

  static bool precedes(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.id < b.id;
  }

  std::uint64_t year_of(Tick when) const {
    return static_cast<std::uint64_t>(when) >> shift_;
  }
  std::size_t bucket_of(std::uint64_t year) const {
    return static_cast<std::size_t>(year & mask_);
  }

  std::uint32_t acquire_slot();
  void insert(const Key& key);
  bool locate_min();  // memoizes the min position in cached_bucket_
  void resize_table(std::size_t new_nbuckets);
  void maybe_grow();
  void maybe_shrink();

  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 18;
  static constexpr int kMaxShift = 41;  // width <= ~2200 s, beyond any run

  /// Never shrinks: buckets past mask_ are empty but keep their capacity
  /// for the next grow.
  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;   // active bucket count - 1 (power of two)
  int shift_ = 12;         // bucket width = 2^shift_ ns
  std::size_t size_ = 0;
  std::uint64_t search_year_ = 0;  // <= year of the current minimum event
  bool cache_valid_ = false;
  std::size_t cached_bucket_ = 0;
  std::uint64_t resizes_ = 0;
  std::uint64_t direct_searches_ = 0;
  std::vector<Key> scratch_;  // resize_table's re-sort buffer

  std::vector<std::unique_ptr<SlotChunk>> chunks_;
  std::vector<std::uint32_t> free_slots_;  // LIFO: the warmest slot first
  std::uint32_t slots_used_ = 0;           // slots ever handed out
};

}  // namespace lumina
