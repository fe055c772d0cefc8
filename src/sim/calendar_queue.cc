#include "sim/calendar_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace lumina {

CalendarQueue::CalendarQueue() : buckets_(kMinBuckets), mask_(kMinBuckets - 1) {}

std::uint32_t CalendarQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slots_used_ % kSlotsPerChunk == 0) {
    chunks_.push_back(std::make_unique<SlotChunk>());
  }
  return slots_used_++;
}

void CalendarQueue::push(Tick when, std::uint64_t id, InlineCallback&& cb) {
  maybe_grow();
  const std::uint64_t year = year_of(when);
  if (size_ == 0 || year < search_year_) search_year_ = year;
  const std::uint32_t slot = acquire_slot();
  callback(slot) = std::move(cb);
  insert(Key{when, id, slot});
  ++size_;
  cache_valid_ = false;
}

void CalendarQueue::insert(const Key& key) {
  Bucket& bucket = buckets_[bucket_of(year_of(key.when))];
  std::vector<Key>& keys = bucket.keys;
  if (bucket.head == keys.size() && bucket.head != 0) bucket.clear();
  // Events usually arrive in increasing time order, so the common case is a
  // plain append; ties and re-arms walk back a few slots at most.
  std::size_t pos = keys.size();
  while (pos > bucket.head && precedes(key, keys[pos - 1])) --pos;
  keys.insert(keys.begin() + static_cast<std::ptrdiff_t>(pos), key);
}

CalendarQueue::Key CalendarQueue::pop_min() {
  if (!cache_valid_) locate_min();
  Bucket& bucket = buckets_[cached_bucket_];
  const Key key = bucket.keys[bucket.head];
  ++bucket.head;
  if (bucket.head == bucket.keys.size()) {
    bucket.clear();
  } else if (bucket.head >= 64 && bucket.head * 2 >= bucket.keys.size()) {
    // Reclaim the consumed prefix once it dominates the vector.
    bucket.keys.erase(bucket.keys.begin(),
                      bucket.keys.begin() +
                          static_cast<std::ptrdiff_t>(bucket.head));
    bucket.head = 0;
  }
  --size_;
  cache_valid_ = false;
  // More events may share the popped year; resuming the scan there keeps
  // the next locate O(1) in the common case.
  search_year_ = year_of(key.when);
  maybe_shrink();
  return key;
}

const CalendarQueue::Key* CalendarQueue::peek_min() {
  if (size_ == 0) return nullptr;
  if (!cache_valid_) locate_min();
  return &buckets_[cached_bucket_].front();
}

bool CalendarQueue::locate_min() {
  if (size_ == 0) return false;
  // Walk the calendar one year at a time from the last known position. A
  // bucket's sorted front is its minimum, so front.year == y identifies the
  // global minimum (all earlier years were just proven empty).
  std::uint64_t year = search_year_;
  for (std::size_t scanned = 0; scanned <= mask_; ++scanned, ++year) {
    const Bucket& bucket = buckets_[bucket_of(year)];
    if (bucket.has_live() && year_of(bucket.front().when) == year) {
      cached_bucket_ = bucket_of(year);
      search_year_ = year;
      cache_valid_ = true;
      return true;
    }
  }
  // Sparse tail: no event within a full calendar round. Direct-search every
  // bucket front for the global minimum and jump the scan position to it.
  ++direct_searches_;
  const Key* best = nullptr;
  std::size_t best_bucket = 0;
  for (std::size_t i = 0; i <= mask_; ++i) {
    const Bucket& bucket = buckets_[i];
    if (!bucket.has_live()) continue;
    if (best == nullptr || precedes(bucket.front(), *best)) {
      best = &bucket.front();
      best_bucket = i;
    }
  }
  cached_bucket_ = best_bucket;
  search_year_ = year_of(best->when);
  cache_valid_ = true;
  return true;
}

void CalendarQueue::maybe_grow() {
  const std::size_t nbuckets = mask_ + 1;
  if (size_ + 1 > nbuckets * 2 && nbuckets < kMaxBuckets) {
    resize_table(nbuckets * 2);
  }
}

void CalendarQueue::maybe_shrink() {
  const std::size_t nbuckets = mask_ + 1;
  if (nbuckets > kMinBuckets && size_ < nbuckets / 8) {
    resize_table(nbuckets / 2);
  }
}

void CalendarQueue::resize_table(std::size_t new_nbuckets) {
  ++resizes_;
  scratch_.clear();
  for (std::size_t i = 0; i <= mask_; ++i) {
    Bucket& bucket = buckets_[i];
    scratch_.insert(scratch_.end(),
                    bucket.keys.begin() +
                        static_cast<std::ptrdiff_t>(bucket.head),
                    bucket.keys.end());
    bucket.clear();  // keeps the vector's capacity for the re-file below
  }
  std::sort(scratch_.begin(), scratch_.end(), precedes);

  // Re-tune the bucket width to the observed event spacing: one event per
  // bucket-year on average. Width is a power of two so bucket mapping stays
  // a shift+mask. This is a pure function of the pending set — resize
  // decisions replay identically on every run.
  if (scratch_.size() >= 2) {
    const std::uint64_t span = static_cast<std::uint64_t>(
        scratch_.back().when - scratch_.front().when);
    const std::uint64_t gap = span / (scratch_.size() - 1);
    shift_ = gap == 0
                 ? 0
                 : std::min(kMaxShift, static_cast<int>(std::bit_width(gap)));
  }

  // Buckets past the old mask_ are empty (cleared when they were last
  // active), so growing only appends the ones never used before.
  if (new_nbuckets > buckets_.size()) buckets_.resize(new_nbuckets);
  mask_ = new_nbuckets - 1;
  cache_valid_ = false;
  if (!scratch_.empty()) search_year_ = year_of(scratch_.front().when);
  // Globally sorted input appends in order within each bucket: O(1) each.
  for (const Key& key : scratch_) insert(key);
}

}  // namespace lumina
