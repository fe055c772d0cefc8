#include "support/reference_scheduler.h"

#include <algorithm>
#include <utility>

namespace lumina {

std::uint64_t ReferenceScheduler::schedule_at(Tick when, Callback cb) {
  Event ev;
  ev.when = when < now_ ? now_ : when;
  ev.seq = next_seq_++;
  ev.id = next_id_++;
  ev.cb = std::move(cb);
  const std::uint64_t id = ev.id;
  pending_ids_.insert(id);
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), EventOrder{});
  if (heap_.size() > max_queue_depth_) max_queue_depth_ = heap_.size();
  return id;
}

std::uint64_t ReferenceScheduler::schedule_after(Tick delay, Callback cb) {
  return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(cb));
}

void ReferenceScheduler::cancel(std::uint64_t event_id) {
  if (event_id == 0) return;
  ++cancel_requests_;
  if (pending_ids_.erase(event_id) > 0) {
    cancelled_.insert(event_id);
  }
}

ReferenceScheduler::Event ReferenceScheduler::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), EventOrder{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

bool ReferenceScheduler::step() {
  while (!heap_.empty()) {
    Event ev = pop_top();
    if (auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
      cancelled_.erase(it);
      continue;
    }
    pending_ids_.erase(ev.id);
    now_ = ev.when;
    ++processed_;
    ev.cb();
    return true;
  }
  return false;
}

void ReferenceScheduler::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void ReferenceScheduler::run_until(Tick deadline) {
  stopped_ = false;
  while (!stopped_ && !heap_.empty()) {
    // Peek past tombstones without firing.
    if (cancelled_.contains(heap_.front().id)) {
      cancelled_.erase(heap_.front().id);
      pop_top();
      continue;
    }
    if (heap_.front().when > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace lumina
