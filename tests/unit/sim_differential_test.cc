// Differential test: the calendar-queue Simulator against the retired
// binary-heap scheduler (sim/reference_scheduler.h).
//
// The hot-path overhaul (docs/simulator.md) must be observationally
// invisible: identical (time, seq) firing order, identical returned event
// ids, identical clock progression and counters. This harness generates
// seeded-random scheduling workloads — schedule_at / schedule_after /
// cancel (including cancel-of-fired, cancel-of-unknown, double-cancel),
// same-tick ties, negative delays, nested scheduling from inside callbacks,
// stop(), run_until(), reserved ids filed or released later — as pure data
// scripts, executes each script against both implementations, and asserts
// the observable behavior is identical.
//
// Scripts are data (not closures) precisely so the same workload can drive
// two different scheduler types through the same template executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "support/reference_scheduler.h"

namespace lumina {
namespace {

// ---------------------------------------------------------------------------
// Workload script model
// ---------------------------------------------------------------------------

enum class OpKind {
  kScheduleAt,     // schedule slot `slot` at absolute time `tick`
  kScheduleAfter,  // schedule slot `slot` at now + `tick` (may be negative)
  kCancelSlot,     // cancel the id recorded for slot `target` (0 if unset)
  kCancelRaw,      // cancel a raw id never returned by schedule_*
  kStop,           // stop() — callback-only
  kRun,            // run() — top-level only
  kRunUntil,       // run_until(tick) — top-level only
  // Reserved ids. The reference scheduler schedules a reserved event
  // eagerly; it does its work only if filed before it fires.
  kReserve,  // schedule slot `target` (the anchor) at now + `tick` + `gap`,
             // then reserve slot `slot` for now + `tick`
  kFile,     // file reserved slot `target`, or release it if it has passed
  kRelease,  // release reserved slot `target`
};

struct Op {
  OpKind kind;
  Tick tick = 0;
  int slot = -1;    // slot defined by a schedule or reserve op
  int target = -1;  // slot referenced by kCancelSlot, kFile, kRelease; the
                    // anchor of kReserve
  Tick gap = 0;     // kReserve: anchor's lead over the reserved tick
};

/// One workload: a top-level op sequence plus, per slot, the op sequence its
/// callback executes when (if) it fires. Slot k is scheduled by exactly one
/// schedule op somewhere in the script.
struct Script {
  std::vector<Op> top;
  std::vector<std::vector<Op>> body;  // indexed by slot
};

class ScriptGen {
 public:
  explicit ScriptGen(std::uint64_t seed) : rng_(seed) {}

  Script generate() {
    Script s;
    const int top_ops = 8 + static_cast<int>(rng_() % 48);
    for (int i = 0; i < top_ops; ++i) {
      s.top.push_back(top_op(s));
    }
    // Always drain at the end so every surviving event fires and the final
    // counters cover the whole script.
    s.top.push_back({OpKind::kRun});
    return s;
  }

 private:
  Op top_op(Script& s) {
    switch (rng_() % 10) {
      case 0:
        return {OpKind::kRunUntil, random_time()};
      case 1:
        return cancel_op();
      case 2:
        return {OpKind::kRun};
      default:
        return schedule_op(s, /*depth=*/0);
    }
  }

  /// Allocates a slot and generates its callback body (depth-limited so
  /// nested schedules terminate).
  Op schedule_op(Script& s, int depth) {
    const int slot = static_cast<int>(s.body.size());
    s.body.emplace_back();
    if (depth < 3) {
      const int body_ops = static_cast<int>(rng_() % 4);
      for (int i = 0; i < body_ops; ++i) {
        // Materialize the op BEFORE indexing s.body: a nested schedule_op
        // grows s.body and would invalidate a held reference.
        Op op;
        switch (rng_() % 8) {
          case 0:
            op = cancel_op();
            break;
          case 1:
            if (depth >= 1) {  // stop() only from nested callbacks: rarer
              op = Op{OpKind::kStop};
              break;
            }
            [[fallthrough]];
          default:
            op = schedule_op(s, depth + 1);
        }
        s.body[static_cast<std::size_t>(slot)].push_back(op);
      }
    }
    Op op;
    if (rng_() % 2 == 0) {
      op.kind = OpKind::kScheduleAt;
      op.tick = random_time();
    } else {
      op.kind = OpKind::kScheduleAfter;
      // Mostly small forward delays (clustered timestamps — the calendar
      // queue's design load), sometimes zero or negative.
      const auto r = rng_() % 16;
      op.tick = r == 0 ? -static_cast<Tick>(rng_() % 100)
                       : static_cast<Tick>(rng_() % 5000);
    }
    op.slot = slot;
    slots_seen_.push_back(slot);
    return op;
  }

  Op cancel_op() {
    if (slots_seen_.empty() || rng_() % 8 == 0) {
      // Raw ids the schedulers never handed out — far future and 0-adjacent.
      return {OpKind::kCancelRaw, 0, -1, -1};
    }
    Op op{OpKind::kCancelSlot};
    op.target = slots_seen_[rng_() % slots_seen_.size()];
    return op;
  }

  Tick random_time() {
    switch (rng_() % 4) {
      case 0:  // tie bait: tiny range, collides constantly
        return static_cast<Tick>(rng_() % 8);
      case 1:  // sparse far future
        return static_cast<Tick>(rng_() % 3'000'000);
      default:  // clustered near-term
        return static_cast<Tick>(rng_() % 4096);
    }
  }

  std::mt19937_64 rng_;
  std::vector<int> slots_seen_;
};

/// Reserved-id workloads. Each reservation first schedules an anchor event
/// at or after the reserved tick, the way a Port's tx done always has its
/// frame's delivery filed at or after it, so a reserved event is never
/// later than every filed one. Callbacks then file or release reserved
/// slots, many of them at the reserved tick itself. No stop(): a
/// run_until() cut short moves the clock past events that have not fired,
/// where "passed" has no meaning.
class ReservedScriptGen {
 public:
  explicit ReservedScriptGen(std::uint64_t seed) : rng_(seed) {}

  Script generate() {
    Script s;
    const int top_ops = 8 + static_cast<int>(rng_() % 40);
    for (int i = 0; i < top_ops; ++i) {
      s.top.push_back(top_op(s));
    }
    s.top.push_back({OpKind::kRun});
    return s;
  }

 private:
  Op top_op(Script& s) {
    switch (rng_() % 12) {
      case 0:
        return {OpKind::kRunUntil, static_cast<Tick>(rng_() % 64)};
      case 1:
        return {OpKind::kRun};
      case 2:
      case 3:
        return settle_op();
      default:
        return rng_() % 2 == 0 ? reserve_op(s, 0) : schedule_op(s, 0);
    }
  }

  void fill_body(Script& s, int slot, int depth) {
    if (depth >= 3) return;
    const int body_ops = static_cast<int>(rng_() % 5);
    for (int i = 0; i < body_ops; ++i) {
      // Materialize the op before indexing s.body (see ScriptGen).
      Op op;
      switch (rng_() % 5) {
        case 0:
        case 1:
          op = settle_op();
          break;
        case 2:
          op = reserve_op(s, depth + 1);
          break;
        default:
          op = schedule_op(s, depth + 1);
      }
      s.body[static_cast<std::size_t>(slot)].push_back(op);
    }
  }

  int new_slot(Script& s, int depth) {
    const int slot = static_cast<int>(s.body.size());
    s.body.emplace_back();
    fill_body(s, slot, depth);
    return slot;
  }

  Op schedule_op(Script& s, int depth) {
    const int slot = new_slot(s, depth);
    return {OpKind::kScheduleAfter, small_delay(), slot};
  }

  Op reserve_op(Script& s, int depth) {
    const int slot = new_slot(s, depth);
    const int anchor = new_slot(s, depth);
    Op op{OpKind::kReserve, small_delay(), slot, anchor};
    op.gap = rng_() % 3 == 0 ? 0 : small_delay();
    reserved_.push_back(slot);
    return op;
  }

  Op settle_op() {
    if (reserved_.empty()) return {OpKind::kCancelRaw};
    Op op{rng_() % 4 == 0 ? OpKind::kRelease : OpKind::kFile};
    op.target = reserved_[rng_() % reserved_.size()];
    return op;
  }

  Tick small_delay() {  // ties galore
    return rng_() % 4 == 0 ? 0 : static_cast<Tick>(rng_() % 12);
  }

  std::mt19937_64 rng_;
  std::vector<int> reserved_;
};

// ---------------------------------------------------------------------------
// Script executor (works for both scheduler types)
// ---------------------------------------------------------------------------

enum class Reserved { kNone, kHeld, kSettled };

struct Observation {
  std::vector<std::pair<int, Tick>> firings;  // (slot, fire time) in order
  std::vector<std::uint64_t> ids;             // per slot; 0 = never scheduled
  Tick final_now = 0;
  std::uint64_t events_processed = 0;
  std::size_t pending_events = 0;
  std::size_t max_queue_depth = 0;
  std::uint64_t cancel_requests = 0;

  // Reserved slots: each kFile's outcome (slot, filed rather than passed)
  // in order, and per slot its tick and state.
  std::vector<std::pair<int, bool>> file_outcomes;
  std::vector<Tick> whens;
  std::vector<Reserved> reserved;
  // Reference only: eager reserved events that fired, and the ones among
  // them that had not been filed (no work: the lazy kernel never fires
  // them).
  std::vector<bool> fired;
  std::vector<bool> filed;
  std::uint64_t idle_fires = 0;
  // Simulator only: kFile ops run from a callback for the callback's own
  // tick, on a reserved id below (passed) and above (still to come) the
  // firing event's.
  int firing_slot = -1;
  int same_tick_below = 0;
  int same_tick_above = 0;
};

template <typename Scheduler>
Observation execute(const Script& script) {
  constexpr bool kLazy = std::is_same_v<Scheduler, Simulator>;
  Scheduler sched;
  Observation obs;
  obs.ids.assign(script.body.size(), 0);
  obs.whens.assign(script.body.size(), 0);
  obs.reserved.assign(script.body.size(), Reserved::kNone);
  obs.fired.assign(script.body.size(), false);
  obs.filed.assign(script.body.size(), false);

  struct Ctx {
    Scheduler& sched;
    const Script& script;
    Observation& obs;

    void apply(const Op& op) {
      switch (op.kind) {
        case OpKind::kScheduleAt:
          obs.ids[static_cast<std::size_t>(op.slot)] =
              sched.schedule_at(op.tick, callback(op.slot));
          break;
        case OpKind::kScheduleAfter:
          obs.ids[static_cast<std::size_t>(op.slot)] =
              sched.schedule_after(op.tick, callback(op.slot));
          break;
        case OpKind::kCancelSlot:
          sched.cancel(obs.ids[static_cast<std::size_t>(op.target)]);
          break;
        case OpKind::kCancelRaw:
          sched.cancel(0x7fff'ffff'ffffULL);
          sched.cancel(0);
          break;
        case OpKind::kStop:
          sched.stop();
          break;
        case OpKind::kRun:
          sched.run();
          break;
        case OpKind::kRunUntil:
          sched.run_until(op.tick);
          break;
        case OpKind::kReserve:
          reserve(op);
          break;
        case OpKind::kFile:
          file(static_cast<std::size_t>(op.target));
          break;
        case OpKind::kRelease:
          release(static_cast<std::size_t>(op.target));
          break;
      }
    }

    void reserve(const Op& op) {
      const auto slot = static_cast<std::size_t>(op.slot);
      obs.ids[static_cast<std::size_t>(op.target)] =
          sched.schedule_after(op.tick + op.gap, callback(op.target));
      obs.whens[slot] = sched.now() + op.tick;
      obs.reserved[slot] = Reserved::kHeld;
      if constexpr (kLazy) {
        obs.ids[slot] = sched.reserve_id();
      } else {
        obs.ids[slot] = sched.schedule_after(op.tick, [this, slot] {
          obs.fired[slot] = true;
          if (obs.filed[slot]) {
            callback(static_cast<int>(slot))();
          } else {
            ++obs.idle_fires;
          }
        });
      }
    }

    void file(std::size_t slot) {
      if (obs.reserved[slot] != Reserved::kHeld) return;
      obs.reserved[slot] = Reserved::kSettled;
      bool filed = false;
      if constexpr (kLazy) {
        const std::uint64_t id = obs.ids[slot];
        if (obs.firing_slot >= 0 && obs.whens[slot] == sched.now()) {
          const std::uint64_t firing =
              obs.ids[static_cast<std::size_t>(obs.firing_slot)];
          ++(id < firing ? obs.same_tick_below : obs.same_tick_above);
        }
        filed = !sched.passed(obs.whens[slot], id);
        if (filed) {
          sched.schedule_reserved(obs.whens[slot], id,
                                  callback(static_cast<int>(slot)));
        } else {
          sched.release_reserved(id);
        }
      } else {
        filed = !obs.fired[slot];
        obs.filed[slot] = filed;
      }
      obs.file_outcomes.emplace_back(static_cast<int>(slot), filed);
    }

    void release(std::size_t slot) {
      if (obs.reserved[slot] != Reserved::kHeld) return;
      obs.reserved[slot] = Reserved::kSettled;
      if constexpr (kLazy) sched.release_reserved(obs.ids[slot]);
    }

    auto callback(int slot) {
      return [this, slot] {
        obs.firings.emplace_back(slot, sched.now());
        const int outer = std::exchange(obs.firing_slot, slot);
        for (const Op& op : script.body[static_cast<std::size_t>(slot)]) {
          apply(op);
        }
        obs.firing_slot = outer;
      };
    }
  };
  Ctx ctx{sched, script, obs};

  for (const Op& op : script.top) {
    ctx.apply(op);
  }

  obs.final_now = sched.now();
  obs.events_processed = sched.events_processed();
  obs.pending_events = sched.pending_events();
  obs.max_queue_depth = sched.max_queue_depth();
  obs.cancel_requests = sched.cancel_requests();
  return obs;
}

// ---------------------------------------------------------------------------
// The differential check
// ---------------------------------------------------------------------------

constexpr int kWorkloads = 1200;

TEST(SimDifferential, CalendarQueueMatchesReferenceHeap) {
  int total_firings = 0;
  int total_cancels = 0;
  for (int seed = 1; seed <= kWorkloads; ++seed) {
    ScriptGen gen(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ULL);
    const Script script = gen.generate();

    const Observation got = execute<Simulator>(script);
    const Observation want = execute<ReferenceScheduler>(script);

    ASSERT_EQ(got.firings, want.firings) << "seed " << seed;
    ASSERT_EQ(got.ids, want.ids) << "seed " << seed;
    ASSERT_EQ(got.final_now, want.final_now) << "seed " << seed;
    ASSERT_EQ(got.events_processed, want.events_processed) << "seed " << seed;
    ASSERT_EQ(got.pending_events, want.pending_events) << "seed " << seed;
    ASSERT_EQ(got.max_queue_depth, want.max_queue_depth) << "seed " << seed;
    ASSERT_EQ(got.cancel_requests, want.cancel_requests) << "seed " << seed;

    total_firings += static_cast<int>(want.firings.size());
    total_cancels += static_cast<int>(want.cancel_requests);
  }
  // Guard against the generator degenerating into trivial scripts.
  EXPECT_GT(total_firings, 10 * kWorkloads);
  EXPECT_GT(total_cancels, kWorkloads);
}

// Deep same-tick pileups exercise the tie-break (when, seq) path harder
// than the uniform generator does.
TEST(SimDifferential, MassiveSameTickTies) {
  for (int seed = 1; seed <= 50; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    Script script;
    for (int i = 0; i < 400; ++i) {
      Op op{rng() % 2 == 0 ? OpKind::kScheduleAt : OpKind::kScheduleAfter,
            static_cast<Tick>(rng() % 3), static_cast<int>(script.body.size())};
      script.body.emplace_back();
      script.top.push_back(op);
      if (rng() % 4 == 0) {
        Op cancel{OpKind::kCancelSlot};
        cancel.target = static_cast<int>(rng() % script.body.size());
        script.top.push_back(cancel);
      }
    }
    script.top.push_back({OpKind::kRun});

    const Observation got = execute<Simulator>(script);
    const Observation want = execute<ReferenceScheduler>(script);
    ASSERT_EQ(got.firings, want.firings) << "seed " << seed;
    ASSERT_EQ(got.ids, want.ids) << "seed " << seed;
    ASSERT_EQ(got.events_processed, want.events_processed) << "seed " << seed;
    ASSERT_EQ(got.max_queue_depth, want.max_queue_depth) << "seed " << seed;
  }
}

// Wide time spans force calendar resizes and the sparse direct-search
// fallback; the heap is insensitive to either, making it a good oracle.
TEST(SimDifferential, SparseWideSpanWorkloads) {
  for (int seed = 1; seed <= 50; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919);
    Script script;
    for (int i = 0; i < 200; ++i) {
      Op op{OpKind::kScheduleAt,
            static_cast<Tick>(rng() % 1'000'000'000'000LL),
            static_cast<int>(script.body.size())};
      script.body.emplace_back();
      script.top.push_back(op);
    }
    script.top.push_back({OpKind::kRun});

    const Observation got = execute<Simulator>(script);
    const Observation want = execute<ReferenceScheduler>(script);
    ASSERT_EQ(got.firings, want.firings) << "seed " << seed;
    ASSERT_EQ(got.final_now, want.final_now) << "seed " << seed;
  }
}

// A callback fires in its callback slot. Here callbacks with a 40-byte
// payload (48 bytes of captures: the largest closure kept inline) each
// schedule well over two slot chunks of events from inside themselves,
// some of which do the same again, and only then check their payload. A
// slot handed out again or moved while its callback runs shows up as a
// corrupted payload, under ASan as a use-after-free.
struct Payload {
  std::uint64_t tag = 0;
  std::uint64_t depth = 0;
  std::uint64_t check[3] = {};

  static Payload make(std::uint64_t tag, std::uint64_t depth) {
    Payload p{tag, depth};
    for (std::uint64_t k = 0; k < 3; ++k) {
      p.check[k] = (tag * 31 + depth * 7 + k) * 0x9e3779b97f4a7c15ULL;
    }
    return p;
  }
  bool intact() const {
    const Payload fresh = make(tag, depth);
    return std::equal(check, check + 3, fresh.check);
  }
};

template <typename Scheduler>
struct SelfScheduling {
  static constexpr int kFanout = 300;  // > 2 chunks of 64 slots

  Scheduler sched;
  std::mt19937_64 rng;
  std::vector<std::pair<std::uint64_t, Tick>> firings;
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> leaves;  // cancel targets; fan-outs all fire
  int corrupted = 0;
  int checked = 0;

  explicit SelfScheduling(std::uint64_t seed) : rng(seed) {}

  void schedule_fanout(Tick when, std::uint64_t tag, std::uint64_t depth) {
    SelfScheduling* self = this;
    const Payload payload = Payload::make(tag, depth);
    static_assert(sizeof(self) + sizeof(payload) == 48);
    ids.push_back(sched.schedule_at(when, [self, payload] {
      self->fan_out(payload.tag, payload.depth);
      ++self->checked;
      if (!payload.intact()) ++self->corrupted;
    }));
  }

  void fan_out(std::uint64_t tag, std::uint64_t depth) {
    firings.emplace_back(tag, sched.now());
    for (int i = 0; i < kFanout; ++i) {
      const Tick delay = static_cast<Tick>(rng() % 16);  // ties galore
      const std::uint64_t child = tag * 1000 + static_cast<std::uint64_t>(i);
      if (depth < 2 && rng() % 97 == 0) {
        schedule_fanout(sched.now() + delay, child, depth + 1);
        continue;
      }
      ids.push_back(sched.schedule_after(delay, [this, child] {
        firings.emplace_back(child, sched.now());
      }));
      leaves.push_back(ids.back());
      if (rng() % 5 == 0) sched.cancel(leaves[rng() % leaves.size()]);
    }
  }
};

TEST(SimDifferential, SelfSchedulingCallbacksKeepTheirCaptures) {
  for (int seed = 1; seed <= 20; ++seed) {
    SelfScheduling<Simulator> got(static_cast<std::uint64_t>(seed));
    SelfScheduling<ReferenceScheduler> want(static_cast<std::uint64_t>(seed));
    for (std::uint64_t root = 0; root < 4; ++root) {
      got.schedule_fanout(static_cast<Tick>(root * 3), root + 1, 0);
      want.schedule_fanout(static_cast<Tick>(root * 3), root + 1, 0);
    }
    got.sched.run();
    want.sched.run();

    ASSERT_EQ(got.corrupted, 0) << "seed " << seed;
    ASSERT_EQ(want.corrupted, 0) << "seed " << seed;
    ASSERT_GT(got.checked, 4) << "seed " << seed;  // nested fan-outs ran
    ASSERT_EQ(got.checked, want.checked) << "seed " << seed;
    ASSERT_EQ(got.firings, want.firings) << "seed " << seed;
    ASSERT_EQ(got.ids, want.ids) << "seed " << seed;
    ASSERT_EQ(got.sched.events_processed(), want.sched.events_processed())
        << "seed " << seed;
    ASSERT_EQ(got.sched.cancel_requests(), want.sched.cancel_requests())
        << "seed " << seed;
    ASSERT_EQ(got.sched.max_queue_depth(), want.sched.max_queue_depth())
        << "seed " << seed;
  }
}

// Waves of same-tick-heavy bursts, each drained before the next: every
// wave lifts the depth from near zero past 257 pending events and back, so
// the calendar's bucket table grows 16 -> 256 buckets (at depths 33, 65,
// 129 and 257) and shrinks back (below 32, 16, 8 and 4) once per wave.
// Bucket storage survives those resizes; ordering must not notice.
TEST(SimDifferential, DepthWavesCrossResizeThresholds) {
  constexpr int kWaves = 60;
  for (int seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 104729);
    Script script;
    std::vector<int> slots;
    Tick base = 0;
    for (int wave = 0; wave < kWaves; ++wave) {
      const int burst = 300 + static_cast<int>(rng() % 200);
      for (int i = 0; i < burst; ++i) {
        const int slot = static_cast<int>(script.body.size());
        script.body.emplace_back();
        // A few callbacks schedule a same-tick follow-up of their own.
        if (rng() % 16 == 0) {
          const int child = static_cast<int>(script.body.size());
          script.body.emplace_back();
          script.body[static_cast<std::size_t>(slot)].push_back(
              Op{OpKind::kScheduleAfter, 0, child});
          slots.push_back(child);
        }
        // Ties: timestamps drawn from a window narrower than the burst.
        script.top.push_back(Op{OpKind::kScheduleAt,
                                base + static_cast<Tick>(rng() % 64), slot});
        slots.push_back(slot);
        if (rng() % 6 == 0) {
          Op cancel{OpKind::kCancelSlot};
          cancel.target = slots[rng() % slots.size()];
          script.top.push_back(cancel);
        }
      }
      base += 64 + static_cast<Tick>(rng() % 4096);
      script.top.push_back({OpKind::kRunUntil, base - 1});
    }
    script.top.push_back({OpKind::kRun});

    const Observation got = execute<Simulator>(script);
    const Observation want = execute<ReferenceScheduler>(script);
    ASSERT_EQ(got.firings, want.firings) << "seed " << seed;
    ASSERT_EQ(got.ids, want.ids) << "seed " << seed;
    ASSERT_EQ(got.final_now, want.final_now) << "seed " << seed;
    ASSERT_EQ(got.events_processed, want.events_processed) << "seed " << seed;
    ASSERT_EQ(got.pending_events, want.pending_events) << "seed " << seed;
    ASSERT_EQ(got.max_queue_depth, want.max_queue_depth) << "seed " << seed;
    ASSERT_EQ(got.cancel_requests, want.cancel_requests) << "seed " << seed;
    ASSERT_GT(want.max_queue_depth, 257u) << "seed " << seed;
  }
}


// Reserved ids against eager scheduling: the Simulator files a reserved
// id unless passed() puts it behind the firing event, and releases it
// then; ReferenceScheduler schedules every reserved event at reservation
// and lets it work only if it was filed before it fired. Firing order,
// ids, clock and every file outcome agree, and the Simulator fires the
// reference's events less the ones that fired with nothing to do.
TEST(SimDifferential, ReservedIdsFireWhereEagerEventsWould) {
  constexpr int kReservedWorkloads = 600;
  int filed = 0;
  int released_late = 0;
  int same_tick_below = 0;
  int same_tick_above = 0;
  std::uint64_t idle_fires = 0;
  for (int seed = 1; seed <= kReservedWorkloads; ++seed) {
    ReservedScriptGen gen(static_cast<std::uint64_t>(seed) *
                          0x2545f4914f6cdd1dULL);
    const Script script = gen.generate();

    const Observation got = execute<Simulator>(script);
    const Observation want = execute<ReferenceScheduler>(script);

    ASSERT_EQ(got.firings, want.firings) << "seed " << seed;
    ASSERT_EQ(got.ids, want.ids) << "seed " << seed;
    ASSERT_EQ(got.file_outcomes, want.file_outcomes) << "seed " << seed;
    ASSERT_EQ(got.final_now, want.final_now) << "seed " << seed;
    ASSERT_EQ(got.events_processed, want.events_processed - want.idle_fires)
        << "seed " << seed;
    ASSERT_EQ(got.pending_events, 0u) << "seed " << seed;
    ASSERT_EQ(want.pending_events, 0u) << "seed " << seed;
    ASSERT_EQ(got.cancel_requests, want.cancel_requests) << "seed " << seed;

    for (const auto& [slot, was_filed] : want.file_outcomes) {
      ++(was_filed ? filed : released_late);
    }
    same_tick_below += got.same_tick_below;
    same_tick_above += got.same_tick_above;
    idle_fires += want.idle_fires;
  }
  // Every outcome occurs often, including filing from a callback at the
  // reserved tick on both sides of the firing event's id.
  EXPECT_GT(filed, kReservedWorkloads);
  EXPECT_GT(released_late, kReservedWorkloads);
  EXPECT_GT(same_tick_below, 50);
  EXPECT_GT(same_tick_above, 50);
  EXPECT_GT(idle_fires, 2u * kReservedWorkloads);
}

}  // namespace
}  // namespace lumina
