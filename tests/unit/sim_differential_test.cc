// Differential test: the calendar-queue Simulator against the retired
// binary-heap scheduler (sim/reference_scheduler.h).
//
// The hot-path overhaul (docs/simulator.md) must be observationally
// invisible: identical (time, seq) firing order, identical returned event
// ids, identical clock progression and counters. This harness generates
// seeded-random scheduling workloads — schedule_at / schedule_after /
// cancel (including cancel-of-fired, cancel-of-unknown, double-cancel),
// same-tick ties, negative delays, nested scheduling from inside callbacks,
// stop(), run_until() — as pure data scripts, executes each script against
// both implementations, and asserts the observable behavior is identical.
//
// Scripts are data (not closures) precisely so the same workload can drive
// two different scheduler types through the same template executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
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
};

struct Op {
  OpKind kind;
  Tick tick = 0;
  int slot = -1;    // slot defined by a schedule op
  int target = -1;  // slot referenced by kCancelSlot
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

// ---------------------------------------------------------------------------
// Script executor (works for both scheduler types)
// ---------------------------------------------------------------------------

struct Observation {
  std::vector<std::pair<int, Tick>> firings;  // (slot, fire time) in order
  std::vector<std::uint64_t> ids;             // per slot; 0 = never scheduled
  Tick final_now = 0;
  std::uint64_t events_processed = 0;
  std::size_t pending_events = 0;
  std::size_t max_queue_depth = 0;
  std::uint64_t cancel_requests = 0;
};

template <typename Scheduler>
Observation execute(const Script& script) {
  Scheduler sched;
  Observation obs;
  obs.ids.assign(script.body.size(), 0);

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
      }
    }

    auto callback(int slot) {
      return [this, slot] {
        obs.firings.emplace_back(slot, sched.now());
        for (const Op& op : script.body[static_cast<std::size_t>(slot)]) {
          apply(op);
        }
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

}  // namespace
}  // namespace lumina
