// Hierarchical timing wheel: the simulator's one pending-event set.  It
// holds every event — one-shot packet arrivals and app callbacks, and
// the timers behind sim::Timer and sim::PeriodicTimer
// (docs/PERFORMANCE.md).
//
// A binary heap makes every arm/cancel O(log n) in the number of
// pending events; at 10,000 flows the RTO-rearm-per-segment pattern puts
// tens of thousands of live timers in that heap and the log factor (and
// its cache misses) dominates.  The classic fix — the Linux kernel's
// timer wheel — is levels of power-of-two bucket arrays over the clock:
// arm and cancel are O(1) array + linked-list operations, and buckets
// are cascaded lazily as the clock advances.
//
// Geometry: 8 levels x 64 slots over a 1.024 us tick (2^10 ns), so the
// wheel spans 2^58 ns (~9 simulated years); anything later (Time::max()
// sentinels) goes to an overflow list that find-min also consults.
//
// Unlike kernel wheels this one must preserve EXACT priority-queue
// semantics — trace digests depend on it:
//  - Entries keep their exact Time and a caller-supplied insertion
//    sequence number; ties at equal deadlines fire in sequence order.
//    pop() always extracts the strict (time, seq) minimum, so firing
//    order is exactly that of a (time, seq)-ordered priority queue.
//  - A tick bucket is therefore a set, not a FIFO.  find-min scans the
//    first non-empty bucket (per-level occupancy bitmaps make the scan
//    a ctz plus one short list walk); when that bucket is a level-0
//    bucket and the overflow list is empty, the scan snapshots the
//    WHOLE bucket as a (time, seq)-sorted run and subsequent pops walk
//    the run instead of rescanning — a bucket of n same-tick timers
//    (the 10k-flow coarse-tick pattern) costs one sort instead of n
//    linear scans.  Any insert/cancel that could perturb the run's
//    order invalidates it (see link()/unlink()).
//  - advance_to() may only move the cursor up to the earliest live
//    deadline (the simulator's event loop guarantees this); that makes
//    every bucket the cursor skips provably empty, so a cascade touches
//    exactly one bucket per level whose block index changed.
//
// Callbacks are SmallFn<48>, stored in a parallel array so the hot
// Entry (time/seq/links, 32 bytes) packs two-per-cache-line for the
// scan; entries are generation-stamped slots in a free-listed vector
// (a stale handle never matches a later entry in the same slot) and
// buckets are intrusive doubly-linked lists of slot indices: in steady
// state restart()/stop() churn performs zero allocations — the
// `slot_allocs == max_live` stats identity is asserted by tests.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/small_fn.h"
#include "obs/metrics.h"
#include "sim/time.h"

namespace vegas::obs {
class Registry;
}  // namespace vegas::obs

namespace vegas::sim {

using TimerId = std::uint64_t;
inline constexpr TimerId kNoTimer = 0;

class TimingWheel {
 public:
  using Action = SmallFn<48>;

  TimingWheel() { head_.fill(kNil); }

  /// Schedules `action` at absolute time `at` with the caller's global
  /// insertion sequence number (ties at equal times fire in seq order).
  /// `at` must not precede the wheel cursor (the last pop/advance time).
  TimerId schedule(Time at, std::uint64_t seq, Action action);

  /// O(1): unlinks the entry from its bucket.  Cancelling a fired,
  /// cancelled or stale id is a no-op (timers race with the events they
  /// guard; that is normal).
  void cancel(TimerId id);

  /// Moves a live entry to a new deadline in place, keeping its action
  /// and handle: the restart() fast path — no callback teardown, no
  /// free-list round trip.  Equivalent to cancel + schedule with the
  /// same ordering (the caller supplies a fresh sequence number).
  /// Returns false if `id` is fired/cancelled/stale.
  bool reschedule(TimerId id, Time at, std::uint64_t seq);

  bool pending(TimerId id) const;

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// (time, seq) of the earliest live entry: the simulator's next event.
  struct Key {
    Time time;
    std::uint64_t seq;
  };
  std::optional<Key> next_key();

  /// Extracts the (time, seq) minimum and advances the cursor to it,
  /// cascading outer-level buckets as their blocks are entered.
  /// Precondition: !empty().
  struct Fired {
    Time time;
    TimerId id;
    Action action;
  };
  Fired pop();

  /// Moves the cursor forward without firing anything.  `t` must not
  /// exceed the earliest live deadline.
  void advance_to(Time t);

  /// Counters are obs cells (obs/registry.h); `slot_allocs == max_live`
  /// in steady state is asserted by tests.
  struct Metrics {
    obs::Counter scheduled;
    obs::Counter fired;
    obs::Counter cancelled;
    obs::Counter rearmed;        // in-place reschedule() fast path
    obs::Counter cascaded;       // entries re-placed by advance_to
    obs::Counter slot_allocs;    // entry slots created (vs reused)
    obs::Counter boxed_actions;  // callbacks too big for inline storage
    obs::Counter max_live;       // high-water live count
  };
  const Metrics& metrics() const { return metrics_; }

  /// Binds every counter into `reg` as "<prefix>.<counter>".
  void register_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  static constexpr int kLevels = 8;
  static constexpr int kSlotBits = 6;
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;  // 64
  static constexpr int kTickShiftNs = 10;  // 1 tick = 1024 ns
  static constexpr std::uint32_t kNil = 0xffffffff;
  static constexpr std::int16_t kFree = -1;      // entry not in any bucket
  static constexpr std::int16_t kOverflow = -2;  // entry on the overflow list

  /// Hot per-timer state; the Action lives in actions_[same index] so
  /// bucket walks touch only these 32 bytes per entry.
  struct Entry {
    Time time;               // exact deadline (never rounded to ticks)
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;   // bumped on fire/cancel; 0 never live
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
    std::int16_t bucket = kFree;  // level*64+slot, kOverflow, or kFree
    bool live = false;
  };

  static TimerId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<TimerId>(slot) << 32) | gen;
  }
  static std::uint32_t slot_of(TimerId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint32_t gen_of(TimerId id) {
    return static_cast<std::uint32_t>(id);
  }

  static std::uint64_t tick_of(Time t) {
    return static_cast<std::uint64_t>(t.ns()) >> kTickShiftNs;
  }

  /// Highest level whose block index differs between ticks `a` and `b`
  /// (0 when they share a level-1 block; may exceed kLevels - 1).
  static int top_changed_level(std::uint64_t a, std::uint64_t b);

  /// Level whose bucket holds `tick` relative to the cursor: the lowest
  /// level at which the tick still shares the NEXT level's block with
  /// the cursor.  Returns -1 for beyond-horizon (overflow).
  int level_for(std::uint64_t tick) const;

  void link(std::uint32_t idx);    // place entries_[idx] per cursor
  void unlink(std::uint32_t idx);  // remove from bucket/overflow list
  void release(std::uint32_t idx);
  std::uint32_t scan_min();  // entry index of the (time, seq) min;
                             // may snapshot a sorted run (see run_)

  std::vector<Entry> entries_;
  std::vector<Action> actions_;  // parallel to entries_
  std::vector<std::uint32_t> free_;
  std::array<std::uint32_t, static_cast<std::size_t>(kLevels) * kSlots> head_;
  std::array<std::uint64_t, kLevels> occupied_{};  // slot bitmaps per level
  std::uint32_t overflow_head_ = kNil;
  std::uint64_t cur_tick_ = 0;
  std::size_t live_ = 0;
  std::uint32_t min_idx_ = kNil;  // cached find-min; kNil = recompute

  // Sorted-run pop cache: when the minimum lives in a level-0 bucket and
  // the overflow list is empty, scan_min() snapshots that bucket sorted
  // by (time, seq); pops then consume run_[run_pos_..] in order without
  // rescanning.  A level-0 bucket holds exactly one tick, so nothing at
  // another slot or level can interleave; link() into the run's slot or
  // an earlier one (or overflow), and unlink() of any run-bucket entry
  // other than the head pop itself, invalidate the run.
  std::vector<std::uint32_t> run_;
  std::size_t run_pos_ = 0;
  std::uint32_t run_bucket_ = kNil;  // level-0 bucket index, kNil = inactive
  bool run_skip_unlink_ = false;     // pop() extracting the run head

  Metrics metrics_;
};

}  // namespace vegas::sim
