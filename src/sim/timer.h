// Restartable one-shot and periodic timers.
//
// Timer wraps the schedule/cancel dance every protocol needs: restart()
// replaces any pending expiry, stop() is idempotent, and the callback is
// fixed at construction so rearming never allocates a new closure chain.
//
// Timers live on the simulator's hierarchical timing wheel, like every
// other event: restart()/stop() are O(1) regardless of how many events
// are pending, which is what keeps 10,000-flow runs (one RTO rearm per
// segment, one coarse tick per connection) flat.  Callbacks are
// common::SmallFn — a `[this]` capture stays inline, so arming allocates
// nothing in steady state.
#pragma once

#include <utility>

#include "common/small_fn.h"
#include "sim/simulator.h"

namespace vegas::sim {

/// One-shot restartable timer.
class Timer {
 public:
  using Callback = SmallFn<48>;

  Timer(Simulator& sim, Callback cb) : sim_(sim), cb_(std::move(cb)) {}
  ~Timer() { stop(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer to fire after `delay`.  A pending expiry is
  /// cancelled first.
  void restart(Time delay);

  /// Cancels a pending expiry, if any.
  void stop();

  bool armed() const { return id_ != kNoTimer && sim_.timer_pending(id_); }

  /// Absolute expiry time; meaningful only while armed().
  Time expiry() const { return expiry_; }

 private:
  Simulator& sim_;
  Callback cb_;
  TimerId id_ = kNoTimer;
  Time expiry_;
};

/// Fixed-interval periodic timer — drives Reno's 500 ms coarse-grained
/// clock tick (§3.1).  The callback runs once per interval until stop().
///
/// pause()/resume() implement tickless idle: a paused timer fires no
/// events at all, but remembers its tick phase, and resume() re-arms at
/// the next phase-aligned boundary strictly after now.  Every tick that
/// does fire therefore lands at exactly the same instants as if the
/// timer had never paused — which is what lets an idle TCP connection
/// suspend its coarse clock without perturbing a single deadline
/// (tcp::Connection relies on this for trace-digest stability).
class PeriodicTimer {
 public:
  using Callback = SmallFn<48>;

  PeriodicTimer(Simulator& sim, Callback cb) : sim_(sim), cb_(std::move(cb)) {}
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts ticking every `interval`, first tick after `interval`.
  /// Clears any paused state and re-anchors the phase at now.
  void start(Time interval);
  void stop();
  bool running() const { return id_ != kNoTimer && sim_.timer_pending(id_); }

  /// Stops firing but keeps the tick phase.  Safe to call from within
  /// the tick callback (the common case: the owner decides, after a
  /// tick, that nothing needs the clock any more).  No-op when already
  /// paused; must not be called before the first start().
  void pause();

  /// Re-arms a paused timer at the next phase-aligned tick strictly
  /// after now — ticks resume exactly where they would have been.
  /// No-op unless paused.
  void resume();

  bool paused() const { return paused_; }

 private:
  void tick();

  Simulator& sim_;
  Callback cb_;
  Time interval_;
  Time next_due_;  // expiry of the pending tick; phase anchor while paused
  bool paused_ = false;
  TimerId id_ = kNoTimer;
};

}  // namespace vegas::sim
