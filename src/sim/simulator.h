// The discrete-event simulator.
//
// Single-threaded by default, deterministic: pops the earliest event,
// advances the clock to it, runs its action, repeats.  All protocol code
// in this library is "real" code driven by these events — the property
// the paper values in its x-kernel simulator (§2.1): the simulated hosts
// run the actual implementation, not an abstract model.
//
// One pending-event structure backs the loop: a hierarchical
// TimingWheel (sim/timing_wheel.h) holds every event — one-shot
// packet arrivals and app callbacks as well as timers, whose
// restart/stop churn must be O(1).  Each event carries an insertion
// sequence number from the lane's counter, and the wheel pops the exact
// (time, seq) minimum, so events at the same instant fire in the order
// they were scheduled.
//
// Sharded execution (docs/DESIGN.md "shard determinism contract"): a
// Simulator can be split into LANES, one per topology shard.  Every
// lane is a complete event engine — its own wheel, clock and sequence
// counter — and the conservative parallel executor
// (exp::ShardExecutor) runs lanes on worker threads in lookahead-wide
// time windows.  Components are lane-agnostic: they keep their plain
// `Simulator&` and every schedule/cancel call routes to the lane whose
// event is currently executing on this thread (a thread-local active
// lane set by the lane run loop, or by LaneScope during setup).  With
// one lane — the default — the routing collapses to the single wheel
// and behaviour is bit-identical to the historical single-threaded
// simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "sim/timing_wheel.h"

namespace vegas::sim {

class Simulator {
  struct Lane;  // one shard's event engine (private, below)

 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (of this thread's active lane; the only
  /// lane, in single-lane mode).
  Time now() const { return lane().now; }

  /// Schedules `action` after `delay` from now.  Negative delays are
  /// clamped to zero (fires this instant, after already-queued events).
  /// The returned id works with cancel_timer/timer_pending.
  TimerId schedule(Time delay, TimingWheel::Action action);

  /// Schedules at an absolute time, which must not be in the past.
  TimerId schedule_at(Time at, TimingWheel::Action action);

  /// The name sim::Timer/PeriodicTimer arm through; same as schedule().
  TimerId schedule_timer(Time delay, TimingWheel::Action action) {
    return schedule(delay, std::move(action));
  }

  /// Timer::restart() fast path: moves a pending timer to now()+delay
  /// in place, keeping its callback (ordering identical to cancel +
  /// schedule_timer).  Returns false if `id` is no longer pending.
  bool restart_timer(TimerId id, Time delay);

  void cancel_timer(TimerId id);
  bool timer_pending(TimerId id) const;

  /// Runs until no event is pending or stop() is called.
  /// Single-lane only; sharded simulators run via exp::ShardExecutor.
  void run();

  /// Runs until simulated time reaches `deadline` (events at exactly
  /// `deadline` still fire), no event is pending, or stop() is called.
  /// Single-lane only.
  void run_until(Time deadline);

  /// Requests that the current run() return after the in-flight event.
  /// Single-lane only: the lane loop of a sharded run ignores it.
  void stop() { stopped_ = true; }

  /// Number of events executed since construction, summed over lanes
  /// (micro-benchmarks and sanity checks).  Timer expiries count.
  std::uint64_t events_executed() const;

  std::size_t events_pending() const;

  /// Timing-wheel counters (benchmarks, zero-alloc assertions).  Lane 0
  /// in sharded mode; see lane_wheel_metrics for the rest.
  const TimingWheel::Metrics& wheel_metrics() const {
    return lanes_.front()->wheel.metrics();
  }

  /// Binds the simulator's counters into `reg`: "sim.events_executed"
  /// plus "sim.timing_wheel.*" (lane 0; the scenario engine runs
  /// sharded cells without a metrics registry).
  void register_metrics(obs::Registry& reg) const;

  // --- sharded execution (exp::ShardExecutor) -----------------------------

  /// Lane count fits the id tag (see kLaneShift); far above any real
  /// shard plan.
  static constexpr int kMaxLanes = 64;

  /// Splits the simulator into `n` independent lanes.  Must be called
  /// before any event is scheduled or executed (the scenario engine
  /// calls it right after topology construction, which schedules
  /// nothing).  n == 1 is a no-op.
  void set_lanes(int n);

  int lanes() const { return static_cast<int>(lanes_.size()); }

  /// Routes schedule*() calls made on this thread to `lane` while in
  /// scope — the setup-phase companion of the lane run loop (which sets
  /// the active lane itself).  Used by the scenario engine to bind
  /// flows/traffic to their shard; harmless (lane 0) when single-lane.
  class LaneScope {
   public:
    LaneScope(Simulator& sim, int lane);
    ~LaneScope();
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

   private:
    Lane* prev_;
  };

  /// (time, seq) of the lane's earliest pending event, if any.
  /// Non-const: peeking caches the wheel's find-min.
  std::optional<TimingWheel::Key> lane_next_key(int lane) {
    return lanes_[static_cast<std::size_t>(lane)]->wheel.next_key();
  }

  /// Runs every event of `lane` with time STRICTLY BEFORE `bound`,
  /// advancing the lane clock to each.  The executor's window body:
  /// must only be called by the thread that owns the lane for the run.
  void lane_run_before(int lane, Time bound);

  /// Advances the lane clock to `t` (no-op if already past) without
  /// firing anything — end-of-window / end-of-run clock alignment.
  void lane_finish(int lane, Time t);

  /// Schedules into a specific lane at an absolute time with the lane's
  /// own sequence counter — the boundary-drain insertion path.  The
  /// caller must be the lane's owning thread (packet-pool confinement).
  TimerId lane_schedule_at(int lane, Time at, TimingWheel::Action action);

  std::uint64_t lane_events_executed(int lane) const {
    return lanes_[static_cast<std::size_t>(lane)]->events_executed;
  }
  Time lane_now(int lane) const {
    return lanes_[static_cast<std::size_t>(lane)]->now;
  }
  const TimingWheel::Metrics& lane_wheel_metrics(int lane) const {
    return lanes_[static_cast<std::size_t>(lane)]->wheel.metrics();
  }

 private:
  friend class LaneScope;

  /// One shard's complete event engine.  `owner` backs the active-lane
  /// ownership check: a stale thread-local from another simulator can
  /// never route events here.
  struct Lane {
    Simulator* owner = nullptr;
    int index = 0;
    TimingWheel wheel;
    Time now;
    std::uint64_t next_seq = 0;
    std::uint64_t events_executed = 0;
  };

  // Ids carry their lane in the top bits so cancel/pending/restart
  // resolve against the right wheel no matter which thread (or
  // teardown path) holds the handle.  Lane 0 tags as 0, so single-lane
  // ids are bit-identical to the historical ones.
  static constexpr int kLaneShift = 58;
  static constexpr std::uint64_t kLaneMask = 0x3full << kLaneShift;
  static std::uint64_t tag_id(int lane, std::uint64_t id) {
    return id | (static_cast<std::uint64_t>(lane) << kLaneShift);
  }
  static std::uint64_t untag_id(std::uint64_t id) { return id & ~kLaneMask; }
  Lane& lane_of_id(std::uint64_t id) const {
    const auto l = static_cast<std::size_t>(id >> kLaneShift);
    return *lanes_[l < lanes_.size() ? l : 0];
  }

  /// The one pop loop: runs `l`'s events in (time, seq) order while the
  /// next is due at or before `last`.  Returns true when it stops at an
  /// event due after `last`; false when the lane drains or, if
  /// `stoppable`, after the event during which stop() was called.
  bool run_lane(Lane& l, Time last, bool stoppable);

  /// The lane this thread is currently executing in (run loop or
  /// LaneScope), else lane 0.  The owner check rejects an active lane
  /// belonging to a different simulator (nested/parallel cells).
  Lane& lane() const {
    Lane* a = t_active_;
    if (a != nullptr && a->owner == this) return *a;
    return *lanes_.front();
  }

  // One pointer of thread-local routing state, set/restored by the lane
  // run loop and LaneScope.  Not hidden cross-run state: it never
  // outlives a run's scopes and carries no values between runs.
  // Defined inline with a constant initializer so every TU sees that no
  // dynamic TLS init exists — GCC then accesses the variable directly
  // instead of through the __tls_init wrapper (whose returned pointer
  // trips UBSan's null check when inlined cross-TU).
  inline static thread_local Lane* t_active_ =  // lint: mutable-static-ok
      nullptr;

  std::vector<std::unique_ptr<Lane>> lanes_;  // never empty; [0] = default
  bool stopped_ = false;
};

}  // namespace vegas::sim
