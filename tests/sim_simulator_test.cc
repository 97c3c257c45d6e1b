#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/timer.h"

namespace vegas::sim {
namespace {

using namespace literals;

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<std::int64_t> at_ns;
  sim.schedule(2_ms, [&] { at_ns.push_back(sim.now().ns()); });
  sim.schedule(5_ms, [&] { at_ns.push_back(sim.now().ns()); });
  sim.run();
  EXPECT_EQ(at_ns, (std::vector<std::int64_t>{2'000'000, 5'000'000}));
  EXPECT_EQ(sim.now(), 5_ms);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, RelativeSchedulingNests) {
  Simulator sim;
  Time inner_fired;
  sim.schedule(1_ms, [&] {
    sim.schedule(1_ms, [&] { inner_fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_fired, 2_ms);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  Time fired;
  sim.schedule(5_ms, [&] {
    sim.schedule(Time::zero() - 3_ms, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, 5_ms);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_ms, [&] { ++fired; });
  sim.schedule(10_ms, [&] { ++fired; });
  sim.run_until(5_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5_ms);  // clock parks at the deadline
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();  // remaining event still runs afterwards
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventExactlyAtDeadlineFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule(5_ms, [&] { fired = true; });
  sim.run_until(5_ms);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StopAbortsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_ms, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(2_ms, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const TimerId id = sim.schedule(1_ms, [&] { fired = true; });
  EXPECT_TRUE(sim.timer_pending(id));
  sim.cancel_timer(id);
  EXPECT_FALSE(sim.timer_pending(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(TimerTest, FiresOnceAfterDelay) {
  Simulator sim;
  int count = 0;
  Timer t(sim, [&] { ++count; });
  t.restart(3_ms);
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(t.expiry(), 3_ms);
  sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(t.armed());
}

TEST(TimerTest, RestartReplacesPendingExpiry) {
  Simulator sim;
  std::vector<Time> fires;
  Timer t(sim, [&] { fires.push_back(sim.now()); });
  t.restart(3_ms);
  sim.schedule(1_ms, [&] { t.restart(5_ms); });  // now expires at 6 ms
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], 6_ms);
}

TEST(TimerTest, StopCancels) {
  Simulator sim;
  int count = 0;
  Timer t(sim, [&] { ++count; });
  t.restart(3_ms);
  sim.schedule(1_ms, [&] { t.stop(); });
  sim.run();
  EXPECT_EQ(count, 0);
  EXPECT_FALSE(t.armed());
}

TEST(PeriodicTimerTest, TicksAtFixedInterval) {
  Simulator sim;
  std::vector<Time> ticks;
  PeriodicTimer t(sim, [&] { ticks.push_back(sim.now()); });
  t.start(500_ms);
  sim.run_until(Time::seconds(2.2));
  ASSERT_EQ(ticks.size(), 4u);
  EXPECT_EQ(ticks[0], 500_ms);
  EXPECT_EQ(ticks[3], 2000_ms);
}

TEST(PeriodicTimerTest, StopFromCallback) {
  Simulator sim;
  int count = 0;
  PeriodicTimer t(sim, [&] {
    if (++count == 3) t.stop();
  });
  t.start(100_ms);
  sim.run_until(Time::seconds(10));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTimerTest, PauseFromCallbackStopsFiring) {
  Simulator sim;
  int count = 0;
  PeriodicTimer t(sim, [&] {
    if (++count == 2) t.pause();
  });
  t.start(100_ms);
  sim.run_until(Time::seconds(10));
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(t.paused());
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTimerTest, ResumeKeepsPhase) {
  Simulator sim;
  std::vector<Time> ticks;
  PeriodicTimer t(sim, [&] {
    ticks.push_back(sim.now());
    if (ticks.size() == 2) t.pause();  // last tick fires at 1000 ms
  });
  t.start(500_ms);
  // Wake at 2.3 s, mid-interval: the next tick must land on the original
  // 500 ms grid — 2500 ms, not 2300 + 500.
  sim.schedule(Time::seconds(2.3), [&] { t.resume(); });
  sim.run_until(Time::seconds(3.2));
  ASSERT_EQ(ticks.size(), 4u);
  EXPECT_EQ(ticks[0], 500_ms);
  EXPECT_EQ(ticks[1], 1000_ms);
  EXPECT_EQ(ticks[2], 2500_ms);
  EXPECT_EQ(ticks[3], 3000_ms);
}

TEST(PeriodicTimerTest, ResumeAtExactBoundarySkipsToNext) {
  Simulator sim;
  std::vector<Time> ticks;
  PeriodicTimer t(sim, [&] {
    ticks.push_back(sim.now());
    if (ticks.size() == 1) t.pause();
  });
  t.start(500_ms);
  // A tick due exactly at the wake instant would already have fired (as
  // a no-op) before the waking event; the first live tick is the NEXT
  // boundary.
  sim.schedule(Time::milliseconds(1500), [&] { t.resume(); });
  sim.run_until(Time::seconds(2.2));
  ASSERT_EQ(ticks.size(), 2u);
  EXPECT_EQ(ticks[0], 500_ms);
  EXPECT_EQ(ticks[1], 2000_ms);
}

TEST(PeriodicTimerTest, ResumeWhileRunningIsNoOp) {
  Simulator sim;
  std::vector<Time> ticks;
  PeriodicTimer t(sim, [&] { ticks.push_back(sim.now()); });
  t.start(500_ms);
  sim.schedule(Time::milliseconds(700), [&] { t.resume(); });
  sim.run_until(Time::seconds(2.2));
  ASSERT_EQ(ticks.size(), 4u);
  EXPECT_EQ(ticks[1], 1000_ms);  // cadence untouched
}

TEST(PeriodicTimerTest, StartAfterPauseReanchorsPhase) {
  Simulator sim;
  std::vector<Time> ticks;
  PeriodicTimer t(sim, [&] {
    ticks.push_back(sim.now());
    t.pause();
  });
  t.start(500_ms);
  sim.schedule(Time::milliseconds(1234), [&] { t.start(100_ms); });
  sim.run_until(Time::seconds(1.4));
  ASSERT_EQ(ticks.size(), 2u);
  EXPECT_EQ(ticks[0], 500_ms);
  EXPECT_EQ(ticks[1], Time::milliseconds(1334));  // new phase, not the old grid
  EXPECT_TRUE(t.paused());  // the callback pauses after every tick
}

}  // namespace
}  // namespace vegas::sim
