// Timing-wheel tests (sim/timing_wheel.h).
//
// The wheel is the simulator's one pending-event set, and its contract
// is EXACT (time, seq) order: every shipped trace digest depends on
// event ordering.  The suite therefore leans on a differential test
// against an ordered-set reference model driven by the same operation
// stream, plus the structural cases a wheel can get wrong and a heap
// cannot: level cascades, beyond-horizon overflow, and the in-place
// reschedule fast path.
#include "sim/timing_wheel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "scenario/engine.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace vegas::sim {
namespace {

using namespace literals;

TEST(TimingWheelTest, EmptyInitially) {
  TimingWheel w;
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.size(), 0u);
  EXPECT_FALSE(w.next_key().has_value());
}

TEST(TimingWheelTest, PopsInTimeOrderAcrossLevels) {
  // Deadlines spanning every wheel level (tick = 1.024 us, 6 bits per
  // level) plus one beyond the 2^58 ns horizon, inserted out of order.
  const std::vector<Time> times{
      Time::nanoseconds(1),        Time::seconds(2.0e9),  // overflow list
      100_us,  1_ms,    50_ms,     1_sec,
      100_sec, Time::seconds(1e4), Time::seconds(1e7),
  };
  TimingWheel w;
  std::uint64_t seq = 0;
  for (const Time t : times) w.schedule(t, seq++, [] {});
  EXPECT_EQ(w.size(), times.size());

  Time last = Time::zero();
  std::size_t fired = 0;
  while (!w.empty()) {
    const auto key = w.next_key();
    ASSERT_TRUE(key.has_value());
    const auto f = w.pop();
    EXPECT_EQ(f.time, key->time);  // next_key and pop agree
    EXPECT_GE(f.time, last);
    last = f.time;
    ++fired;
  }
  EXPECT_EQ(fired, times.size());
  // Exact times survive (deadlines are never rounded to ticks).
  EXPECT_EQ(last, Time::seconds(2.0e9));
}

TEST(TimingWheelTest, EqualDeadlineTiesFireInSequenceOrder) {
  // A tick bucket is a set ordered by seq, not a LIFO of insertion:
  // insert sequence numbers scrambled and expect ascending pops.
  TimingWheel w;
  std::vector<int> order;
  const std::uint64_t seqs[] = {7, 2, 9, 0, 5, 3, 8, 1, 6, 4};
  for (const std::uint64_t s : seqs) {
    w.schedule(5_ms, s, [&order, s] { order.push_back(static_cast<int>(s)); });
  }
  while (!w.empty()) w.pop().action();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// The core equivalence property: an identical stream of schedule /
// cancel / pop operations with shared sequence numbers produces the
// firing sequence of a (time, seq)-ordered set.
TEST(TimingWheelTest, DifferentialVsOrderedSet) {
  TimingWheel w;
  // Reference model: (time, seq, op index) of every live entry.
  using Ref = std::tuple<std::int64_t, std::uint64_t, std::size_t>;
  std::set<Ref> ref;
  std::uint64_t seq = 0;
  std::uint64_t x = 42;  // deterministic LCG
  const auto next_rand = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };

  std::vector<TimerId> wids;
  std::vector<Ref> refs;  // parallel to wids
  std::uint64_t ref_cancelled = 0;
  Time floor = Time::zero();  // like the Simulator: never into the past

  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t r = next_rand();
    if (r % 100 < 55) {
      // Times cluster at RTO-ish offsets with frequent exact collisions.
      const Time at =
          floor + Time::microseconds(static_cast<std::int64_t>(r % 512) * 100);
      const std::uint64_t s = seq++;
      const std::size_t op = wids.size();
      wids.push_back(w.schedule(at, s, [] {}));
      refs.emplace_back(at.ns(), s, op);
      ref.insert(refs.back());
    } else if (r % 100 < 75 && !wids.empty()) {
      const std::size_t k = r % wids.size();
      w.cancel(wids[k]);
      ref_cancelled += ref.erase(refs[k]);
    } else if (!w.empty()) {
      ASSERT_FALSE(ref.empty());
      const auto wf = w.pop();
      const Ref head = *ref.begin();
      ref.erase(ref.begin());
      ASSERT_EQ(wf.time.ns(), std::get<0>(head)) << "diverged at op " << i;
      ASSERT_EQ(wf.id, wids[std::get<2>(head)]) << "diverged at op " << i;
      if (wf.time > floor) floor = wf.time;
    }
  }
  while (!w.empty()) {
    ASSERT_FALSE(ref.empty());
    const auto wf = w.pop();
    EXPECT_EQ(wf.id, wids[std::get<2>(*ref.begin())]);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(w.metrics().cancelled, ref_cancelled);
}

TEST(TimingWheelTest, CancelPreventsFireAndIsIdempotent) {
  TimingWheel w;
  bool fired = false;
  const TimerId id = w.schedule(1_ms, 0, [&] { fired = true; });
  EXPECT_TRUE(w.pending(id));
  w.cancel(id);
  EXPECT_FALSE(w.pending(id));
  EXPECT_TRUE(w.empty());
  w.cancel(id);  // no-op
  w.cancel(kNoTimer);
  EXPECT_FALSE(fired);
}

TEST(TimingWheelTest, CancelMiddleKeepsOthers) {
  TimingWheel w;
  std::vector<int> order;
  w.schedule(1_ms, 0, [&] { order.push_back(1); });
  const TimerId id = w.schedule(2_ms, 1, [&] { order.push_back(2); });
  w.schedule(3_ms, 2, [&] { order.push_back(3); });
  w.cancel(id);
  EXPECT_EQ(w.size(), 2u);
  ASSERT_TRUE(w.next_key().has_value());
  EXPECT_EQ(w.next_key()->time, 1_ms);
  while (!w.empty()) w.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(TimingWheelTest, OversizedActionIsBoxedAndStillFires) {
  TimingWheel w;
  struct Big {
    char payload[96];
  };
  Big big{};
  big.payload[0] = 7;
  int got = 0;
  w.schedule(1_ms, 0, [big, &got] { got = big.payload[0]; });
  EXPECT_EQ(w.metrics().boxed_actions, 1u);
  while (!w.empty()) w.pop().action();
  EXPECT_EQ(got, 7);
}

TEST(TimingWheelTest, StatsAccountingBalances) {
  TimingWheel w;
  std::uint64_t x = 777;
  std::uint64_t seq = 0;
  std::vector<TimerId> ids;
  Time floor = Time::zero();
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    ids.push_back(w.schedule(
        floor + Time::nanoseconds(static_cast<std::int64_t>(x % 1000)), seq++,
        [] {}));
    if (x % 3 == 0) w.cancel(ids[static_cast<std::size_t>(x % ids.size())]);
    if (x % 5 == 0 && !w.empty()) floor = w.pop().time;
  }
  while (!w.empty()) w.pop().action();
  const auto& st = w.metrics();
  EXPECT_EQ(st.fired + st.cancelled, st.scheduled);
  EXPECT_EQ(w.size(), 0u);
}

TEST(TimingWheelTest, StaleHandleAfterSlotReuseIsNoOp) {
  TimingWheel w;
  bool a_fired = false, b_fired = false;
  const TimerId a = w.schedule(1_ms, 0, [&] { a_fired = true; });
  w.cancel(a);
  // B reuses A's slot with a fresh generation; A's handle is stale.
  const TimerId b = w.schedule(2_ms, 1, [&] { b_fired = true; });
  EXPECT_NE(a, b);
  w.cancel(a);  // must NOT kill B
  EXPECT_FALSE(w.reschedule(a, 3_ms, 2));
  EXPECT_TRUE(w.pending(b));
  while (!w.empty()) w.pop().action();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(TimingWheelTest, RescheduleMovesAcrossLevelsKeepingAction) {
  TimingWheel w;
  int fired_at_ms = -1;
  // Armed a minute out (an outer level), then pulled in to 2 ms — the
  // restart() fast path crossing levels downward.
  const TimerId id = w.schedule(60_sec, 0, [&] { fired_at_ms = 2; });
  w.schedule(10_ms, 1, [] {});
  EXPECT_TRUE(w.reschedule(id, 2_ms, 2));
  EXPECT_TRUE(w.pending(id));

  auto f = w.pop();
  EXPECT_EQ(f.time, 2_ms);
  f.action();
  EXPECT_EQ(fired_at_ms, 2);  // the original callback came along
  EXPECT_FALSE(w.pending(id));
  EXPECT_FALSE(w.reschedule(id, 5_ms, 3));  // fired: fast path refuses

  // And upward: next pop is the 10 ms entry, untouched.
  EXPECT_EQ(w.pop().time, 10_ms);
  EXPECT_EQ(w.metrics().rearmed, 1u);
}

TEST(TimingWheelTest, CascadeRelocatesOuterBucketEntries) {
  // Two deadlines sharing an outer-level bucket at schedule time must
  // separate correctly once the cursor advances into their block.
  TimingWheel w;
  const Time t1 = 100_ms;
  const Time t2 = 100_ms + 300_us;  // same level-1 block as t1 initially
  w.schedule(t2, 0, [] {});
  w.schedule(t1, 1, [] {});
  w.schedule(1_ms, 2, [] {});

  EXPECT_EQ(w.pop().time, 1_ms);
  EXPECT_EQ(w.pop().time, t1);
  EXPECT_EQ(w.pop().time, t2);
  EXPECT_GT(w.metrics().cascaded, 0u);
}

TEST(TimingWheelTest, ChurnAt10kTimersReusesSlotsAndNeverBoxes) {
  // The RTO pattern: 10,000 armed timers, every segment restarts one.
  // After the table is warm, restart/stop churn must allocate nothing —
  // slot_allocs stays frozen and equals the live high-water mark.
  constexpr int kTimers = 10000;
  TimingWheel w;
  std::uint64_t seq = 0;
  std::vector<TimerId> ids;
  ids.reserve(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    ids.push_back(w.schedule(Time::milliseconds(1 + i % 16), seq++, [] {}));
  }
  const std::uint64_t warm_allocs = w.metrics().slot_allocs;
  EXPECT_EQ(warm_allocs, static_cast<std::uint64_t>(kTimers));

  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < kTimers; ++i) {
      auto& id = ids[static_cast<std::size_t>(i)];
      if ((i + round) % 3 == 0) {
        // stop + fresh arm: must come from the free list.
        w.cancel(id);
        id = w.schedule(Time::milliseconds(1 + (i + round) % 16), seq++, [] {});
      } else {
        EXPECT_TRUE(w.reschedule(id, Time::milliseconds(2 + (i * round) % 64),
                                 seq++));
      }
    }
  }
  EXPECT_EQ(w.metrics().slot_allocs, warm_allocs);
  EXPECT_EQ(w.metrics().slot_allocs, w.metrics().max_live);
  EXPECT_EQ(w.metrics().boxed_actions, 0u);
  EXPECT_EQ(w.size(), static_cast<std::size_t>(kTimers));
}

// ------------------------------------------------ Simulator integration

TEST(TimingWheelSimulatorTest, EventsAndTimersInterleaveInScheduleOrder) {
  // Equal-deadline one-shot events (schedule) and timers (Timer) must
  // fire in global schedule order: both draw their sequence number from
  // the lane's one counter.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1_ms, [&] { order.push_back(0); });
  Timer t1(sim, [&] { order.push_back(1); });
  t1.restart(1_ms);
  sim.schedule(1_ms, [&] { order.push_back(2); });
  Timer t2(sim, [&] { order.push_back(3); });
  t2.restart(1_ms);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.events_executed(), 4u);
}

TEST(TimingWheelSimulatorTest, RestartReplacesPendingExpiry) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.restart(1_ms);
  t.restart(5_ms);  // in-place fast path: same slot, new deadline
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(t.expiry(), 5_ms);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5_ms);
  EXPECT_EQ(sim.wheel_metrics().rearmed, 1u);

  // Restart after expiry arms a fresh entry (the stale id is refused).
  t.restart(2_ms);
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 7_ms);
}

TEST(TimingWheelSimulatorTest, PeriodicTimerTicksAtExactIntervals) {
  Simulator sim;
  std::vector<std::int64_t> tick_ms;
  PeriodicTimer t(sim, [&] {
    tick_ms.push_back(sim.now().ns() / 1000000);
    if (tick_ms.size() == 4) sim.stop();
  });
  t.start(500_ms);  // the paper's coarse-grained Reno tick
  sim.run();
  EXPECT_EQ(tick_ms, (std::vector<std::int64_t>{500, 1000, 1500, 2000}));
  t.stop();
  EXPECT_FALSE(t.running());
  sim.run();  // nothing left
  EXPECT_EQ(tick_ms.size(), 4u);
}

TEST(TimingWheelSimulatorTest, EventsPendingCountsBothStructures) {
  // A one-shot event and a timer both count as pending.
  Simulator sim;
  sim.schedule(1_ms, [] {});
  Timer t(sim, [] {});
  t.restart(2_ms);
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run();
  EXPECT_EQ(sim.events_pending(), 0u);
}

// ------------------------------------ pre-wheel trace-digest anchors

// Digests recorded BEFORE the timing wheel existed, when every timer was
// an entry in a binary heap of events and demux went through std::map.  The wheel run must reproduce them
// bit-for-bit: any deviation in equal-deadline ordering or cascade
// timing shows up here first.
TEST(TimingWheelDigestTest, ShippedScenariosMatchPreWheelDigests) {
  struct Anchor {
    const char* scn;
    std::size_t cell;
    std::uint64_t digest;
  };
  const Anchor anchors[] = {
      {"examples/scenarios/table1.scn", 0, 0x1a2b9c696d55d36eull},
      {"examples/scenarios/table1.scn", 11, 0x4907b2677d724c97ull},
      {"examples/scenarios/table2.scn", 0, 0x85720c2616bac922ull},
      {"examples/scenarios/table2.scn", 56, 0xbdc72a2d76279b15ull},
  };
  for (const Anchor& a : anchors) {
    SCOPED_TRACE(std::string(a.scn) + " cell " + std::to_string(a.cell));
    const scenario::Scenario sc =
        scenario::Scenario::load(std::string(VEGAS_REPO_ROOT) + "/" + a.scn);
    ASSERT_LT(a.cell, sc.cells());
    const scenario::CellResult r =
        scenario::run_cell(sc.cell(a.cell), a.cell, sc.label(a.cell));
    ASSERT_FALSE(r.flows.empty());
    EXPECT_TRUE(r.flows[0].traced);
    EXPECT_EQ(r.flows[0].trace_digest, a.digest);
  }
}

}  // namespace
}  // namespace vegas::sim
