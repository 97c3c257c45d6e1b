#include "sim/simulator.h"

#include <utility>

#include "common/ensure.h"
#include "obs/registry.h"

namespace vegas::sim {

Simulator::Simulator() {
  lanes_.push_back(std::make_unique<Lane>());
  lanes_.front()->owner = this;
}

Simulator::~Simulator() {
  // A LaneScope never outlives its simulator, and the run loops restore
  // the previous active lane on exit; nothing to clear here.
}

void Simulator::set_lanes(int n) {
  ensure(n >= 1 && n <= kMaxLanes, "set_lanes: lane count out of range");
  ensure(lanes_.size() == 1, "set_lanes: already sharded");
  Lane& l0 = *lanes_.front();
  ensure(l0.events_executed == 0 && l0.wheel.empty(),
         "set_lanes: must be called before any events exist");
  for (int i = 1; i < n; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
    lanes_.back()->owner = this;
    lanes_.back()->index = i;
  }
}

Simulator::LaneScope::LaneScope(Simulator& sim, int lane) : prev_(t_active_) {
  ensure(lane >= 0 && lane < sim.lanes(), "LaneScope: lane out of range");
  t_active_ = sim.lanes_[static_cast<std::size_t>(lane)].get();
}

Simulator::LaneScope::~LaneScope() { t_active_ = prev_; }

void Simulator::register_metrics(obs::Registry& reg) const {
  reg.bind_counter("sim.events_executed", &lanes_.front()->events_executed);
  lanes_.front()->wheel.register_metrics(reg, "sim.timing_wheel");
}

std::uint64_t Simulator::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& l : lanes_) total += l->events_executed;
  return total;
}

std::size_t Simulator::events_pending() const {
  std::size_t total = 0;
  for (const auto& l : lanes_) total += l->wheel.size();
  return total;
}

TimerId Simulator::schedule(Time delay, TimingWheel::Action action) {
  if (delay < Time::zero()) delay = Time::zero();
  Lane& l = lane();
  return tag_id(l.index,
                l.wheel.schedule(l.now + delay, l.next_seq++,
                                 std::move(action)));
}

TimerId Simulator::schedule_at(Time at, TimingWheel::Action action) {
  Lane& l = lane();
  ensure(at >= l.now, "cannot schedule into the past");
  return tag_id(l.index, l.wheel.schedule(at, l.next_seq++, std::move(action)));
}

TimerId Simulator::lane_schedule_at(int lane, Time at,
                                    TimingWheel::Action action) {
  Lane& l = *lanes_[static_cast<std::size_t>(lane)];
  ensure(at >= l.now, "lane_schedule_at: cross-shard post into the past "
                      "(lookahead contract violated)");
  return tag_id(l.index, l.wheel.schedule(at, l.next_seq++, std::move(action)));
}

bool Simulator::restart_timer(TimerId id, Time delay) {
  if (delay < Time::zero()) delay = Time::zero();
  // The id's lane, not the active one: a timer always belongs to the
  // lane that armed it (its owner only touches it from that lane's
  // events), and its fresh deadline/sequence must come from there.
  Lane& l = lane_of_id(id);
  return l.wheel.reschedule(untag_id(id), l.now + delay, l.next_seq++);
}

void Simulator::cancel_timer(TimerId id) {
  if (id == kNoTimer) return;
  lane_of_id(id).wheel.cancel(untag_id(id));
}

bool Simulator::timer_pending(TimerId id) const {
  if (id == kNoTimer) return false;
  return lane_of_id(id).wheel.pending(untag_id(id));
}

bool Simulator::run_lane(Lane& l, Time last, bool stoppable) {
  for (;;) {
    if (stoppable && stopped_) return false;
    const auto key = l.wheel.next_key();
    if (!key.has_value()) return false;
    if (key->time > last) return true;
    auto fired = l.wheel.pop();
    ensure(fired.time >= l.now, "timing wheel went backwards");
    l.now = fired.time;
    ++l.events_executed;
    fired.action();
  }
}

void Simulator::run() { run_until(Time::max()); }

void Simulator::run_until(Time deadline) {
  ensure(lanes_.size() == 1,
         "run_until on a sharded simulator; drive it via exp::ShardExecutor");
  Lane& l = *lanes_.front();
  stopped_ = false;
  if (run_lane(l, deadline, /*stoppable=*/true)) l.now = deadline;
}

void Simulator::lane_run_before(int lane, Time bound) {
  Lane& l = *lanes_[static_cast<std::size_t>(lane)];
  Lane* prev = t_active_;
  t_active_ = &l;
  // Strictly-before: events at exactly `bound` belong to the next
  // window, AFTER the barrier drains any cross-shard posts due then.
  // A sharded run ignores stop(): it is single-lane only.
  run_lane(l, bound - Time::nanoseconds(1), /*stoppable=*/false);
  t_active_ = prev;
}

void Simulator::lane_finish(int lane, Time t) {
  Lane& l = *lanes_[static_cast<std::size_t>(lane)];
  if (l.now < t) l.now = t;
}

}  // namespace vegas::sim
