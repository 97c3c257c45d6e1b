#include "sim/timing_wheel.h"

#include <algorithm>
#include <utility>

#include "common/ensure.h"
#include "common/prefetch.h"
#include "obs/registry.h"

namespace vegas::sim {

void TimingWheel::register_metrics(obs::Registry& reg,
                                   const std::string& prefix) const {
  reg.bind_counter(prefix + ".scheduled", metrics_.scheduled);
  reg.bind_counter(prefix + ".fired", metrics_.fired);
  reg.bind_counter(prefix + ".cancelled", metrics_.cancelled);
  reg.bind_counter(prefix + ".rearmed", metrics_.rearmed);
  reg.bind_counter(prefix + ".cascaded", metrics_.cascaded);
  reg.bind_counter(prefix + ".slot_allocs", metrics_.slot_allocs);
  reg.bind_counter(prefix + ".boxed_actions", metrics_.boxed_actions);
  reg.bind_counter(prefix + ".max_live", metrics_.max_live);
}

int TimingWheel::top_changed_level(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t diff = a ^ b;
  return diff == 0 ? 0 : (63 - __builtin_clzll(diff)) / kSlotBits;
}

int TimingWheel::level_for(std::uint64_t tick) const {
  const int k = top_changed_level(tick, cur_tick_);
  return k < kLevels ? k : -1;  // beyond the wheel horizon -> overflow list
}

void TimingWheel::link(std::uint32_t idx) {
  Entry& e = entries_[idx];
  std::uint64_t tick = tick_of(e.time);
  if (tick < cur_tick_) tick = cur_tick_;  // due-now joins the cursor bucket
  const int k = level_for(tick);
  if (k < 0) {
    e.bucket = kOverflow;
    e.prev = kNil;
    e.next = overflow_head_;
    if (overflow_head_ != kNil) entries_[overflow_head_].prev = idx;
    overflow_head_ = idx;
    run_bucket_ = kNil;  // overflow must be compared on every find-min
    return;
  }
  const auto slot =
      static_cast<std::uint32_t>((tick >> (kSlotBits * k)) & (kSlots - 1));
  const std::uint32_t b = static_cast<std::uint32_t>(k) * kSlots + slot;
  e.bucket = static_cast<std::int16_t>(b);
  e.prev = kNil;
  e.next = head_[b];
  if (head_[b] != kNil) entries_[head_[b]].prev = idx;
  head_[b] = idx;
  occupied_[static_cast<std::size_t>(k)] |= 1ull << slot;
  // A level-0 link at or before the run's tick may precede (or tie and
  // reorder against) the snapshot — drop it.  Links at later level-0
  // slots or higher levels are strictly later than every run entry.
  if (run_bucket_ != kNil && b <= run_bucket_) run_bucket_ = kNil;
}

void TimingWheel::unlink(std::uint32_t idx) {
  Entry& e = entries_[idx];
  if (run_bucket_ != kNil && !run_skip_unlink_ &&
      static_cast<std::int32_t>(run_bucket_) == e.bucket) {
    run_bucket_ = kNil;  // a run member vanished behind the snapshot
  }
  if (e.next != kNil) entries_[e.next].prev = e.prev;
  if (e.prev != kNil) {
    entries_[e.prev].next = e.next;
  } else if (e.bucket == kOverflow) {
    overflow_head_ = e.next;
  } else {
    const auto b = static_cast<std::uint32_t>(e.bucket);
    head_[b] = e.next;
    if (e.next == kNil) {
      occupied_[b >> kSlotBits] &= ~(1ull << (b & (kSlots - 1)));
    }
  }
  e.bucket = kFree;
  e.next = kNil;
  e.prev = kNil;
}

void TimingWheel::release(std::uint32_t idx) {
  Entry& e = entries_[idx];
  e.live = false;
  actions_[idx].reset();  // free captured resources now
  if (++e.gen == 0) ++e.gen;  // stale handles can never match again
  free_.push_back(idx);
}

TimerId TimingWheel::schedule(Time at, std::uint64_t seq, Action action) {
  std::uint32_t idx;
  if (free_.empty()) {
    idx = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
    actions_.emplace_back();
    metrics_.slot_allocs.inc();
  } else {
    idx = free_.back();
    free_.pop_back();
  }
  Entry& e = entries_[idx];
  e.time = at;
  e.seq = seq;
  e.live = true;
  if (action.boxed()) metrics_.boxed_actions.inc();
  actions_[idx] = std::move(action);
  link(idx);
  ++live_;
  metrics_.scheduled.inc();
  metrics_.max_live.record_max(live_);
  // A new strict minimum supersedes the cached one; any other insert
  // leaves the cache valid.
  if (min_idx_ != kNil) {
    const Entry& m = entries_[min_idx_];
    if (e.time < m.time || (e.time == m.time && e.seq < m.seq)) min_idx_ = idx;
  }
  return make_id(idx, e.gen);
}

void TimingWheel::cancel(TimerId id) {
  if (id == kNoTimer) return;
  const std::uint32_t idx = slot_of(id);
  if (idx >= entries_.size()) return;
  Entry& e = entries_[idx];
  if (!e.live || e.gen != gen_of(id)) return;
  unlink(idx);
  release(idx);
  --live_;
  metrics_.cancelled.inc();
  if (min_idx_ == idx) min_idx_ = kNil;
}

bool TimingWheel::reschedule(TimerId id, Time at, std::uint64_t seq) {
  const std::uint32_t idx = slot_of(id);
  if (idx >= entries_.size()) return false;
  Entry& e = entries_[idx];
  if (!e.live || e.gen != gen_of(id)) return false;
  unlink(idx);
  e.time = at;
  e.seq = seq;
  link(idx);
  metrics_.rearmed.inc();
  if (min_idx_ == idx) {
    min_idx_ = kNil;  // may no longer be the minimum
  } else if (min_idx_ != kNil) {
    const Entry& m = entries_[min_idx_];
    if (e.time < m.time || (e.time == m.time && e.seq < m.seq)) min_idx_ = idx;
  }
  return true;
}

bool TimingWheel::pending(TimerId id) const {
  const std::uint32_t idx = slot_of(id);
  return idx < entries_.size() && entries_[idx].live &&
         entries_[idx].gen == gen_of(id);
}

void TimingWheel::advance_to(Time t) {
  const std::uint64_t target = tick_of(t);
  if (target <= cur_tick_) return;
  const int top = std::min(top_changed_level(cur_tick_, target), kLevels - 1);
  cur_tick_ = target;
  // Top-down: at each level whose block index changed (every level from
  // 1 up to `top`), the bucket the new cursor lands in holds entries
  // that now belong at lower levels.  Every other bucket between old and
  // new cursor is empty, because the caller guarantees t does not exceed
  // the earliest live deadline.
  for (int k = top; k >= 1; --k) {
    const int shift = kSlotBits * k;
    const auto slot =
        static_cast<std::uint32_t>((target >> shift) & (kSlots - 1));
    const std::uint32_t b = static_cast<std::uint32_t>(k) * kSlots + slot;
    std::uint32_t idx = head_[b];
    if (idx == kNil) continue;
    head_[b] = kNil;
    occupied_[static_cast<std::size_t>(k)] &= ~(1ull << slot);
    while (idx != kNil) {
      const std::uint32_t nxt = entries_[idx].next;
      link(idx);  // re-place against the advanced cursor: lands below k
      metrics_.cascaded.inc();
      idx = nxt;
    }
  }
}

std::uint32_t TimingWheel::scan_min() {
  run_bucket_ = kNil;
  std::uint32_t best = kNil;
  for (int k = 0; k < kLevels; ++k) {
    const std::uint64_t bits = occupied_[static_cast<std::size_t>(k)];
    if (bits == 0) continue;
    // Slots below the cursor's slot at this level are empty (advance_to
    // invariant), so the lowest set bit is the earliest bucket, and the
    // first non-empty level strictly precedes all higher levels.
    const auto slot = static_cast<std::uint32_t>(__builtin_ctzll(bits));
    const std::uint32_t b = static_cast<std::uint32_t>(k) * kSlots + slot;
    if (k == 0 && overflow_head_ == kNil) {
      if (entries_[head_[b]].next == kNil) return head_[b];  // lone entry
      // Level-0 bucket with no overflow competition: snapshot the whole
      // bucket as a sorted run so the next |bucket| pops are O(1) each
      // instead of each rescanning the list.  One level-0 bucket holds
      // exactly one tick, so consuming it cannot be interleaved by
      // entries at other slots or levels.
      run_.clear();
      for (std::uint32_t idx = head_[b]; idx != kNil;
           idx = entries_[idx].next) {
        run_.push_back(idx);
      }
      std::sort(run_.begin(), run_.end(),
                [this](std::uint32_t a, std::uint32_t c) {
                  const Entry& ea = entries_[a];
                  const Entry& ec = entries_[c];
                  return ea.time < ec.time ||
                         (ea.time == ec.time && ea.seq < ec.seq);
                });
      run_pos_ = 0;
      run_bucket_ = b;
      return run_.front();
    }
    for (std::uint32_t idx = head_[b]; idx != kNil; idx = entries_[idx].next) {
      const Entry& e = entries_[idx];
      if (best == kNil) {
        best = idx;
        continue;
      }
      const Entry& m = entries_[best];
      if (e.time < m.time || (e.time == m.time && e.seq < m.seq)) best = idx;
    }
    break;
  }
  // Overflow entries are usually later than everything in the wheel,
  // but the cursor may have advanced since they were parked — always
  // compare.
  for (std::uint32_t idx = overflow_head_; idx != kNil;
       idx = entries_[idx].next) {
    const Entry& e = entries_[idx];
    if (best == kNil) {
      best = idx;
      continue;
    }
    const Entry& m = entries_[best];
    if (e.time < m.time || (e.time == m.time && e.seq < m.seq)) best = idx;
  }
  return best;
}

std::optional<TimingWheel::Key> TimingWheel::next_key() {
  if (live_ == 0) return std::nullopt;
  if (min_idx_ == kNil) min_idx_ = scan_min();
  const Entry& e = entries_[min_idx_];
  return Key{e.time, e.seq};
}

TimingWheel::Fired TimingWheel::pop() {
  ensure(live_ > 0, "pop on empty timing wheel");
  if (min_idx_ == kNil) min_idx_ = scan_min();
  const std::uint32_t idx = min_idx_;
  Entry& e = entries_[idx];
  const bool was_run_head =
      run_bucket_ != kNil && run_pos_ < run_.size() && run_[run_pos_] == idx;
  run_skip_unlink_ = was_run_head;
  unlink(idx);
  run_skip_unlink_ = false;
  // Unlinked first, so cascading up to the fired deadline does not
  // re-place the entry that is leaving; entry indices are stable under
  // cascading, only bucket membership moves.  (When the minimum sat at
  // level 0 no block boundary is crossed, so an active run is never
  // perturbed by this.)
  advance_to(e.time);
  Fired fired{e.time, make_id(idx, e.gen), std::move(actions_[idx])};
  release(idx);
  --live_;
  metrics_.fired.inc();
  if (was_run_head && run_bucket_ != kNil && run_pos_ + 1 < run_.size()) {
    // The next run element is the new wheel-wide minimum: same tick,
    // next (time, seq) in sorted order, nothing earlier anywhere else.
    ++run_pos_;
    min_idx_ = run_[run_pos_];
    // Run-ahead: the caller is about to execute `fired` — warm the next
    // pop's entry and action lines underneath that work, so a same-tick
    // batch (the 10k-flow RTO-storm pattern) pays one miss, not one per
    // timer.  Pure hint: firing order and digests are unchanged.
    prefetch_read_range(&entries_[min_idx_], sizeof(Entry));
    prefetch_read_range(&actions_[min_idx_], sizeof(Action));
  } else {
    run_bucket_ = kNil;
    min_idx_ = kNil;
  }
  return fired;
}

}  // namespace vegas::sim
