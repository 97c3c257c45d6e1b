#include "tcp/sender.h"

#include <algorithm>

#include "common/ensure.h"
#include "common/log.h"
#include "tcp/cong_ops.h"

namespace vegas::tcp {
namespace {
constexpr ByteCount kHugeWindow = ByteCount{1} << 30;
constexpr int kPersistIntervalTicks = 4;  // probe every 2 s of zero window
}  // namespace

const CongOps kRenoOps = {
    .name = "reno",
    .label = "Reno",
};

TcpSender::TcpSender(const TcpConfig& cfg, const CongOps& ops)
    : cfg_(cfg),
      ops_(&ops),
      buf_(cfg.send_buffer),
      own_hot_(std::make_unique<FlowHot>()),
      hot_(own_hot_.get()),
      rtt_(cfg.min_rto_ticks, cfg.max_rto_ticks, cfg.initial_rto_ticks) {
  rtt_.rebind(&hot_->coarse_rtt);
  hot_->ssthresh = kHugeWindow;
  hot_->cwnd = cfg_.mss * cfg_.initial_cwnd_segments;
  ensure(ops_->priv_align <= alignof(std::max_align_t),
         "CongOps priv_align exceeds fundamental alignment");
  if (ops_->priv_size > 0) {
    priv_ = std::make_unique<std::byte[]>(ops_->priv_size);
  }
  if (ops_->init != nullptr) ops_->init(*this);
}

TcpSender::~TcpSender() {
  if (ops_->release != nullptr) ops_->release(*this);
}

std::string TcpSender::name() const { return ops_->label; }

void TcpSender::check_priv_fits(std::size_t size, std::size_t align) const {
  ensure(size <= ops_->priv_size && align <= ops_->priv_align,
         "CongOps priv_size/priv_align too small for module state");
}

void TcpSender::bind_flow_row(FlowHot* row) {
  ensure(row != nullptr, "null flow row");
  if (row == hot_) return;
  *row = *hot_;
  hot_ = row;
  rtt_.rebind(&row->coarse_rtt);
  // Modules rebind their own estimators off the old row before it is
  // released (rebind() reads through the estimator's current pointer).
  if (ops_->cwnd_event != nullptr) {
    ops_->cwnd_event(*this, {.kind = CwndEvent::Kind::kRowRebound});
  }
  own_hot_.reset();
}

void TcpSender::attach(Env env) {
  ensure(env.sim != nullptr && env.transmit != nullptr, "incomplete env");
  env_ = std::move(env);
  pace_timer_.emplace(*env_.sim, [this] {
    pace_pending_ = false;
    maybe_send();
  });
}

void TcpSender::open(ByteCount initial_peer_window) {
  ensure(env_.sim != nullptr, "sender not attached");
  open_ = true;
  hot_->snd_wnd = initial_peer_window;
  notify_windows();
  maybe_send();
}

ByteCount TcpSender::app_write(ByteCount bytes) {
  const ByteCount accepted = buf_.write(bytes);
  if (open_) {
    maybe_send();
    // New data under a zero window enters persist: the probe countdown
    // needs the clock (a send would have woken it via arm_rexmt).
    if (hot_->snd_wnd == 0) wake_ticks();
  }
  return accepted;
}

void TcpSender::app_close() {
  fin_pending_ = true;
  if (open_) {
    maybe_send();
    if (hot_->snd_wnd == 0) wake_ticks();
  }
}

bool TcpSender::needs_ticks() const {
  if (env_.observer != nullptr) return true;  // ticks are observable events
  const FlowHot& h = *hot_;
  if (h.rtt_timing || h.rexmt_ticks > 0) return true;
  // Zero-window persist: keep probing while there is something to say.
  return h.snd_wnd == 0 && h.snd_una == h.snd_nxt &&
         (buf_.available_from(h.snd_nxt) > 0 || (fin_pending_ && !fin_sent_));
}

ByteCount TcpSender::in_flight() const { return hot_->snd_nxt - hot_->snd_una; }

ByteCount TcpSender::half_window() const {
  const ByteCount flight_wnd =
      std::min(hot_->cwnd, std::max(hot_->snd_wnd, cfg_.mss));
  const ByteCount half = (flight_wnd / 2 / cfg_.mss) * cfg_.mss;
  return std::max(half, 2 * cfg_.mss);
}

const TcpSender::SegRecord* TcpSender::front_record() const {
  for (const SegRecord& r : records_) {
    if (r.start + r.len + (r.fin ? 1 : 0) > hot_->snd_una) return &r;
  }
  return nullptr;
}

void TcpSender::set_cwnd(ByteCount cwnd) {
  hot_->cwnd = std::clamp<ByteCount>(cwnd, cfg_.mss, kHugeWindow);
  notify_windows();
}

void TcpSender::set_ssthresh(ByteCount ssthresh) {
  hot_->ssthresh = std::max<ByteCount>(ssthresh, 2 * cfg_.mss);
  notify_windows();
}

void TcpSender::notify_windows() {
  if (env_.observer != nullptr) {
    env_.observer->on_windows(now(), hot_->cwnd, hot_->ssthresh,
                              std::min(hot_->snd_wnd, buf_.capacity()),
                              in_flight());
  }
}

void TcpSender::maybe_send() {
  if (!open_) return;
  if (pace_pending_) return;  // pacer owns the next transmission slot
  FlowHot& h = *hot_;
  const ByteCount wnd = std::min(h.cwnd, h.snd_wnd);
  const StreamOffset end = buf_.stream_end();
  int sent_this_call = 0;
  while (true) {
    const ByteCount flight = h.snd_nxt - h.snd_una;
    const ByteCount usable = wnd - flight;
    if (usable <= 0) break;
    const ByteCount avail = h.snd_nxt <= end ? end - h.snd_nxt : 0;
    // Anything below snd_max has been on the wire before (go-back-N
    // resend after a coarse timeout).
    const bool rtx = h.snd_nxt < h.snd_max;
    if (avail > 0) {
      ByteCount len = std::min({cfg_.mss, avail, usable});
      // Sender-side silly-window avoidance: hold back a sub-MSS tail only
      // if more data could still arrive behind it (i.e. it is not the
      // final chunk before a pending close) and the window is the binder.
      if (len < cfg_.mss && len < avail) break;
      const bool fin = fin_pending_ && len == avail;
      transmit_segment(h.snd_nxt, len, fin, rtx);
      h.snd_nxt += len + (fin ? 1 : 0);
      if (fin) fin_sent_ = true;
    } else if (fin_pending_ && !fin_sent_) {
      transmit_segment(h.snd_nxt, 0, /*fin=*/true, rtx);
      h.snd_nxt += 1;
      fin_sent_ = true;
    } else {
      break;
    }
    if (h.snd_nxt > h.snd_max) h.snd_max = h.snd_nxt;

    // Paced mode: a small burst per interval, the rest ride the timer.
    if (ops_->pacing != nullptr) {
      const PacingHint pace = ops_->pacing(*this);
      if (pace.interval > sim::Time::zero() &&
          ++sent_this_call >= pace.burst) {
        pace_pending_ = true;
        pace_timer_->restart(pace.interval);
        break;
      }
    }
  }
}

void TcpSender::transmit_segment(StreamOffset seq, ByteCount len, bool fin,
                                 bool retransmit) {
  env_.transmit(seq, len, fin);
  stats_.bytes_sent += len;
  ++stats_.segments_sent;
  if (retransmit) {
    stats_.bytes_retransmitted += len;
    ++stats_.segments_retransmitted;
  }
  if (env_.observer != nullptr) {
    env_.observer->on_segment_sent(now(), seq, len, retransmit);
  }

  // Maintain the per-segment record (Vegas reads sent_at / transmissions).
  SegRecord* rec = nullptr;
  for (SegRecord& r : records_) {
    if (r.start == seq) {
      rec = &r;
      break;
    }
  }
  if (rec == nullptr) {
    records_.push_back(SegRecord{seq, len, fin, now(), 1});
    rec = &records_.back();
  } else {
    rec->sent_at = now();
    rec->len = len;
    rec->fin = fin;
    ++rec->transmissions;
  }

  // Karn's rule: only time segments whose first transmission this is.
  if (!hot_->rtt_timing && !retransmit) {
    hot_->rtt_timing = true;
    hot_->rtt_elapsed_ticks = 0;
    hot_->rtt_seq = seq + std::max<ByteCount>(len - 1, 0);
  }
  if (hot_->rexmt_ticks == 0) arm_rexmt();
  if (ops_->cwnd_event != nullptr) {
    ops_->cwnd_event(*this, {.kind = CwndEvent::Kind::kSegmentSent,
                             .rec = rec,
                             .retransmit = retransmit});
  }
  notify_windows();
}

void TcpSender::arm_rexmt() {
  const int rto = rtt_.rto_ticks() << hot_->backoff_shift;
  hot_->rexmt_ticks = std::min(rto, cfg_.max_rto_ticks);
  wake_ticks();
}

void TcpSender::on_ack(StreamOffset ack, ByteCount peer_wnd,
                       ByteCount segment_payload,
                       std::span<const SackRange> sacks) {
  if (!open_) return;
  FlowHot& h = *hot_;
  if (ack > h.snd_max) {
    log::warn("ack beyond snd_max ignored");
    return;
  }
  if (cfg_.sack_enabled) {
    for (const SackRange& r : sacks) {
      if (r.end > r.start) merge_sack(r.start, r.end);
    }
  }
  const bool outstanding = h.snd_nxt > h.snd_una;
  const bool duplicate = segment_payload == 0 && ack == h.snd_una &&
                         peer_wnd == h.snd_wnd && outstanding;
  if (ops_->on_rtt_sample != nullptr) {
    ops_->on_rtt_sample(*this, ack, duplicate);
  }

  if (duplicate) {
    ++stats_.dup_acks_received;
    ++h.dup_acks;
    if (env_.observer != nullptr) {
      env_.observer->on_ack_received(now(), ack, peer_wnd, true);
    }
    if (ops_->on_dup_ack != nullptr) {
      ops_->on_dup_ack(*this, h.dup_acks);
    } else {
      reno_on_dup_ack(h.dup_acks);
    }
    return;
  }

  h.snd_wnd = peer_wnd;
  // The window just closed: if data (or a FIN) is waiting, the persist
  // countdown needs the clock back.
  if (peer_wnd == 0) wake_ticks();
  if (env_.observer != nullptr) {
    env_.observer->on_ack_received(now(), ack, peer_wnd, false);
  }
  if (ack > h.snd_una) {
    handle_new_ack(ack);
  } else {
    // Window update or stale ACK: reset the duplicate run (BSD rule).
    h.dup_acks = 0;
    maybe_send();
  }
}

void TcpSender::handle_new_ack(StreamOffset ack) {
  FlowHot& h = *hot_;
  const ByteCount newly = ack - h.snd_una;
  h.dup_acks = 0;

  // Completed RTT measurement (Karn-safe: timing only spans segments
  // never retransmitted; a coarse timeout cancels timing).
  if (h.rtt_timing && ack > h.rtt_seq) {
    h.rtt_timing = false;
    const int ticks = std::max(1, static_cast<int>(h.rtt_elapsed_ticks));
    rtt_.sample(ticks);
    ++stats_.rtt_samples;
  }
  h.backoff_shift = 0;

  const StreamOffset end = buf_.stream_end();
  const ByteCount space_before = buf_.space();
  buf_.ack_to(std::min(ack, end));
  h.snd_una = ack;
  if (h.snd_nxt < h.snd_una) h.snd_nxt = h.snd_una;

  // An ACK covering end+1 can only exist if a transmitted FIN reached the
  // peer — even if a coarse timeout has since cleared fin_sent_ for
  // go-back-N (the ACK was already in flight).
  if (fin_pending_ && !fin_acked_ && ack == end + 1) {
    fin_sent_ = true;
    fin_acked_ = true;
    if (env_.on_fin_acked) env_.on_fin_acked();
  }

  while (!records_.empty()) {
    const SegRecord& r = records_.front();
    if (r.start + r.len + (r.fin ? 1 : 0) <= h.snd_una) {
      records_.pop_front();
    } else {
      break;
    }
  }

  // SACK scoreboard maintenance: everything below snd_una is history.
  while (!sacked_.empty() && sacked_.begin()->second <= h.snd_una) {
    sacked_.erase(sacked_.begin());
  }
  if (!sacked_.empty() && sacked_.begin()->first < h.snd_una) {
    const StreamOffset sacked_end = sacked_.begin()->second;
    sacked_.erase(sacked_.begin());
    sacked_.emplace(h.snd_una, sacked_end);
  }
  if (sack_rtx_point_ < h.snd_una) sack_rtx_point_ = h.snd_una;

  if (h.snd_una == h.snd_nxt) {
    disarm_rexmt();
  } else {
    arm_rexmt();
  }

  if (ops_->on_ack != nullptr) {
    ops_->on_ack(*this, newly);
  } else {
    reno_on_ack(newly);
  }
  maybe_send();
  if (env_.on_send_space && buf_.space() > space_before) env_.on_send_space();
}

void TcpSender::reno_on_ack(ByteCount /*newly_acked*/) {
  FlowHot& h = *hot_;
  if (h.in_recovery) {
    // Reno deflation: recovery ends on the first fresh ACK.
    h.in_recovery = false;
    set_cwnd(h.ssthresh);
    return;
  }
  if (h.cwnd < h.ssthresh) {
    set_cwnd(h.cwnd + cfg_.mss);  // slow start: exponential per RTT
  } else {
    // Congestion avoidance: ~one segment per RTT.
    const ByteCount incr = std::max<ByteCount>(
        cfg_.mss * cfg_.mss / std::max<ByteCount>(h.cwnd, 1), 1);
    set_cwnd(h.cwnd + incr);
  }
}

void TcpSender::reno_on_dup_ack(int dup_count) {
  FlowHot& h = *hot_;
  if (h.in_recovery) {
    // Window inflation: each dup ACK signals a departure from the pipe.
    set_cwnd(h.cwnd + cfg_.mss);
    // With SACK, a duplicate ACK also names the next hole to repair.
    sack_retransmit_next_hole(RetransmitTrigger::kThreeDupAcks);
    maybe_send();
    return;
  }
  if (dup_count == cfg_.dup_ack_threshold) {
    set_ssthresh(loss_target());
    h.rtt_timing = false;  // Karn: the timed segment is being retransmitted
    retransmit_front(RetransmitTrigger::kThreeDupAcks);
    ++stats_.fast_retransmits;
    set_cwnd(h.ssthresh + ByteCount{cfg_.dup_ack_threshold} * cfg_.mss);
    h.in_recovery = true;
    sack_rtx_point_ = h.snd_una + cfg_.mss;  // front already repaired
    maybe_send();
  }
}

void TcpSender::retransmit_front(RetransmitTrigger trigger) {
  retransmit_at(hot_->snd_una, trigger);
}

ByteCount TcpSender::retransmit_at(StreamOffset start,
                                   RetransmitTrigger trigger) {
  FlowHot& h = *hot_;
  const StreamOffset end = buf_.stream_end();
  if (start < h.snd_una) start = h.snd_una;
  if (start >= h.snd_max || h.snd_una >= end + 1) return 0;
  ByteCount len = 0;
  bool fin = false;
  if (start < end) {
    len = std::min({cfg_.mss, end - start, h.snd_max - start});
    fin = fin_sent_ && (start + len == end);
  } else {
    // Only the FIN is outstanding.
    if (!fin_sent_) return 0;
    fin = true;
  }
  if (cfg_.sack_enabled && len > 0 && sack_covered(start, len)) {
    // The peer already holds these bytes: the retransmission would be
    // pure waste (the "unnecessarily retransmitted" data §6 counts).
    ++stats_.retransmits_avoided;
    return 0;
  }
  if (trigger == RetransmitTrigger::kFineDupAck ||
      trigger == RetransmitTrigger::kFineAfterRetransmit) {
    ++stats_.fine_retransmits;
  }
  if (env_.observer != nullptr) {
    env_.observer->on_retransmit(now(), start, len, trigger);
  }
  transmit_segment(start, len, fin, /*retransmit=*/true);
  arm_rexmt();
  return len;
}

void TcpSender::merge_sack(StreamOffset start, StreamOffset end) {
  if (end <= hot_->snd_una) return;
  if (start < hot_->snd_una) start = hot_->snd_una;
  auto it = sacked_.lower_bound(start);
  if (it != sacked_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) {
      start = prev->first;
      end = std::max(end, prev->second);
      it = sacked_.erase(prev);
    }
  }
  while (it != sacked_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = sacked_.erase(it);
  }
  sacked_.emplace(start, end);
}

bool TcpSender::sack_covered(StreamOffset start, ByteCount len) const {
  const auto it = sacked_.upper_bound(start);
  if (it == sacked_.begin()) return false;
  const auto& [s, e] = *std::prev(it);
  return s <= start && start + len <= e;
}

StreamOffset TcpSender::sack_next_hole(StreamOffset from) const {
  StreamOffset at = std::max(from, hot_->snd_una);
  for (const auto& [s, e] : sacked_) {
    if (at < s) break;   // `at` sits in the hole before this block
    if (at < e) at = e;  // inside a sacked block: jump past it
  }
  return std::min(at, hot_->snd_max);
}

bool TcpSender::sack_retransmit_next_hole(RetransmitTrigger trigger) {
  if (!cfg_.sack_enabled || sacked_.empty()) return false;
  const StreamOffset hole = sack_next_hole(sack_rtx_point_);
  // Only repair holes BELOW the highest sacked byte — data above it has
  // no evidence of loss yet.
  const StreamOffset high = sacked_.rbegin()->second;
  if (hole >= high || hole >= hot_->snd_max) return false;
  const ByteCount sent = retransmit_at(hole, trigger);
  sack_rtx_point_ = hole + std::max<ByteCount>(sent, cfg_.mss);
  if (sent > 0) ++stats_.sack_retransmits;
  return sent > 0;
}

void TcpSender::on_tick() {
  if (!open_) return;
  if (env_.observer != nullptr) env_.observer->on_coarse_tick(now());
  FlowHot& h = *hot_;
  if (h.rtt_timing) ++h.rtt_elapsed_ticks;

  if (h.rexmt_ticks > 0 && --h.rexmt_ticks == 0) {
    coarse_timeout();
    return;
  }

  // Simplified BSD persist: while the peer advertises a zero window and
  // we have something to say, probe periodically so the window update
  // that reopens it cannot be lost forever.  (Window check first: the
  // common non-persist tick must not touch the buffer's cache line.)
  if (h.snd_wnd == 0 && h.snd_una == h.snd_nxt &&
      (buf_.available_from(h.snd_nxt) > 0 || (fin_pending_ && !fin_sent_))) {
    if (++h.persist_ticks >= kPersistIntervalTicks) {
      h.persist_ticks = 0;
      send_window_probe();
    }
  } else {
    h.persist_ticks = 0;
  }
}

void TcpSender::send_window_probe() {
  FlowHot& h = *hot_;
  const StreamOffset end = buf_.stream_end();
  if (h.snd_nxt < end) {
    const bool rtx = h.snd_nxt < h.snd_max;
    const bool fin = fin_pending_ && h.snd_nxt + 1 == end;
    transmit_segment(h.snd_nxt, 1, fin, rtx);
    h.snd_nxt += 1 + (fin ? 1 : 0);
    if (fin) fin_sent_ = true;
    if (h.snd_nxt > h.snd_max) h.snd_max = h.snd_nxt;
  } else if (fin_pending_ && !fin_sent_) {
    transmit_segment(h.snd_nxt, 0, /*fin=*/true, h.snd_nxt < h.snd_max);
    h.snd_nxt += 1;
    fin_sent_ = true;
    if (h.snd_nxt > h.snd_max) h.snd_max = h.snd_nxt;
  }
}

void TcpSender::coarse_timeout() {
  FlowHot& h = *hot_;
  ++stats_.coarse_timeouts;
  ++h.backoff_shift;
  if (h.backoff_shift > cfg_.max_rxt_backoffs) {
    if (env_.on_abort) env_.on_abort();
    return;
  }
  h.rtt_timing = false;  // Karn
  h.dup_acks = 0;
  h.in_recovery = false;
  sacked_.clear();  // RFC 2018: don't trust the scoreboard across an RTO

  if (ops_->on_loss != nullptr) {
    ops_->on_loss(*this);
  } else {
    reno_on_loss();
  }

  // Go-back-N: everything past snd_una is presumed lost.
  h.snd_nxt = h.snd_una;
  if (!fin_acked_) fin_sent_ = false;
  records_.clear();
  arm_rexmt();
  maybe_send();
}

void TcpSender::reno_on_loss() {
  set_ssthresh(loss_target());
  set_cwnd(cfg_.mss);
}

ByteCount TcpSender::loss_target() {
  return ops_->ssthresh != nullptr ? ops_->ssthresh(*this) : half_window();
}

}  // namespace vegas::tcp
