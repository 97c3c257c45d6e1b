#include "check/invariant_checker.h"

#include <algorithm>

#include "cc/diag.h"
#include "common/ensure.h"

namespace vegas::check {
namespace {

/// Tolerance when comparing the sender's BaseRTT against a sample the
/// checker measured from the same events (both are exact sim times; the
/// epsilon only guards rounding in derived quantities).
constexpr sim::Time kBaseRttEps = sim::Time::microseconds(1);

/// Stored-violation cap; the total count keeps incrementing past it.
constexpr std::size_t kMaxStoredViolations = 64;

}  // namespace

InvariantOptions InvariantOptions::for_config(const tcp::TcpConfig& cfg,
                                              bool vegas_rules) {
  InvariantOptions o;
  o.mss = cfg.mss;
  o.min_cwnd = cfg.mss;
  o.max_cwnd = 2 * cfg.send_buffer;
  o.vegas_rules = vegas_rules;
  return o;
}

InvariantChecker::InvariantChecker(InvariantOptions opt) : opt_(opt) {}

void InvariantChecker::attach_sender(const tcp::TcpSender* sender) {
  if (!cc::vegas_diag(*sender).has_value()) return;  // Vegas module only
  attach_base_rtt_probe([sender]() -> std::optional<sim::Time> {
    const auto diag = cc::vegas_diag(*sender);
    if (!diag.has_value() || !diag->has_base_rtt) return std::nullopt;
    return diag->base_rtt;
  });
}

void InvariantChecker::violation(sim::Time t, const std::string& what) {
  ++violation_count_;
  if (violations_.size() < kMaxStoredViolations) {
    violations_.push_back(Violation{t, what});
  }
  if (opt_.fail_fast) {
    ensure_fail("protocol invariant", what.c_str(),
                std::source_location::current());
  }
}

void InvariantChecker::advance(sim::Time t) {
  if (t > cur_t_) {
    resolve_pending();
    cur_t_ = t;
  }
}

void InvariantChecker::resolve_pending() {
  if (!pending_decrease_) {
    pending_loss_rtx_ = false;
    pending_lost_sent_known_ = false;
    return;
  }
  // A cut for loss always moves ssthresh at the same instant
  // (set_ssthresh then set_cwnd); a recovery deflation or CAM step never
  // does.  Without this distinction the recovery-ending ACK — which both
  // deflates cwnd and can fire a §3.1-suppressed re-retransmission —
  // would masquerade as a second loss cut.
  const bool ssthresh_moved =
      have_ssthresh_change_ && ssthresh_change_t_ == decrease_t_;
  if (pending_loss_rtx_ && ssthresh_moved) {
    // A fine/dup-ACK retransmission shares the decrease's timestamp: this
    // is a loss decrease, legal only if the lost transmission postdates
    // the previous decrease (§3.1's once-per-window-of-data rule).
    if (opt_.vegas_rules && have_loss_decrease_ && pending_lost_sent_known_ &&
        pending_lost_sent_at_ <= last_loss_decrease_t_) {
      violation(decrease_t_,
                "window decreased twice within one window of data: lost "
                "transmission at " +
                    sim::to_string(pending_lost_sent_at_) +
                    " predates the previous decrease at " +
                    sim::to_string(last_loss_decrease_t_) + " (§3.1)");
    }
    have_loss_decrease_ = true;
    last_loss_decrease_t_ = decrease_t_;
  } else if (decrease_floor_ <= opt_.min_cwnd) {
    // Collapse to one segment with no accompanying fast retransmission:
    // the coarse-timeout signature.  It counts as this window's decrease
    // (Vegas' on_loss hook records it the same way).
    have_loss_decrease_ = true;
    last_loss_decrease_t_ = decrease_t_;
  }
  // Remaining unattributed decreases are legal non-loss movements: a CAM
  // −1 segment (§3.2), a slow-start exit (§3.3), or Reno-style recovery
  // deflation back to ssthresh.
  pending_decrease_ = false;
  pending_loss_rtx_ = false;
  pending_lost_sent_known_ = false;
}

void InvariantChecker::on_segment_sent(sim::Time t, tcp::StreamOffset seq,
                                       ByteCount len, bool retransmit) {
  advance(t);
  if (!retransmit) {
    if (seq != high_water_) {
      violation(t, "new data transmitted at offset " + std::to_string(seq) +
                       " but the stream's high-water mark is " +
                       std::to_string(high_water_) +
                       " (non-contiguous send)");
    }
    sends_[seq] = SendRec{t, len, 1};
    high_water_ = std::max(high_water_, seq + len);
  } else {
    auto it = sends_.find(seq);
    if (it != sends_.end()) {
      it->second.sent_at = t;
      it->second.len = len;
      ++it->second.transmissions;
    } else {
      // Segment boundaries can shift across a go-back-N resend; track the
      // new shape but never treat it as an unambiguous RTT source.
      sends_[seq] = SendRec{t, len, 2};
    }
  }
}

void InvariantChecker::take_rtt_sample(sim::Time t, tcp::StreamOffset ack) {
  // Mirror the Vegas module's feed_fine_rtt: the latest segment covered
  // by this ACK, Karn-filtered to single-transmission records.
  auto it = sends_.upper_bound(ack);
  const SendRec* best = nullptr;
  while (it != sends_.begin()) {
    --it;
    if (it->first + it->second.len <= ack) {
      best = &it->second;
      break;
    }
  }
  if (best == nullptr || best->transmissions != 1) return;
  const sim::Time sample = t - best->sent_at;
  if (sample <= sim::Time::zero()) return;
  if (!have_min_rtt_ || sample < min_rtt_) {
    min_rtt_ = sample;
    have_min_rtt_ = true;
  }
  if (base_rtt_probe_) {
    // §3.2: BaseRTT is the minimum of measured round trip times; after
    // the sender ingests this ACK its BaseRTT can be at most our sample.
    const std::optional<sim::Time> base = base_rtt_probe_();
    if (base.has_value() && *base > sample + kBaseRttEps) {
      violation(t, "BaseRTT " + sim::to_string(*base) +
                       " exceeds a fresh RTT sample " +
                       sim::to_string(sample) + " (§3.2)");
    }
  }
}

void InvariantChecker::on_ack_received(sim::Time t, tcp::StreamOffset ack,
                                       ByteCount /*wnd*/, bool duplicate) {
  advance(t);
  if (have_ack_ && ack < last_ack_) {
    violation(t, "cumulative ACK regressed from " + std::to_string(last_ack_) +
                     " to " + std::to_string(ack));
  }
  // The FIN occupies one sequence unit past the last data byte.
  if (ack > high_water_ + 1) {
    violation(t, "ACK " + std::to_string(ack) +
                     " acknowledges data beyond the high-water mark " +
                     std::to_string(high_water_) + " (+1 for FIN)");
  }
  if (!duplicate && (!have_ack_ || ack > last_ack_)) {
    take_rtt_sample(t, ack);
    // Acked records are final; drop them to keep the map window-sized.
    auto it = sends_.begin();
    while (it != sends_.end() && it->first + it->second.len <= ack) {
      it = sends_.erase(it);
    }
  }
  last_ack_ = std::max(last_ack_, ack);
  have_ack_ = true;
}

void InvariantChecker::on_windows(sim::Time t, ByteCount cwnd,
                                  ByteCount ssthresh, ByteCount /*send_wnd*/,
                                  ByteCount /*in_flight*/) {
  advance(t);
  if (have_windows_ && ssthresh != last_ssthresh_) {
    ssthresh_change_t_ = t;
    have_ssthresh_change_ = true;
  }
  if (cwnd < opt_.min_cwnd) {
    violation(t, "cwnd " + std::to_string(cwnd) +
                     " below the one-segment floor " +
                     std::to_string(opt_.min_cwnd));
  }
  if (cwnd > opt_.max_cwnd) {
    violation(t, "cwnd " + std::to_string(cwnd) +
                     " above the send-buffer ceiling " +
                     std::to_string(opt_.max_cwnd));
  }
  if (have_windows_ && cwnd < last_cwnd_) {
    if (!pending_decrease_) {
      pending_decrease_ = true;
      decrease_t_ = t;
      decrease_floor_ = cwnd;
    } else {
      decrease_floor_ = std::min(decrease_floor_, cwnd);
    }
    ss_anchor_valid_ = false;
  } else if (have_windows_ && cwnd > last_cwnd_ && opt_.vegas_rules &&
             cwnd < ssthresh) {
    // §3.3 cadence: doubling only every other RTT means growing 8x takes
    // at least grow + hold + grow + hold + grow — five round trips in the
    // ideal timeline.  A 3.5-RTT floor leaves slack for ACK compression
    // yet still catches every-RTT (Reno-style) doubling, which covers 8x
    // in about three.
    if (!ss_anchor_valid_) {
      ss_anchor_valid_ = true;
      ss_anchor_t_ = t;
      ss_anchor_cwnd_ = last_cwnd_;
    } else if (cwnd >= 8 * ss_anchor_cwnd_ && have_min_rtt_) {
      const sim::Time elapsed = t - ss_anchor_t_;
      const sim::Time floor = min_rtt_.scaled(3.5);
      if (elapsed < floor) {
        violation(t, "slow-start window grew 8x (" +
                         std::to_string(ss_anchor_cwnd_) + " -> " +
                         std::to_string(cwnd) + ") in " +
                         sim::to_string(elapsed) +
                         " < 3.5 round trips — the window may double only "
                         "every other RTT (§3.3)");
      }
      ss_anchor_t_ = t;
      ss_anchor_cwnd_ = cwnd;
    }
  }
  last_cwnd_ = cwnd;
  last_ssthresh_ = ssthresh;
  have_windows_ = true;
}

void InvariantChecker::on_retransmit(sim::Time t, tcp::StreamOffset seq,
                                     ByteCount /*len*/,
                                     tcp::RetransmitTrigger trigger) {
  advance(t);
  if (trigger == tcp::RetransmitTrigger::kCoarseTimeout) return;
  // This event precedes the resend, so the record still holds the
  // presumed-lost transmission's send time — exactly the quantity §3.1's
  // decrease rule is defined over.
  pending_loss_rtx_ = true;
  const auto it = sends_.find(seq);
  pending_lost_sent_known_ = it != sends_.end();
  if (pending_lost_sent_known_) pending_lost_sent_at_ = it->second.sent_at;
}

void InvariantChecker::on_cam_sample(sim::Time t, double /*expected_Bps*/,
                                     double /*actual_Bps*/,
                                     double diff_buffers,
                                     tcp::CamAction /*action*/) {
  advance(t);
  if (diff_buffers < -1e-9) {
    violation(t, "CAM sample reports negative Diff (" +
                     std::to_string(diff_buffers) +
                     " buffers); Expected must bound Actual (§3.2)");
  }
}

void InvariantChecker::on_slow_start_exit(sim::Time t) {
  advance(t);
  ss_anchor_valid_ = false;
}

void InvariantChecker::on_closed(sim::Time t) {
  advance(t);
  finish();
}

void InvariantChecker::finish() { resolve_pending(); }

std::string InvariantChecker::report() const {
  if (violation_count_ == 0) return "";
  std::string out = std::to_string(violation_count_) +
                    " protocol invariant violation(s):\n";
  for (const Violation& v : violations_) {
    out += "  [" + sim::to_string(v.t) + "] " + v.what + "\n";
  }
  if (violation_count_ > violations_.size()) {
    out += "  ... " +
           std::to_string(violation_count_ - violations_.size()) +
           " more suppressed\n";
  }
  return out;
}

}  // namespace vegas::check
