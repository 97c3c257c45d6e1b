// TCP Vegas — the paper's contribution (§3).
//
// Three techniques layered over the Reno engine:
//
//  1. New retransmission mechanism (§3.1).  Every segment's transmission
//     time is recorded (TcpSender::SegRecord).  On the FIRST duplicate
//     ACK, if the fine-grained RTO (srtt + 4*rttvar over exact clock
//     readings) has expired for the requested segment, retransmit at
//     once — no need for 3 duplicates.  On the first and second fresh
//     ACKs after any retransmission, re-check the (new) front segment the
//     same way, catching back-to-back losses without further dup ACKs.
//     The congestion window is decreased at most once per loss episode:
//     only if the lost transmission was sent AFTER the previous decrease.
//
//  2. Congestion avoidance (CAM, §3.2).  Once per RTT, a distinguished
//     segment measures: Expected = WindowSize/BaseRTT vs Actual =
//     bytes-transmitted/sampleRTT.  Diff = Expected − Actual, expressed
//     in buffers (Diff × BaseRTT / MSS).  Diff < α → +1 segment next RTT;
//     Diff > β → −1 segment; otherwise hold.  BaseRTT is the minimum RTT
//     observed; a negative Diff resets BaseRTT to the latest sample.
//
//  3. Modified slow start (§3.3).  The window doubles only every OTHER
//     RTT; in between it stays fixed so Expected/Actual are comparable.
//     When Diff exceeds γ, Vegas leaves slow start for linear mode.
//
// Reno's coarse-grained timeout machinery remains underneath as the final
// fallback (§6: under heavy congestion "Vegas falls back to Reno's
// coarse-grained timeout mechanism").
//
// Per-ACK state (fine RTT vars, BaseRTT, the CAM sample in flight, the
// packet-pair probe) lives in the Vegas block of the sender's FlowHot
// row — see tcp/flow_hot.h.  The module's own slab carries only the
// estimator logic object and the reported aggregate counters.
#include <algorithm>

#include "cc/diag.h"
#include "cc/registry.h"
#include "tcp/rtt.h"

namespace vegas::cc {

namespace {

using tcp::FlowHot;
using tcp::RetransmitTrigger;
using tcp::StreamOffset;

struct VegasPriv {
  explicit VegasPriv(sim::Time min_fine_rto) : fine_rtt(min_fine_rto) {}

  // Estimator logic; its variables live in hot().fine_rtt.
  tcp::FineRttEstimator fine_rtt;

  // Aggregate counters (reported, never read on the fast path).
  std::uint64_t decrease_count = 0;
  std::uint64_t cam_sample_count = 0;
};

void vegas_init(tcp::TcpSender& s) {
  VegasPriv& p = s.emplace_priv<VegasPriv>(s.config().min_fine_rto);
  p.fine_rtt.rebind(&s.hot().fine_rtt);
}

void vegas_feed_fine_rtt(tcp::TcpSender& s, StreamOffset ack) {
  // Per-segment timestamps (§3.1): find the latest record fully covered
  // by this ACK whose transmission was unambiguous (Karn's rule).
  const tcp::TcpSender::SegRecord* best = nullptr;
  for (const auto& r : s.records()) {
    const StreamOffset rec_end = r.start + r.len + (r.fin ? 1 : 0);
    if (rec_end <= ack) {
      best = &r;
    } else {
      break;
    }
  }
  if (best == nullptr || best->transmissions != 1) return;
  const sim::Time rtt = s.now() - best->sent_at;
  s.priv<VegasPriv>().fine_rtt.sample(rtt);
  FlowHot& h = s.hot();
  if (!h.has_base_rtt || rtt < h.base_rtt) {
    h.base_rtt = rtt;
    h.has_base_rtt = true;
  }
}

void vegas_complete_cam_sample(tcp::TcpSender& s, StreamOffset ack) {
  FlowHot& h = s.hot();
  if (!h.cam_active || ack < h.cam_end) return;
  h.cam_active = false;

  const bool was_slow_start = s.in_slow_start();
  // The CAM completion is the once-per-RTT clock: alternate the
  // grow/freeze phases of the modified slow start (§3.3).
  if (was_slow_start) h.ss_grow_this_rtt = !h.ss_grow_this_rtt;

  if (!h.cam_valid) return;  // growth-RTT sample: no valid comparison

  const sim::Time sample_rtt = s.now() - h.cam_start;
  if (sample_rtt <= sim::Time::zero()) return;
  ++s.priv<VegasPriv>().cam_sample_count;
  if (!h.has_base_rtt) {
    h.base_rtt = sample_rtt;
    h.has_base_rtt = true;
  }

  const ByteCount bytes = s.stats_.bytes_sent - h.cam_bytes_base;
  const double actual = static_cast<double>(bytes) / sample_rtt.to_seconds();
  const double expected =
      static_cast<double>(s.cwnd()) / h.base_rtt.to_seconds();
  double diff = expected - actual;
  if (diff < 0) {
    // Actual > Expected: BaseRTT was stale (§3.2) — adopt the new sample.
    h.base_rtt = sample_rtt;
    diff = 0;
  }
  const double diff_buffers =
      diff * h.base_rtt.to_seconds() / static_cast<double>(s.mss());

  tcp::CamAction action = tcp::CamAction::kHold;
  if (was_slow_start) {
    // §3.3 second proposal (optional): stop doubling once the NEXT
    // doubling would drive the expected rate past the packet-pair
    // bandwidth estimate — feedback-free overshoot prevention.
    const bool bw_exit =
        s.config().vegas_ss_bandwidth_check && h.bw_est_Bps > 0 &&
        2.0 * static_cast<double>(s.cwnd()) / h.base_rtt.to_seconds() >
            h.bw_est_Bps;
    if (diff_buffers > s.config().vegas_gamma || bw_exit) {
      // Leave slow start for linear increase/decrease mode.
      s.set_ssthresh(std::max<ByteCount>(2 * s.mss(), s.cwnd() - s.mss()));
      s.set_cwnd(s.ssthresh());
      action = tcp::CamAction::kDecrease;
      if (s.observer() != nullptr) s.observer()->on_slow_start_exit(s.now());
    }
  } else {
    if (diff_buffers < s.config().vegas_alpha) {
      s.set_cwnd(s.cwnd() + s.mss());
      action = tcp::CamAction::kIncrease;
    } else if (diff_buffers > s.config().vegas_beta) {
      s.set_cwnd(std::max<ByteCount>(2 * s.mss(), s.cwnd() - s.mss()));
      action = tcp::CamAction::kDecrease;
    }
  }
  if (s.observer() != nullptr) {
    s.observer()->on_cam_sample(s.now(), expected, actual, diff_buffers,
                                action);
  }
}

void vegas_on_rtt_sample(tcp::TcpSender& s, StreamOffset ack, bool duplicate) {
  if (!duplicate && ack > s.snd_una()) {
    FlowHot& h = s.hot();
    // Packet-pair probe: consecutive ACKs of a back-to-back pair arrive
    // spaced by the bottleneck service time, so the smallest observed
    // per-MSS gap estimates the path's bottleneck bandwidth.
    if (h.have_last_ack) {
      const sim::Time gap = s.now() - h.last_ack_at;
      const ByteCount acked = ack - s.snd_una();
      // Gaps under 1 ms are indistinguishable from ACK compression at
      // the bandwidths this library simulates; ignore them rather than
      // let one compressed pair blow up the estimate.
      if (gap >= sim::Time::milliseconds(1) && acked == s.mss()) {
        const double est = static_cast<double>(acked) / gap.to_seconds();
        if (est > h.bw_est_Bps) h.bw_est_Bps = est;
      }
    }
    h.last_ack_at = s.now();
    h.have_last_ack = true;

    vegas_feed_fine_rtt(s, ack);  // records still intact here
    vegas_complete_cam_sample(s, ack);
  }
}

/// Retransmits the front segment; applies the once-per-episode window
/// decrease rule.  `lost_sent_at` is when the presumed-lost transmission
/// went out (read before the retransmission overwrites it).
void vegas_retransmit(tcp::TcpSender& s, sim::Time lost_sent_at,
                      RetransmitTrigger trigger) {
  s.retransmit_front(trigger);
  FlowHot& h = s.hot();
  // Decrease only for losses at the CURRENT rate: the lost transmission
  // must postdate the previous decrease (§3.1).
  if (h.ever_decreased && lost_sent_at <= h.last_decrease) return;
  const double factor = trigger == RetransmitTrigger::kThreeDupAcks
                            ? s.config().vegas_dupack_decrease
                            : s.config().vegas_fine_decrease;
  const ByteCount target = static_cast<ByteCount>(
      static_cast<double>(std::min(s.cwnd(), s.snd_wnd())) * factor);
  s.set_ssthresh(target);
  s.set_cwnd(s.ssthresh());
  h.last_decrease = s.now();
  h.ever_decreased = true;
  ++s.priv<VegasPriv>().decrease_count;
  s.enter_recovery();  // inflate on further dup ACKs, deflate on fresh ACK
  s.sack_recovery_begin();
  h.post_rtx_ack_checks = 2;  // §3.1: check the next two fresh ACKs
}

void vegas_on_dup_ack(tcp::TcpSender& s, int dup_count) {
  if (s.in_recovery()) {
    s.set_cwnd(s.cwnd() + s.mss());
    // SACK tandem (§6): each further dup ACK names the next hole.
    s.sack_retransmit_next_hole(RetransmitTrigger::kFineDupAck);
    s.maybe_send();
    return;
  }
  const auto* front = s.front_record();
  if (front == nullptr) return;

  const tcp::FineRttEstimator& fine = s.priv<VegasPriv>().fine_rtt;
  // Fine-grained check on EVERY duplicate ACK: if the segment's fine RTO
  // has already expired, we do not wait for the third duplicate.
  if (fine.has_sample() && s.now() - front->sent_at > fine.rto()) {
    ++s.stats_.fast_retransmits;  // counted as a dup-ACK-triggered repair
    vegas_retransmit(s, front->sent_at, RetransmitTrigger::kFineDupAck);
    return;
  }
  if (dup_count == s.config().dup_ack_threshold) {
    ++s.stats_.fast_retransmits;
    vegas_retransmit(s, front->sent_at, RetransmitTrigger::kThreeDupAcks);
  }
}

void vegas_on_ack(tcp::TcpSender& s, ByteCount /*newly_acked*/) {
  if (s.in_recovery()) {
    // Reno-style deflation on the recovery-ending ACK.
    s.set_cwnd(s.ssthresh());
    s.exit_recovery();
  }

  FlowHot& h = s.hot();
  if (s.in_slow_start()) {
    // Modified slow start (§3.3): exponential growth on alternate RTTs.
    if (h.ss_grow_this_rtt) s.set_cwnd(s.cwnd() + s.mss());
  }
  // Linear mode: no per-ACK growth; the CAM decision (once per RTT)
  // moves the window.

  // §3.1 second bullet: the first/second fresh ACK after a retransmission
  // re-checks the new front segment against the fine RTO.
  if (h.post_rtx_ack_checks > 0) {
    --h.post_rtx_ack_checks;
    const auto* front = s.front_record();
    const tcp::FineRttEstimator& fine = s.priv<VegasPriv>().fine_rtt;
    if (front != nullptr && fine.has_sample() &&
        s.now() - front->sent_at > fine.rto()) {
      vegas_retransmit(s, front->sent_at,
                       RetransmitTrigger::kFineAfterRetransmit);
    }
  }
}

void vegas_on_loss(tcp::TcpSender& s) {
  s.reno_on_loss();
  FlowHot& h = s.hot();
  h.cam_active = false;
  h.post_rtx_ack_checks = 0;
  h.last_decrease = s.now();
  h.ever_decreased = true;
  ++s.priv<VegasPriv>().decrease_count;
}

void vegas_cwnd_event(tcp::TcpSender& s, const tcp::CwndEvent& ev) {
  if (ev.kind == tcp::CwndEvent::Kind::kRowRebound) {
    s.priv<VegasPriv>().fine_rtt.rebind(&s.hot().fine_rtt);
    return;
  }
  FlowHot& h = s.hot();
  // Arm one CAM measurement per RTT: distinguish the first fresh segment
  // sent after the previous sample completed (§3.2: "recording the
  // sending time for a distinguished segment").
  if (!h.cam_active && !ev.retransmit && ev.rec->len > 0) {
    h.cam_active = true;
    h.cam_end = ev.rec->start + ev.rec->len;
    h.cam_start = s.now();
    // "How many bytes are transmitted between the time that segment is
    // sent and its acknowledgement" includes the distinguished segment
    // itself; our caller already counted it, so back it out.
    h.cam_bytes_base = s.stats_.bytes_sent - ev.rec->len;
    // A sample taken while the window is growing exponentially compares
    // incompatible quantities (§3.3: the window must stay fixed "so a
    // valid comparison of the expected and actual rates can be made");
    // such samples still pace the RTT clock but drive no decision.
    h.cam_valid = !s.in_slow_start() || !h.ss_grow_this_rtt;
  }
}

tcp::PacingHint vegas_pacing(const tcp::TcpSender& s) {
  tcp::PacingHint hint;
  // Two segments back-to-back keep packet-pair probing alive under pacing.
  hint.burst = 2;
  // Rate-paced slow start (§3.3 future work, optional): send at
  // cwnd/BaseRTT instead of bursting two segments per ACK, so the
  // bottleneck queue never sees the doubling transient.
  if (!s.config().vegas_paced_slow_start || !s.in_slow_start() ||
      !s.hot().has_base_rtt) {
    return hint;
  }
  hint.interval = s.hot().base_rtt.scaled(static_cast<double>(s.mss()) /
                                          static_cast<double>(s.cwnd()));
  return hint;
}

const tcp::CongOps kVegasOps = {
    .name = "vegas",
    .label = "Vegas",
    .priv_size = sizeof(VegasPriv),
    .priv_align = alignof(VegasPriv),
    .init = vegas_init,
    .release = tcp::priv_release<VegasPriv>,
    .on_ack = vegas_on_ack,
    .on_dup_ack = vegas_on_dup_ack,
    .on_loss = vegas_on_loss,
    .on_rtt_sample = vegas_on_rtt_sample,
    .cwnd_event = vegas_cwnd_event,
    .pacing = vegas_pacing,
};

}  // namespace

CC_REGISTER_MODULE(vegas, kVegasOps)

std::optional<VegasDiag> vegas_diag(const tcp::TcpSender& sender) {
  if (&sender.ops() != &kVegasOps) return std::nullopt;
  const VegasPriv& p = sender.priv<VegasPriv>();
  VegasDiag d;
  d.base_rtt = sender.hot().base_rtt;
  d.has_base_rtt = sender.hot().has_base_rtt;
  d.fine_rto = p.fine_rtt.rto();
  d.cam_samples = p.cam_sample_count;
  d.window_decreases = p.decrease_count;
  d.bandwidth_estimate_Bps = sender.hot().bw_est_Bps;
  return d;
}

}  // namespace vegas::cc
