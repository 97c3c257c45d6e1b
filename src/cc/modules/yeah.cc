// YeAH-TCP (Baiocchi, Castellani & Vacirca, PFLDnet 2007) — "Yet
// Another Highspeed TCP", the Vegas-hybrid of the zoo: it estimates the
// flow's own backlog in the bottleneck queue from RTT inflation exactly
// like Vegas (§3.2's Diff, here Q = cwnd · (RTT − BaseRTT)/RTT) and
// switches between two personalities on that estimate:
//
//   Fast mode  (Q < Q_max buffers): the path is uncongested — probe one
//     extra segment per RTT on top of Reno's linear growth.
//   Slow mode  (Q ≥ Q_max): self-induced queueing — behave like Reno and
//     precautionarily drain half the measured backlog, avoiding the loss
//     Reno would need to learn the same thing.
//
// On an actual loss the decrease is also delay-informed (the kernel
// module's rule): cut by max(backlog, cwnd/8) instead of a blind half —
// if the backlog estimate says the loss was not self-induced (wireless,
// cross traffic), the window gives up only 1/8.
//
// This implementation is simplified against the PFLDnet paper (no STCP
// increment table, no reordering heuristics) but keeps the
// delay-driven mode switch, precautionary decongestion and informed
// loss response that make YeAH a Vegas descendant.
#include <algorithm>

#include "cc/registry.h"
#include "cc/rtt_probe.h"

namespace vegas::cc {

namespace {

constexpr double kQMax = 8.0;  // backlog ceiling before slow mode (segments)

struct YeahPriv {
  RttEpoch epoch;
  sim::Time base_rtt;
  sim::Time epoch_min_rtt;
  bool have_base = false;
  bool have_epoch_rtt = false;
  double queue_seg = 0.0;  // last backlog estimate, read by the loss hook
};

void yeah_on_rtt_sample(tcp::TcpSender& s, tcp::StreamOffset ack,
                        bool duplicate) {
  if (duplicate || ack <= s.snd_una()) return;
  YeahPriv& p = s.priv<YeahPriv>();
  if (const auto rtt = covered_rtt_sample(s.records(), ack, s.now())) {
    if (!p.have_epoch_rtt || *rtt < p.epoch_min_rtt) p.epoch_min_rtt = *rtt;
    p.have_epoch_rtt = true;
    if (!p.have_base || *rtt < p.base_rtt) {
      p.base_rtt = *rtt;
      p.have_base = true;
    }
  }
  if (!p.epoch.on_ack(ack, s.snd_nxt()) || !p.have_epoch_rtt) return;

  // Once per RTT: estimate our backlog from the least-delayed sample of
  // the epoch (least ACK-compression noise), then pick a personality.
  const double rtt_s = p.epoch_min_rtt.to_seconds();
  const double base_s = p.base_rtt.to_seconds();
  const double cwnd_seg =
      static_cast<double>(s.cwnd()) / static_cast<double>(s.mss());
  p.queue_seg = rtt_s > 0 ? cwnd_seg * (rtt_s - base_s) / rtt_s : 0.0;
  p.have_epoch_rtt = false;  // next epoch gathers a fresh minimum

  if (s.in_slow_start() || s.in_recovery()) return;
  if (p.queue_seg < kQMax) {
    // Fast mode: the queue is ours to claim — one extra MSS this RTT
    // (Reno's own +1/RTT continues via on_ack below).
    s.set_cwnd(s.cwnd() + s.mss());
  } else {
    // Slow mode: precautionary decongestion — drain half the backlog now
    // rather than waiting for the queue to overflow.
    const ByteCount drain =
        static_cast<ByteCount>(p.queue_seg / 2.0) * s.mss();
    s.set_cwnd(std::max<ByteCount>(2 * s.mss(), s.cwnd() - drain));
  }
}

ByteCount yeah_ssthresh(tcp::TcpSender& s) {
  const YeahPriv& p = s.priv<YeahPriv>();
  const ByteCount wnd = std::min(s.cwnd(), s.snd_wnd());
  // Delay-informed decrease: give up the measured backlog, but at least
  // 1/8 of the window (the kernel yeah rule).
  const ByteCount backlog =
      static_cast<ByteCount>(p.queue_seg) * s.mss();
  const ByteCount cut = std::max(backlog, wnd / 8);
  return std::max<ByteCount>(2 * s.mss(), wnd - cut);
}

const tcp::CongOps kYeahOps = {
    .name = "yeah",
    .label = "YeAH",
    .priv_size = sizeof(YeahPriv),
    .priv_align = alignof(YeahPriv),
    .init = tcp::priv_init<YeahPriv>,
    .release = tcp::priv_release<YeahPriv>,
    .on_rtt_sample = yeah_on_rtt_sample,
    .ssthresh = yeah_ssthresh,
};

}  // namespace

CC_REGISTER_MODULE(yeah, kYeahOps)

}  // namespace vegas::cc
