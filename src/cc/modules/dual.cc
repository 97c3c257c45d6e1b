// Wang & Crowcroft's DUAL algorithm (§3.2, [11]).
//
// "The congestion window normally increases as in Reno, but every two
// round-trip delays the algorithm checks to see if the current RTT is
// greater than the average of the minimum and maximum RTTs seen so far.
// If it is, then the algorithm decreases the congestion window by
// one-eighth."  Implemented as a comparator for the ablation benches.
#include "cc/registry.h"
#include "cc/rtt_probe.h"

namespace vegas::cc {

namespace {

struct DualPriv {
  RttEpoch epoch;
  sim::Time rtt_cur;
  sim::Time rtt_min;
  sim::Time rtt_max;
  bool seen_any = false;
};

void dual_on_rtt_sample(tcp::TcpSender& s, tcp::StreamOffset ack,
                        bool duplicate) {
  if (duplicate || ack <= s.snd_una()) return;
  DualPriv& p = s.priv<DualPriv>();
  if (const auto rtt = covered_rtt_sample(s.records(), ack, s.now())) {
    p.rtt_cur = *rtt;
    if (!p.seen_any || *rtt < p.rtt_min) p.rtt_min = *rtt;
    if (!p.seen_any || *rtt > p.rtt_max) p.rtt_max = *rtt;
    p.seen_any = true;
  }
  if (p.epoch.on_ack(ack, s.snd_nxt()) && p.epoch.count() % 2 == 0 &&
      p.seen_any) {
    const sim::Time threshold = (p.rtt_min + p.rtt_max) / 2;
    if (p.rtt_cur > threshold) {
      s.set_cwnd(s.cwnd() - s.cwnd() / 8);
    }
  }
}

const tcp::CongOps kDualOps = {
    .name = "dual",
    .label = "DUAL",
    .priv_size = sizeof(DualPriv),
    .priv_align = alignof(DualPriv),
    .init = tcp::priv_init<DualPriv>,
    .release = tcp::priv_release<DualPriv>,
    .on_rtt_sample = dual_on_rtt_sample,
};

}  // namespace

CC_REGISTER_MODULE(dual, kDualOps)

}  // namespace vegas::cc
