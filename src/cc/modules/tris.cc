// Wang & Crowcroft's Tri-S — Slow Start and Search (§3.2, [10]).
//
// Every RTT the window grows by one segment and the achieved throughput
// is compared against the previous round; if the gain is less than half
// the throughput a single in-transit segment achieved at connection
// start, the window shrinks by one segment instead.  Throughput is
// computed as bytes-outstanding / RTT, per the paper's description.
// Reno slow start bootstraps; Tri-S replaces congestion avoidance.
#include <algorithm>

#include "cc/registry.h"
#include "cc/rtt_probe.h"

namespace vegas::cc {

namespace {

struct TrisPriv {
  RttEpoch epoch;
  sim::Time rtt_cur;
  sim::Time base_rtt;
  double prev_throughput = 0.0;
  bool have_base = false;
  bool have_prev = false;
};

void tris_on_ack(tcp::TcpSender& s, ByteCount newly_acked) {
  if (s.in_recovery() || s.in_slow_start()) {
    s.reno_on_ack(newly_acked);
    return;
  }
}

void tris_on_rtt_sample(tcp::TcpSender& s, tcp::StreamOffset ack,
                        bool duplicate) {
  if (duplicate || ack <= s.snd_una()) return;
  TrisPriv& p = s.priv<TrisPriv>();
  if (const auto rtt = covered_rtt_sample(s.records(), ack, s.now())) {
    p.rtt_cur = *rtt;
    if (!p.have_base || *rtt < p.base_rtt) p.base_rtt = *rtt;
    p.have_base = true;
  }
  if (!p.epoch.on_ack(ack, s.snd_nxt()) || !p.have_base ||
      s.in_slow_start()) {
    return;
  }
  const double throughput = static_cast<double>(s.in_flight()) /
                            std::max(p.rtt_cur.to_seconds(), 1e-9);
  const double single_segment =
      static_cast<double>(s.mss()) / p.base_rtt.to_seconds();
  if (p.have_prev && throughput - p.prev_throughput < 0.5 * single_segment &&
      s.cwnd() > 2 * s.mss()) {
    s.set_cwnd(s.cwnd() - s.mss());
  } else {
    s.set_cwnd(s.cwnd() + s.mss());
  }
  p.prev_throughput = throughput;
  p.have_prev = true;
}

const tcp::CongOps kTrisOps = {
    .name = "tris",
    .label = "Tri-S",
    .alt = "tri-s",
    .priv_size = sizeof(TrisPriv),
    .priv_align = alignof(TrisPriv),
    .init = tcp::priv_init<TrisPriv>,
    .release = tcp::priv_release<TrisPriv>,
    .on_ack = tris_on_ack,
    .on_rtt_sample = tris_on_rtt_sample,
};

}  // namespace

CC_REGISTER_MODULE(tris, kTrisOps)

}  // namespace vegas::cc
