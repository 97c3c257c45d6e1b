// Jain's CARD — Congestion Avoidance using Round-trip Delay (§3.2, [7]).
//
// Every two round-trip delays the window moves based on the sign of
// (W_now − W_old) × (RTT_now − RTT_old): positive → shrink by one-eighth,
// negative or zero → grow by one MSS.  The window oscillates around the
// socially-optimal point by construction.  Reno slow start bootstraps the
// connection; CARD replaces the congestion-avoidance phase.
#include "cc/registry.h"
#include "cc/rtt_probe.h"

namespace vegas::cc {

namespace {

struct CardPriv {
  RttEpoch epoch;
  sim::Time rtt_cur;
  sim::Time prev_rtt;
  ByteCount prev_wnd = 0;
  bool have_rtt = false;
  bool have_prev = false;
};

void card_on_ack(tcp::TcpSender& s, ByteCount newly_acked) {
  if (s.in_recovery() || s.in_slow_start()) {
    s.reno_on_ack(newly_acked);
    return;
  }
  // Linear mode: window moves only at epoch boundaries (see below).
}

void card_on_rtt_sample(tcp::TcpSender& s, tcp::StreamOffset ack,
                        bool duplicate) {
  if (duplicate || ack <= s.snd_una()) return;
  CardPriv& p = s.priv<CardPriv>();
  if (const auto rtt = covered_rtt_sample(s.records(), ack, s.now())) {
    p.rtt_cur = *rtt;
    p.have_rtt = true;
  }
  if (!p.epoch.on_ack(ack, s.snd_nxt()) || p.epoch.count() % 2 != 0 ||
      !p.have_rtt || s.in_slow_start()) {
    return;
  }
  if (p.have_prev) {
    const double dw = static_cast<double>(s.cwnd() - p.prev_wnd);
    const double drtt = (p.rtt_cur - p.prev_rtt).to_seconds();
    if (dw * drtt > 0.0) {
      s.set_cwnd(s.cwnd() - s.cwnd() / 8);
    } else {
      s.set_cwnd(s.cwnd() + s.mss());
    }
  }
  p.prev_wnd = s.cwnd();
  p.prev_rtt = p.rtt_cur;
  p.have_prev = true;
}

const tcp::CongOps kCardOps = {
    .name = "card",
    .label = "CARD",
    .priv_size = sizeof(CardPriv),
    .priv_align = alignof(CardPriv),
    .init = tcp::priv_init<CardPriv>,
    .release = tcp::priv_release<CardPriv>,
    .on_ack = card_on_ack,
    .on_rtt_sample = card_on_rtt_sample,
};

}  // namespace

CC_REGISTER_MODULE(card, kCardOps)

}  // namespace vegas::cc
