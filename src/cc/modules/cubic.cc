// CUBIC (Ha, Rhee & Xu, RFC 8312) — window growth as a cubic function
// of TIME since the last reduction, not of ACK arrivals, so flows with
// long RTTs grow as fast as short ones (RTT fairness on large-BDP
// paths).
//
// After a loss at window W_max the window is cut to β·W_max and then
// follows W(t) = C·(t − K)³ + W_max with K = ∛(W_max·(1−β)/C): concave
// up to the old plateau, brief stability there, then convex probing
// beyond it.  All windows here are in segments; C = 0.4 and β = 0.7 are
// the RFC's values.  Time comes from the simulator clock, so runs stay
// deterministic.
//
// The loss response is the ssthresh-hook contract (tcp/cong_ops.h): Reno's
// dup-ACK/RTO machinery runs verbatim with β·W as the target, and the
// per-ACK growth toward W(t) happens in on_ack via a fractional-segment
// accumulator (no per-ACK floating windows leak into cwnd — cwnd moves
// in whole-MSS steps, like every other module).
#include <algorithm>
#include <cmath>

#include "cc/registry.h"

namespace vegas::cc {

namespace {

constexpr double kCubicC = 0.4;     // aggressiveness (RFC 8312 §5)
constexpr double kCubicBeta = 0.7;  // multiplicative decrease factor

struct CubicPriv {
  double w_max = 0.0;     // window at last reduction (segments)
  double k = 0.0;         // time to regain w_max (seconds)
  sim::Time epoch_start;  // when the current growth epoch began
  bool epoch_active = false;
  double incr_accum = 0.0;  // fractional segments earned toward +1 MSS
};

void cubic_on_ack(tcp::TcpSender& s, ByteCount newly_acked) {
  if (s.in_recovery() || s.in_slow_start()) {
    s.reno_on_ack(newly_acked);  // standard deflation / slow start
    return;
  }
  CubicPriv& p = s.priv<CubicPriv>();
  const double seg = static_cast<double>(s.mss());
  const double cwnd_seg = static_cast<double>(s.cwnd()) / seg;
  if (!p.epoch_active) {
    p.epoch_active = true;
    p.epoch_start = s.now();
    if (p.w_max < cwnd_seg) {
      // No reduction on record below us (e.g. slow-start exit): treat the
      // current window as the plateau and probe convexly from here.
      p.w_max = cwnd_seg;
      p.k = 0.0;
    }
  }
  const double t = (s.now() - p.epoch_start).to_seconds();
  const double offs = t - p.k;
  const double target = kCubicC * offs * offs * offs + p.w_max;
  if (target > cwnd_seg) {
    // Spread the climb over the window's worth of ACKs (RFC 8312 §4.4).
    p.incr_accum += (target - cwnd_seg) / cwnd_seg;
  } else {
    // TCP-friendly floor: never slower than ~1 segment per 100 ACKs.
    p.incr_accum += 0.01;
  }
  while (p.incr_accum >= 1.0) {
    p.incr_accum -= 1.0;
    s.set_cwnd(s.cwnd() + s.mss());
  }
}

ByteCount cubic_ssthresh(tcp::TcpSender& s) {
  CubicPriv& p = s.priv<CubicPriv>();
  const double seg = static_cast<double>(s.mss());
  const double cwnd_seg =
      static_cast<double>(std::min(s.cwnd(), s.snd_wnd())) / seg;
  p.w_max = cwnd_seg;
  p.k = std::cbrt(p.w_max * (1.0 - kCubicBeta) / kCubicC);
  p.epoch_active = false;
  p.incr_accum = 0.0;
  const double target = std::max(2.0, cwnd_seg * kCubicBeta);
  return static_cast<ByteCount>(target * seg);
}

const tcp::CongOps kCubicOps = {
    .name = "cubic",
    .label = "CUBIC",
    .priv_size = sizeof(CubicPriv),
    .priv_align = alignof(CubicPriv),
    .init = tcp::priv_init<CubicPriv>,
    .release = tcp::priv_release<CubicPriv>,
    .on_ack = cubic_on_ack,
    .ssthresh = cubic_ssthresh,
};

}  // namespace

CC_REGISTER_MODULE(cubic, kCubicOps)

}  // namespace vegas::cc
