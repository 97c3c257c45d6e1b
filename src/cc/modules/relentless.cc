// Relentless TCP (Mathis; analytical model in arXiv:1102.3270) — the
// congestion window is reduced by exactly one MSS per lost segment
// instead of being halved: the decrease matches the loss, nothing more.
//
// The model's equilibrium: in congestion avoidance the window gains one
// segment per RTT while each lost segment costs one, so under a segment
// loss rate p the window settles where W·p = 1, i.e.
//
//     W* ≈ 1/p  segments,
//
// independent of RTT — contrast Reno's W* ≈ sqrt(3/(2p)).  The digest
// test (tests/cc_algos_test.cc) drives a sender with a deterministic
// periodic loss and checks the steady-state window against W* within a
// stated tolerance.
//
// Recovery differs from Reno in both directions: no inflation on
// duplicate ACKs (the pipe math is already exact — each hole repair
// takes its own −1 MSS instead), and no deflation to ssthresh on the
// recovery-exiting ACK (the window was never artificially raised).
// Coarse RTOs keep the full Reno fallback (halving + slow start):
// relentlessness is only safe while feedback still flows.
#include <algorithm>

#include "cc/registry.h"

namespace vegas::cc {

namespace {

using tcp::RetransmitTrigger;

void relentless_decrease(tcp::TcpSender& s) {
  s.set_cwnd(std::max<ByteCount>(2 * s.mss(), s.cwnd() - s.mss()));
  // Track ssthresh just below cwnd so the engine stays in congestion
  // avoidance (cwnd < ssthresh would re-enter slow start).
  s.set_ssthresh(s.cwnd());
}

void relentless_on_dup_ack(tcp::TcpSender& s, int dup_count) {
  if (s.in_recovery()) {
    // Each hole named by a further dup ACK costs exactly one segment.
    if (s.sack_retransmit_next_hole(RetransmitTrigger::kThreeDupAcks)) {
      relentless_decrease(s);
    }
    s.maybe_send();
    return;
  }
  if (dup_count != s.config().dup_ack_threshold) return;
  s.cancel_rtt_timing();  // Karn
  s.retransmit_front(RetransmitTrigger::kThreeDupAcks);
  ++s.stats_.fast_retransmits;
  relentless_decrease(s);
  s.enter_recovery();
  s.sack_recovery_begin();
  s.maybe_send();
}

void relentless_on_ack(tcp::TcpSender& s, ByteCount /*newly_acked*/) {
  if (s.in_recovery()) {
    // Exit without deflation: cwnd already reflects every loss exactly.
    s.exit_recovery();
    return;
  }
  if (s.in_slow_start()) {
    s.set_cwnd(s.cwnd() + s.mss());
    return;
  }
  // Congestion avoidance: ~one segment per RTT (the base Reno rule).
  const ByteCount incr = std::max<ByteCount>(
      s.mss() * s.mss() / std::max<ByteCount>(s.cwnd(), 1), 1);
  s.set_cwnd(s.cwnd() + incr);
}

const tcp::CongOps kRelentlessOps = {
    .name = "relentless",
    .label = "Relentless",
    .on_ack = relentless_on_ack,
    .on_dup_ack = relentless_on_dup_ack,
    // on_loss stays null: coarse RTOs fall back to full Reno halving.
};

}  // namespace

CC_REGISTER_MODULE(relentless, kRelentlessOps)

}  // namespace vegas::cc
