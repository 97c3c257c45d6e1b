// TCP NewReno (RFC 2582) — the fix the IETF later standardised for the
// exact Reno weakness the paper leans on: "two or more dropped segments
// in a RTT" usually forced Reno into a coarse timeout (§3.1).  NewReno
// stays in fast recovery across PARTIAL acknowledgements, retransmitting
// one hole per partial ACK, and only exits once the `recover` point (the
// highest sequence outstanding when loss was detected) is acknowledged.
//
// Included as a baseline so the benches can place Vegas against both its
// contemporary (Reno) and its successor-generation loss-based rival.
#include <algorithm>

#include "cc/diag.h"
#include "cc/registry.h"

namespace vegas::cc {

namespace {

struct NewRenoPriv {
  tcp::StreamOffset recover = 0;
  bool ever_recovered = false;
  std::uint64_t partial_rtx = 0;
};

void newreno_on_dup_ack(tcp::TcpSender& s, int dup_count) {
  if (s.in_recovery()) {
    s.set_cwnd(s.cwnd() + s.mss());
    s.sack_retransmit_next_hole(tcp::RetransmitTrigger::kThreeDupAcks);
    s.maybe_send();
    return;
  }
  if (dup_count != s.config().dup_ack_threshold) return;
  NewRenoPriv& p = s.priv<NewRenoPriv>();
  // RFC 2582 §3, "avoiding multiple fast retransmits": duplicate ACKs
  // for data below the previous recover point are echoes of our own
  // go-back-N retransmissions, not evidence of a new loss.
  if (p.ever_recovered && s.snd_una() <= p.recover) return;
  s.set_ssthresh(s.half_window());
  s.cancel_rtt_timing();  // Karn
  p.recover = s.snd_max();
  p.ever_recovered = true;
  s.retransmit_front(tcp::RetransmitTrigger::kThreeDupAcks);
  ++s.stats_.fast_retransmits;
  s.set_cwnd(s.ssthresh() + ByteCount{s.config().dup_ack_threshold} * s.mss());
  s.enter_recovery();
  s.sack_recovery_begin();
  s.maybe_send();
}

void newreno_on_ack(tcp::TcpSender& s, ByteCount newly_acked) {
  if (s.in_recovery()) {
    NewRenoPriv& p = s.priv<NewRenoPriv>();
    if (s.snd_una() < p.recover) {
      // Partial ACK: the next hole is lost too — retransmit it at once
      // and deflate by the amount acknowledged (RFC 2582 §3 step 5).
      s.retransmit_front(tcp::RetransmitTrigger::kThreeDupAcks);
      ++p.partial_rtx;
      s.set_cwnd(std::max<ByteCount>(2 * s.mss(),
                                     s.cwnd() - newly_acked + s.mss()));
      return;  // stay in recovery
    }
    s.set_cwnd(s.ssthresh());
    s.exit_recovery();
    return;  // the exiting ACK does not also grow the window
  }
  s.reno_on_ack(newly_acked);
}

const tcp::CongOps kNewRenoOps = {
    .name = "newreno",
    .label = "NewReno",
    .priv_size = sizeof(NewRenoPriv),
    .priv_align = alignof(NewRenoPriv),
    .init = tcp::priv_init<NewRenoPriv>,
    .release = tcp::priv_release<NewRenoPriv>,
    .on_ack = newreno_on_ack,
    .on_dup_ack = newreno_on_dup_ack,
};

}  // namespace

CC_REGISTER_MODULE(newreno, kNewRenoOps)

std::optional<std::uint64_t> newreno_partial_retransmits(
    const tcp::TcpSender& sender) {
  if (&sender.ops() != &kNewRenoOps) return std::nullopt;
  return sender.priv<NewRenoPriv>().partial_rtx;
}

}  // namespace vegas::cc
