// TCP Tahoe: fast retransmit without fast recovery.
//
// The paper compares against Reno ("newer and better performing than
// Tahoe", §1 fn 1); Tahoe is provided as the second baseline for the
// ablation benches.  On the third duplicate ACK Tahoe retransmits and
// falls all the way back to slow start.
#include "cc/registry.h"

namespace vegas::cc {

namespace {

void tahoe_on_dup_ack(tcp::TcpSender& s, int dup_count) {
  if (dup_count != s.config().dup_ack_threshold) return;
  s.set_ssthresh(s.half_window());
  s.retransmit_front(tcp::RetransmitTrigger::kThreeDupAcks);
  ++s.stats_.fast_retransmits;
  s.set_cwnd(s.config().mss);  // back to slow start — no recovery phase
  s.maybe_send();
}

const tcp::CongOps kTahoeOps = {
    .name = "tahoe",
    .label = "Tahoe",
    .on_dup_ack = tahoe_on_dup_ack,
};

}  // namespace

CC_REGISTER_MODULE(tahoe, kTahoeOps)

}  // namespace vegas::cc
