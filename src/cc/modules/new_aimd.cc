// New-AIMD (after the delay/utilization study in arXiv:1001.2848) — a
// gentler multiplicative decrease for AIMD congestion control.
//
// The study's observation: the classic (1, 1/2) AIMD pair forces deep
// window oscillation, so a bottleneck needs a full bandwidth-delay
// product of buffering to stay busy across each halving; a larger
// decrease factor keeps utilization high with far less queueing delay,
// at the cost of slower convergence between competing flows.  Our
// interpretation implements the decrease half of that trade: standard
// additive increase (one segment per RTT), multiplicative decrease by
// 1/6 — i.e. ssthresh = (5/6)·W on loss — leaving the AI side untouched
// so head-to-head cells against Reno isolate the MD factor.
//
// Pure ssthresh-hook module: Reno's dup-ACK and RTO machinery run
// verbatim with the 5/6 target substituted (see tcp/cong_ops.h).
#include <algorithm>

#include "cc/registry.h"

namespace vegas::cc {

namespace {

ByteCount new_aimd_ssthresh(tcp::TcpSender& s) {
  const ByteCount wnd = std::min(s.cwnd(), s.snd_wnd());
  return std::max<ByteCount>(2 * s.mss(), wnd - wnd / 6);
}

const tcp::CongOps kNewAimdOps = {
    .name = "new-aimd",
    .label = "New-AIMD",
    .alt = "newaimd",
    .ssthresh = new_aimd_ssthresh,
};

}  // namespace

CC_REGISTER_MODULE(new_aimd, kNewAimdOps)

}  // namespace vegas::cc
