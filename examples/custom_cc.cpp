// Extending the library: a custom congestion-control module in ~30
// lines.  An algorithm is a static CongOps table (tcp/cong_ops.h) whose
// hooks replace Reno's decisions in the one sender engine — the same
// extension point the built-in Vegas/Tahoe/DUAL/CARD/Tri-S modules use.
// Here we build "FixedWindow", a CC-less TCP that always keeps a
// constant window, register it, and race it against Reno on the shared
// bottleneck.
//
//   ./custom_cc [window_segments=8]
#include <cstdio>
#include <cstdlib>

#include "cc/registry.h"
#include "exp/world.h"
#include "traffic/bulk.h"

using namespace vegas;

namespace {

/// TCP with a fixed congestion window of initial_cwnd_segments: no slow
/// start, no reaction to loss beyond retransmission.  (This is what TCP
/// looked like before Jacobson '88 — instructive to race against real
/// congestion control.)
ByteCount fixed_window(const tcp::TcpSender& s) {
  return s.config().initial_cwnd_segments * s.mss();
}

void fixed_on_ack(tcp::TcpSender& s, ByteCount) { s.set_cwnd(fixed_window(s)); }

void fixed_on_dup_ack(tcp::TcpSender& s, int dup_count) {
  if (dup_count == s.config().dup_ack_threshold) {
    s.retransmit_front(tcp::RetransmitTrigger::kThreeDupAcks);
    ++s.stats_.fast_retransmits;
  }
  s.set_cwnd(fixed_window(s));
}

void fixed_on_loss(tcp::TcpSender& s) { s.set_cwnd(fixed_window(s)); }

const tcp::CongOps kFixedWindowOps = {
    .name = "fixed-window",
    .label = "FixedWindow",
    .on_ack = fixed_on_ack,
    .on_dup_ack = fixed_on_dup_ack,
    .on_loss = fixed_on_loss,
};

}  // namespace

namespace vegas::cc {
CC_REGISTER_MODULE(fixed_window, kFixedWindowOps)
}  // namespace vegas::cc

int main(int argc, char** argv) {
  const int segments = argc > 1 ? std::atoi(argv[1]) : 8;

  net::DumbbellConfig topo;
  topo.pairs = 2;
  topo.bottleneck_queue = 10;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, /*seed=*/3);

  traffic::BulkTransfer::Config fixed;
  fixed.bytes = 1_MB;
  fixed.port = 5001;
  fixed.cc = cc::find("fixed-window");  // registered above
  fixed.tcp = tcp::TcpConfig{};
  fixed.tcp->initial_cwnd_segments = segments;
  traffic::BulkTransfer t_fixed(world.left(0), world.right(0), fixed);

  traffic::BulkTransfer::Config reno;
  reno.bytes = 1_MB;
  reno.port = 5002;
  reno.cc = cc::find("reno");
  traffic::BulkTransfer t_reno(world.left(1), world.right(1), reno);

  world.sim().run_until(sim::Time::seconds(600));

  auto print = [](const char* label, const traffic::TransferResult& r) {
    std::printf("%-24s %7.1f KB/s   %6.1f KB retransmitted   %llu timeouts\n",
                label, r.throughput_Bps() / 1024.0,
                r.sender_stats.bytes_retransmitted / 1024.0,
                static_cast<unsigned long long>(
                    r.sender_stats.coarse_timeouts));
  };
  std::printf("1 MB each, shared 200 KB/s bottleneck, queue 10:\n");
  char label[64];
  std::snprintf(label, sizeof(label), "FixedWindow(%d segs)", segments);
  print(label, t_fixed.result());
  print("Reno", t_reno.result());
  return 0;
}
