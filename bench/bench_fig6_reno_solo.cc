// Reproduces Figure 6: "TCP Reno with No Other Traffic" — throughput
// 105 KB/s in the paper.  One 1 MB Reno transfer over the Figure-5
// network with a 10-buffer FIFO bottleneck: Reno must CREATE losses to
// find the bandwidth, producing the sawtooth and periodic coarse
// timeouts.
#include "bench/bench_util.h"
#include "exp/world.h"
#include "trace/analyzer.h"
#include "trace/conn_tracer.h"
#include "traffic/bulk.h"

using namespace vegas;

int main() {
  bench::header("Figure 6", "TCP Reno with No Other Traffic");

  net::DumbbellConfig topo;
  topo.pairs = 1;
  topo.bottleneck_queue = 10;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, 1);

  trace::ConnTracer tracer;
  traffic::BulkTransfer::Config bt;
  bt.bytes = 1_MB;
  bt.port = 5001;
  bt.observer = &tracer;
  traffic::BulkTransfer t(world.left(0), world.right(0), bt);
  world.sim().run_until(sim::Time::seconds(300));

  trace::Analyzer az(tracer.buffer());
  std::printf("throughput        : %.1f KB/s   (paper: 105 KB/s)\n",
              t.throughput_kBps());
  std::printf("retransmitted     : %.1f KB\n",
              t.result().sender_stats.bytes_retransmitted / 1024.0);
  std::printf("coarse timeouts   : %llu\n",
              static_cast<unsigned long long>(
                  t.result().sender_stats.coarse_timeouts));
  std::printf("router drops      : %zu (queue limit 10)\n",
              world.topo().fwd_monitor.drop_count());
  std::printf("max queue depth   : %zu\n",
              world.topo().fwd_monitor.max_length());

  std::printf("\n%s", trace::ascii_chart(
                          az.series(trace::EventKind::kCwnd),
                          "congestion window (bytes)",
                          nullptr, "", 78, 14)
                          .c_str());
  std::printf("\n%s", trace::ascii_chart(az.sending_rate(12),
                                         "sending rate (bytes/s)", nullptr,
                                         "", 78, 10)
                          .c_str());
  bench::note("\nShape checks: repeated loss episodes (drops > 0), at least\n"
              "one coarse timeout, and throughput well under the 200 KB/s\n"
              "bottleneck despite zero competition.");
  return 0;
}
