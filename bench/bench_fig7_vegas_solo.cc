// Reproduces Figures 7 and 8: "TCP Vegas with No Other Traffic"
// (169 KB/s in the paper) and the congestion-avoidance-mechanism
// detail graph — Expected vs Actual rates with the alpha/beta band.
#include "bench/bench_util.h"
#include "cc/registry.h"
#include "exp/world.h"
#include "trace/analyzer.h"
#include "trace/conn_tracer.h"
#include "traffic/bulk.h"

using namespace vegas;

int main() {
  bench::header("Figures 7/8", "TCP Vegas with No Other Traffic + CAM");

  net::DumbbellConfig topo;
  topo.pairs = 1;
  topo.bottleneck_queue = 10;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, 1);

  trace::ConnTracer tracer;
  traffic::BulkTransfer::Config bt;
  bt.bytes = 1_MB;
  bt.port = 5001;
  bt.cc = cc::find("vegas");
  bt.observer = &tracer;
  traffic::BulkTransfer t(world.left(0), world.right(0), bt);
  world.sim().run_until(sim::Time::seconds(300));

  trace::Analyzer az(tracer.buffer());
  std::printf("throughput        : %.1f KB/s   (paper: 169 KB/s)\n",
              t.throughput_kBps());
  std::printf("retransmitted     : %.1f KB    (paper: none visible)\n",
              t.result().sender_stats.bytes_retransmitted / 1024.0);
  std::printf("coarse timeouts   : %llu\n",
              static_cast<unsigned long long>(
                  t.result().sender_stats.coarse_timeouts));
  std::printf("router drops      : %zu\n",
              world.topo().fwd_monitor.drop_count());
  std::printf("CAM samples       : %zu (one per RTT)\n",
              az.summary().cam_samples);

  std::printf("\n%s", trace::ascii_chart(
                          az.series(trace::EventKind::kCwnd),
                          "congestion window (bytes)", nullptr, "", 78, 12)
                          .c_str());

  // Figure 8: the CAM graph — Expected (gray line), Actual (solid line).
  const auto expected = az.series(trace::EventKind::kCamExpected);
  const auto actual = az.series(trace::EventKind::kCamActual);
  std::printf("\nFigure 8 — CAM detail (alpha=2, beta=4 buffers):\n%s",
              trace::ascii_chart(expected, "Expected rate (bytes/s)",
                                 &actual, "Actual rate", 78, 12)
                  .c_str());

  // Diff in buffers over time (the quantity the thresholds act on).
  const auto diff = az.series(trace::EventKind::kCamDiff);
  double max_diff = 0;
  for (const auto& p : diff) max_diff = std::max(max_diff, p.value / 1000.0);
  std::printf("max Diff observed : %.2f buffers (window drifts inside the "
              "[2,4] band)\n",
              max_diff);
  bench::note("\nShape checks: zero losses, zero timeouts, flat window near\n"
              "BDP + alpha..beta buffers, throughput well above Figure 6's.");
  return 0;
}
