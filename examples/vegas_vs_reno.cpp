// Side-by-side reproduction of the paper's Figures 6 and 7: the same
// 1 MB transfer over the same network, once with Reno and once with
// Vegas, rendered as terminal charts from the trace facility.
//
//   ./vegas_vs_reno
#include <cstdio>

#include "cc/registry.h"
#include "exp/world.h"
#include "trace/analyzer.h"
#include "trace/conn_tracer.h"
#include "traffic/bulk.h"

using namespace vegas;

namespace {

struct Run {
  trace::ConnTracer tracer;
  traffic::TransferResult result;
  std::size_t bottleneck_drops = 0;
};

Run run_solo(const char* algo) {
  Run run;
  net::DumbbellConfig topo;
  topo.pairs = 1;
  topo.bottleneck_queue = 10;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, /*seed=*/1);

  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 1_MB;
  cfg.port = 5001;
  cfg.cc = cc::find(algo);
  cfg.observer = &run.tracer;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(300));
  run.result = t.result();
  run.bottleneck_drops = world.topo().fwd_monitor.drop_count();
  return run;
}

void report(const char* title, const Run& run) {
  trace::Analyzer az(run.tracer.buffer());
  std::printf("==== %s: %.1f KB/s, %.1f KB retransmitted, "
              "%llu coarse timeouts, %zu router drops ====\n",
              title, run.result.throughput_Bps() / 1024.0,
              run.result.sender_stats.bytes_retransmitted / 1024.0,
              static_cast<unsigned long long>(
                  run.result.sender_stats.coarse_timeouts),
              run.bottleneck_drops);
  const auto cwnd = az.series(trace::EventKind::kCwnd);
  const auto flight = az.series(trace::EventKind::kInFlight);
  std::printf("%s", trace::ascii_chart(cwnd, "congestion window (bytes)",
                                       &flight, "bytes in transit")
                        .c_str());
  const auto rate = az.sending_rate(12);
  std::printf("%s", trace::ascii_chart(rate, "sending rate (bytes/s, last "
                                             "12 segments)")
                        .c_str());
  const auto losses = az.presumed_loss_times();
  std::printf("presumed-loss instants (Figure 2's vertical lines):");
  if (losses.empty()) std::printf(" none");
  for (const double t : losses) std::printf(" %.2fs", t);
  std::printf("\n\n");
}

}  // namespace

int main() {
  std::printf("Reproduces Figures 6 and 7: 1 MB transfer, no competing "
              "traffic,\n200 KB/s bottleneck with 10 buffers.\n\n");
  const Run reno = run_solo("reno");
  report("TCP Reno (Figure 6)", reno);
  const Run vegas = run_solo("vegas");
  report("TCP Vegas (Figure 7)", vegas);

  // Figure 8: Vegas' congestion-avoidance detail.
  trace::Analyzer az(vegas.tracer.buffer());
  const auto expected = az.series(trace::EventKind::kCamExpected);
  const auto actual = az.series(trace::EventKind::kCamActual);
  std::printf("==== Vegas CAM detail (Figure 8) ====\n");
  std::printf("%s", trace::ascii_chart(expected, "Expected rate (bytes/s)",
                                       &actual, "Actual rate")
                        .c_str());
  std::printf("Vegas/Reno throughput ratio: %.2f (paper: 169/105 = 1.61)\n",
              vegas.result.throughput_Bps() / reno.result.throughput_Bps());
  return 0;
}
