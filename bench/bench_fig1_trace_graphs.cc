// Reproduces the trace-graph elements of Figures 1, 2 and 3: a Reno
// connection (with tcplib background so losses occur) is traced, and
// every element of the paper's graphs is extracted and summarised —
// send hash marks, ACK marks, coarse-timer diamonds, timeout circles,
// presumed-loss lines, the four window curves, and the 12-segment
// average sending rate.
#include <memory>

#include "bench/bench_util.h"
#include "exp/world.h"
#include "trace/analyzer.h"
#include "trace/conn_tracer.h"
#include "traffic/bulk.h"
#include "traffic/source.h"

using namespace vegas;

int main() {
  bench::header("Figures 1/2/3", "TCP trace graph elements (Reno + load)");

  net::DumbbellConfig topo;
  topo.bottleneck_queue = 10;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, 21);

  traffic::TrafficConfig tc;
  tc.seed = 21;
  traffic::TrafficSource source(world.left(0), world.right(0), tc);
  source.start();

  trace::ConnTracer tracer;
  traffic::BulkTransfer::Config bt;
  bt.bytes = 1_MB;
  bt.port = 5001;
  bt.observer = &tracer;
  bt.start_delay = sim::Time::seconds(3);
  traffic::BulkTransfer t(world.left(1), world.right(1), bt);
  world.sim().run_until(sim::Time::seconds(400));

  trace::Analyzer az(tracer.buffer());
  const auto summary = az.summary();
  std::printf("transfer: %s, %.1f KB/s over %.1f s\n",
              t.done() ? "completed" : "incomplete",
              t.throughput_kBps(), summary.duration_s);
  std::printf("graph elements extracted from the %zu-event trace:\n",
              tracer.buffer().size());
  std::printf("  1. ACK hash marks (x-axis)       : %zu\n",
              az.marks(trace::EventKind::kAckRcvd).size());
  std::printf("  2. segment-sent hash marks (top) : %zu\n",
              az.marks(trace::EventKind::kSegSent).size());
  std::printf("  4. coarse-timer diamonds         : %zu\n",
              az.marks(trace::EventKind::kCoarseTick).size());
  std::printf("  5. coarse-timeout circles        : %zu\n",
              summary.coarse_timeouts);
  std::printf("  6. presumed-loss vertical lines  : %zu\n",
              az.presumed_loss_times().size());
  std::printf("Figure 3's window curves (points per series):\n");
  std::printf("  threshold window (ssthresh)      : %zu\n",
              az.series(trace::EventKind::kSsthresh).size());
  std::printf("  send window                      : %zu\n",
              az.series(trace::EventKind::kSendWnd).size());
  std::printf("  congestion window                : %zu\n",
              az.series(trace::EventKind::kCwnd).size());
  std::printf("  bytes in transit                 : %zu\n",
              az.series(trace::EventKind::kInFlight).size());

  std::printf("\nWindow graph (Figure 1 top / Figure 3):\n%s",
              trace::ascii_chart(az.series(trace::EventKind::kCwnd),
                                 "congestion window (bytes)",
                                 nullptr, "", 78, 14)
                  .c_str());
  std::printf("\nSending-rate graph (Figure 1 bottom, last-12-segment "
              "average):\n%s",
              trace::ascii_chart(az.sending_rate(12), "bytes/s", nullptr, "",
                                 78, 10)
                  .c_str());
  return 0;
}
