// Reproduces Figure 9: "TCP Vegas with tcplib-Generated Background
// Traffic" — the traced Vegas transfer sharing the bottleneck with the
// TRAFFIC protocol, including the bottom graph (TRAFFIC output rate in
// 100 ms bins with a size-3 running average).
#include "bench/bench_util.h"
#include "cc/registry.h"
#include "exp/world.h"
#include "net/monitor.h"
#include "trace/analyzer.h"
#include "trace/conn_tracer.h"
#include "traffic/bulk.h"
#include "traffic/source.h"

using namespace vegas;

int main() {
  bench::header("Figure 9", "TCP Vegas with tcplib Background Traffic");

  net::DumbbellConfig topo;
  topo.bottleneck_queue = 10;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, 9);

  // TRAFFIC output meter: payload delivered to Host1b, 100 ms bins
  // (the thin line of the paper's bottom graph).
  net::RateMeter traffic_meter(sim::Time::milliseconds(100));
  world.topo().right_access[0].reverse->set_rate_meter(&traffic_meter);

  traffic::TrafficConfig tc;
  tc.seed = 9;
  traffic::TrafficSource source(world.left(0), world.right(0), tc);
  source.start();

  trace::ConnTracer tracer;
  traffic::BulkTransfer::Config bt;
  bt.bytes = 1_MB;
  bt.port = 5001;
  bt.cc = cc::find("vegas");
  bt.observer = &tracer;
  bt.start_delay = sim::Time::seconds(3);
  traffic::BulkTransfer t(world.left(1), world.right(1), bt);
  world.sim().run_until(sim::Time::seconds(400));

  trace::Analyzer az(tracer.buffer());
  std::printf("Vegas transfer    : %.1f KB/s, %.1f KB retransmitted, "
              "%llu coarse timeouts\n",
              t.throughput_kBps(),
              t.result().sender_stats.bytes_retransmitted / 1024.0,
              static_cast<unsigned long long>(
                  t.result().sender_stats.coarse_timeouts));
  std::printf("TRAFFIC delivered : %.1f KB total\n",
              traffic_meter.total_bytes() / 1024.0);

  std::printf("\nVegas window adapting to the changing load:\n%s",
              trace::ascii_chart(az.series(trace::EventKind::kCwnd),
                                 "congestion window (bytes)", nullptr, "",
                                 78, 12)
                  .c_str());

  // Bottom graph: TRAFFIC output, thin = 100 ms bins, thick = running
  // average of 3 bins.
  const auto raw = traffic_meter.rates();
  trace::Series thin, thick;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const double t_s = 0.1 * static_cast<double>(i);
    thin.push_back({t_s, raw[i] / 1024.0});
    if (i >= 2) {
      thick.push_back({t_s, (raw[i] + raw[i - 1] + raw[i - 2]) / 3 / 1024.0});
    }
  }
  std::printf("\nTRAFFIC output (KB/s per 100 ms bin [*], size-3 running "
              "average [o]):\n%s",
              trace::ascii_chart(thin, "KB/s", &thick, "avg", 78, 10).c_str());
  bench::note("\nShape check: the Vegas window shrinks when TRAFFIC bursts\n"
              "and re-expands when the load recedes (CAM at work), without\n"
              "loss cascades.");
  return 0;
}
