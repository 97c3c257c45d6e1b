// Trace-graph exporter: runs a traced transfer and writes every series
// behind the paper's Figures 1/2/3/6/7/8 as CSV files, ready for any
// plotting tool.
//
//   ./trace_graphs [reno|vegas] [outdir=.]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cc/registry.h"
#include "exp/world.h"
#include "trace/analyzer.h"
#include "trace/conn_tracer.h"
#include "traffic/bulk.h"

using namespace vegas;

namespace {

void write_marks(const std::string& path, const std::vector<double>& ts,
                 const char* name) {
  trace::Series s;
  s.reserve(ts.size());
  for (const double t : ts) s.push_back({t, 1.0});
  trace::write_csv(path, s, name);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string algo_name = argc > 1 ? argv[1] : "vegas";
  const std::string outdir = argc > 2 ? argv[2] : ".";
  const tcp::CongOps* algo = cc::find(algo_name);
  if (algo == nullptr) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", algo_name.c_str());
    return 1;
  }

  net::DumbbellConfig topo;
  topo.pairs = 1;
  topo.bottleneck_queue = 10;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, 1);

  trace::ConnTracer tracer;
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 1_MB;
  cfg.port = 5001;
  cfg.cc = algo;
  cfg.observer = &tracer;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(300));

  trace::Analyzer az(tracer.buffer());
  const std::string base = outdir + "/" + algo_name + "_";
  trace::write_csv(base + "cwnd.csv", az.series(trace::EventKind::kCwnd),
                   "cwnd_bytes");
  trace::write_csv(base + "ssthresh.csv",
                   az.series(trace::EventKind::kSsthresh), "ssthresh_bytes");
  trace::write_csv(base + "send_wnd.csv",
                   az.series(trace::EventKind::kSendWnd), "send_wnd_bytes");
  trace::write_csv(base + "in_flight.csv",
                   az.series(trace::EventKind::kInFlight), "in_flight_bytes");
  trace::write_csv(base + "rate.csv", az.sending_rate(12), "bytes_per_s");
  write_marks(base + "segments_sent.csv",
              az.marks(trace::EventKind::kSegSent), "sent");
  write_marks(base + "acks.csv", az.marks(trace::EventKind::kAckRcvd), "ack");
  write_marks(base + "coarse_ticks.csv",
              az.marks(trace::EventKind::kCoarseTick), "tick");
  write_marks(base + "losses.csv", az.presumed_loss_times(), "loss");
  if (algo == cc::find("vegas")) {
    trace::write_csv(base + "cam_expected.csv",
                     az.series(trace::EventKind::kCamExpected), "bytes_per_s");
    trace::write_csv(base + "cam_actual.csv",
                     az.series(trace::EventKind::kCamActual), "bytes_per_s");
  }

  const auto summary = az.summary();
  std::printf("wrote %s{cwnd,ssthresh,send_wnd,in_flight,rate,...}.csv\n",
              base.c_str());
  std::printf("trace: %zu segments, %zu retransmit events, %.2f s\n",
              summary.segments_sent, summary.retransmit_events,
              summary.duration_s);
  std::printf("throughput %.1f KB/s\n", t.result().throughput_Bps() / 1024.0);
  return 0;
}
