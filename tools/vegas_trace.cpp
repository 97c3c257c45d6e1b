// vegas-trace: offline analyzer for trace files written by
// TraceBuffer::save() — the paper's §2.2 post-run analysis tool.
//
//   vegas-trace summary run.trace
//   vegas-trace chart   run.trace [cwnd|rate|cam|flight]
//   vegas-trace csv     run.trace cwnd > cwnd.csv
//   vegas-trace record  [solo flags...]   # run a traced transfer first
//
// `record` runs a solo transfer (same flags as vegas-sim solo) and
// writes --out (default run.trace); the other subcommands analyze it.
#include <cstdio>
#include <string>

#include "cc/registry.h"
#include "exp/world.h"
#include "tools/flags.h"
#include "trace/analyzer.h"
#include "trace/conn_tracer.h"
#include "traffic/bulk.h"

using namespace vegas;
using tools::Flags;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: vegas-trace <record|summary|chart|csv> [args]\n"
               "  record  --algo vegas --bytes-kb 1024 --out run.trace\n"
               "  summary run.trace\n"
               "  chart   run.trace [cwnd|rate|cam|flight]\n"
               "  csv     run.trace <cwnd|ssthresh|flight|rate>\n"
               "  events  run.trace [limit]\n");
  return 2;
}

int cmd_record(const Flags& flags) {
  const std::string out = flags.get_string("out", "run.trace");
  net::DumbbellConfig topo;
  topo.pairs = 1;
  topo.bottleneck_queue =
      static_cast<std::size_t>(flags.get_int("queue", 10));
  exp::DumbbellWorld world(topo, tcp::TcpConfig{},
                           static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  const std::string algo_name = flags.get_string("algo", "vegas");
  const tcp::CongOps* ops = cc::find(algo_name);
  if (ops == nullptr) {
    std::fprintf(stderr, "unknown algorithm '%s'; did you mean '%s'?\n",
                 algo_name.c_str(), cc::closest(algo_name).c_str());
    return usage();
  }

  trace::ConnTracer tracer;
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = flags.get_int("bytes-kb", 1024) * 1024;
  cfg.port = 5001;
  cfg.cc = ops;
  cfg.observer = &tracer;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(600));

  if (!tracer.buffer().save(out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("recorded %zu events to %s (%s, %.1f KB/s)\n",
              tracer.buffer().size(), out.c_str(),
              t.result().algorithm.c_str(), t.throughput_kBps());
  return 0;
}

bool load(const std::string& path, trace::TraceBuffer& buf) {
  if (!buf.load(path)) {
    std::fprintf(stderr, "cannot read trace file %s\n", path.c_str());
    return false;
  }
  return true;
}

int cmd_summary(const std::string& path) {
  trace::TraceBuffer buf;
  if (!load(path, buf)) return 1;
  trace::Analyzer az(buf);
  const auto s = az.summary();
  std::printf("events            : %zu\n", buf.size());
  std::printf("duration          : %.2f s\n", s.duration_s);
  std::printf("segments sent     : %zu\n", s.segments_sent);
  std::printf("retransmit events : %zu (fast %zu, fine %zu, coarse %zu)\n",
              s.retransmit_events, s.fast_retransmits, s.fine_retransmits,
              s.coarse_timeouts);
  std::printf("duplicate ACKs    : %zu\n", s.dup_acks);
  std::printf("CAM samples       : %zu\n", s.cam_samples);
  std::printf("presumed losses   : %zu\n", az.presumed_loss_times().size());
  return 0;
}

int cmd_chart(const std::string& path, const std::string& what) {
  trace::TraceBuffer buf;
  if (!load(path, buf)) return 1;
  trace::Analyzer az(buf);
  if (what == "cwnd") {
    const auto cwnd = az.series(trace::EventKind::kCwnd);
    const auto flight = az.series(trace::EventKind::kInFlight);
    std::printf("%s", trace::ascii_chart(cwnd, "cwnd (bytes)", &flight,
                                         "in flight")
                          .c_str());
  } else if (what == "rate") {
    std::printf("%s",
                trace::ascii_chart(az.sending_rate(12), "bytes/s").c_str());
  } else if (what == "cam") {
    const auto e = az.series(trace::EventKind::kCamExpected);
    const auto a = az.series(trace::EventKind::kCamActual);
    std::printf("%s", trace::ascii_chart(e, "Expected (bytes/s)", &a,
                                         "Actual")
                          .c_str());
  } else if (what == "flight") {
    std::printf("%s", trace::ascii_chart(
                          az.series(trace::EventKind::kInFlight),
                          "bytes in transit")
                          .c_str());
  } else {
    return usage();
  }
  return 0;
}

const char* kind_name(trace::EventKind k) {
  switch (k) {
    case trace::EventKind::kSegSent: return "SEG_SENT";
    case trace::EventKind::kAckRcvd: return "ACK";
    case trace::EventKind::kCwnd: return "CWND";
    case trace::EventKind::kSsthresh: return "SSTHRESH";
    case trace::EventKind::kSendWnd: return "SND_WND";
    case trace::EventKind::kInFlight: return "IN_FLIGHT";
    case trace::EventKind::kCoarseTick: return "TICK";
    case trace::EventKind::kRetransmit: return "RETRANSMIT";
    case trace::EventKind::kCamExpected: return "CAM_EXPECTED";
    case trace::EventKind::kCamActual: return "CAM_ACTUAL";
    case trace::EventKind::kCamDiff: return "CAM_DIFF";
    case trace::EventKind::kSlowStartExit: return "SS_EXIT";
    case trace::EventKind::kEstablished: return "ESTABLISHED";
    case trace::EventKind::kClosed: return "CLOSED";
  }
  return "?";
}

int cmd_events(const std::string& path, long long limit) {
  trace::TraceBuffer buf;
  if (!load(path, buf)) return 1;
  long long n = 0;
  for (const auto& e : buf.events()) {
    if (limit > 0 && n++ >= limit) break;
    std::printf("%10.6f %-13s value=%-10u aux=%-3u len=%u\n", e.t_us / 1e6,
                kind_name(e.kind), e.value, e.aux, e.len);
  }
  return 0;
}

int cmd_csv(const std::string& path, const std::string& what) {
  trace::TraceBuffer buf;
  if (!load(path, buf)) return 1;
  trace::Analyzer az(buf);
  trace::Series series;
  if (what == "cwnd") {
    series = az.series(trace::EventKind::kCwnd);
  } else if (what == "ssthresh") {
    series = az.series(trace::EventKind::kSsthresh);
  } else if (what == "flight") {
    series = az.series(trace::EventKind::kInFlight);
  } else if (what == "rate") {
    series = az.sending_rate(12);
  } else {
    return usage();
  }
  std::printf("t,%s\n", what.c_str());
  for (const auto& p : series) std::printf("%.6f,%.3f\n", p.t_s, p.value);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "record") return cmd_record(Flags(argc, argv, 2));
  if (argc < 3) return usage();
  const std::string path = argv[2];
  if (cmd == "summary") return cmd_summary(path);
  if (cmd == "chart") return cmd_chart(path, argc > 3 ? argv[3] : "cwnd");
  if (cmd == "csv") return cmd_csv(path, argc > 3 ? argv[3] : "cwnd");
  if (cmd == "events") {
    return cmd_events(path, argc > 3 ? std::atoll(argv[3]) : 0);
  }
  return usage();
}
