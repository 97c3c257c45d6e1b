// tcplib playground: run the TRAFFIC protocol (TELNET/FTP/NNTP/SMTP
// conversations) next to a measured transfer and inspect the mix —
// the paper's §4.2 experiment as an interactive example.
//
//   ./traffic_playground [seconds=60] [interarrival_s=1.2]
#include <cstdio>
#include <cstdlib>

#include "cc/registry.h"
#include "exp/world.h"
#include "stats/summary.h"
#include "traffic/bulk.h"
#include "traffic/source.h"

using namespace vegas;

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 60.0;
  const double interarrival = argc > 2 ? std::atof(argv[2]) : 1.2;

  net::DumbbellConfig topo;
  topo.bottleneck_queue = 15;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, /*seed=*/7);

  // Background conversations between Host1a and Host1b.
  traffic::TrafficConfig tc;
  tc.mean_interarrival_s = interarrival;
  tc.seed = 7;
  tc.spawn_until = sim::Time::seconds(seconds * 0.8);
  traffic::TrafficSource source(world.left(0), world.right(0), tc);
  source.start();

  // A measured 1 MB Vegas transfer between Host2a and Host2b.
  traffic::BulkTransfer::Config bt;
  bt.bytes = 1_MB;
  bt.port = 5001;
  bt.cc = cc::find("vegas");
  bt.start_delay = sim::Time::seconds(5);
  traffic::BulkTransfer transfer(world.left(1), world.right(1), bt);

  world.sim().run_until(sim::Time::seconds(seconds * 4));

  const auto& st = source.stats();
  std::printf("TRAFFIC over %.0fs (spawn window %.0fs):\n", seconds * 4,
              seconds * 0.8);
  std::printf("  conversations: %llu started, %llu completed, %llu failed\n",
              static_cast<unsigned long long>(st.started),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.failed));
  for (const auto& [type, count] : st.by_type) {
    std::printf("    %-7s %llu\n", type.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("  scripted app bytes completed: %.1f KB\n",
              st.bytes_scripted / 1024.0);

  if (!st.telnet_response_s.empty()) {
    stats::Running lat;
    for (const double r : st.telnet_response_s) lat.add(r * 1000.0);
    std::printf("  TELNET keystroke->echo: n=%zu mean=%.0f ms  min=%.0f ms  "
                "max=%.0f ms\n",
                lat.count(), lat.mean(), lat.min(), lat.max());
  }

  const auto& r = transfer.result();
  std::printf("\nMeasured 1 MB Vegas transfer:\n");
  std::printf("  %s, %.1f KB/s, %.1f KB retransmitted\n",
              r.completed ? "completed" : "incomplete",
              r.throughput_Bps() / 1024.0,
              r.sender_stats.bytes_retransmitted / 1024.0);

  std::printf("\nBottleneck queue: max depth %zu packets, %zu drops\n",
              world.topo().fwd_monitor.max_length(),
              world.topo().fwd_monitor.drop_count());
  return 0;
}
