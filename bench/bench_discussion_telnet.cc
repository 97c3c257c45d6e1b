// Reproduces the §6 claim: "simulations running tcplib traffic over
// both Reno and Vegas show that the average response time in TELNET
// connections is around 25% faster when using Vegas as compared to
// Reno" — the what-if-the-whole-world-runs-Vegas experiment.
#include "bench/bench_util.h"
#include "cc/registry.h"
#include "exp/world.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "traffic/source.h"

using namespace vegas;

namespace {

struct LatencyResult {
  stats::Running stats;
  stats::Histogram histogram{0.0, 2000.0, 10};
};

LatencyResult telnet_latency_ms(const char* algo, int seeds) {
  LatencyResult lat;
  for (int s = 0; s < seeds; ++s) {
    net::DumbbellConfig topo;
    topo.bottleneck_queue = 10;
    exp::DumbbellWorld world(topo, tcp::TcpConfig{},
                             1100 + static_cast<std::uint64_t>(s));
    traffic::TrafficConfig tc;
    tc.mean_interarrival_s = 0.8;  // busy mix: telnet competes with FTP
    tc.seed = 1100 + static_cast<std::uint64_t>(s);
    tc.cc = cc::find(algo);
    tc.spawn_until = sim::Time::seconds(120);
    traffic::TrafficSource source(world.left(0), world.right(0), tc);
    source.start();
    world.sim().run_until(sim::Time::seconds(600));
    for (const double r : source.stats().telnet_response_s) {
      lat.stats.add(r * 1000.0);
      lat.histogram.add(r * 1000.0);
    }
  }
  return lat;
}

}  // namespace

int main() {
  bench::header("§6 discussion",
                "TELNET response time: all-Reno world vs all-Vegas world");
  const int seeds = bench::scaled(4);
  std::printf("%d x 120 s of tcplib conversations per world\n\n", seeds);

  const auto reno = telnet_latency_ms("reno", seeds);
  const auto vegas = telnet_latency_ms("vegas", seeds);

  exp::Table table({"world", "keystroke->echo mean (ms)", "n"}, 26);
  table.add_row({"all Reno", exp::Table::num(reno.stats.mean(), 1),
                 std::to_string(reno.stats.count())});
  table.add_row({"all Vegas", exp::Table::num(vegas.stats.mean(), 1),
                 std::to_string(vegas.stats.count())});
  table.print();

  std::printf("\nResponse-time distribution, all-Reno world (ms):\n%s",
              reno.histogram.render(40).c_str());
  std::printf("\nResponse-time distribution, all-Vegas world (ms):\n%s",
              vegas.histogram.render(40).c_str());
  std::printf("\nVegas improvement: %.1f%%   (paper: ~25%% faster)\n",
              (1.0 - vegas.stats.mean() / reno.stats.mean()) * 100.0);
  bench::note("Shape check: interactive response is faster in the Vegas\n"
              "world because the bottleneck queue stays short.");
  return 0;
}
