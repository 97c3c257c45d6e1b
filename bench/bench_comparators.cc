// Ablation: the §3.2 related-work schemes — DUAL, CARD, Tri-S — plus
// Tahoe, Reno and Vegas, all under the Table-2 workload.  The paper
// discusses these as the prior delay-based proposals Vegas improves on;
// this bench races every engine in the library on identical conditions.
#include <vector>

#include "bench/bench_util.h"
#include "stats/summary.h"

using namespace vegas;
using cc::AlgoSpec;

int main() {
  bench::header("Ablation",
                "All congestion-control engines under the Table-2 workload");
  const int seeds = bench::scaled(5);
  std::printf("%d runs per engine (seeds x queues {10,15,20})\n\n", seeds * 3);

  exp::Table table({"engine", "thr KB/s", "retx KB", "coarse TOs"}, 12);
  const std::vector<AlgoSpec> specs{
      AlgoSpec::tahoe(),
      AlgoSpec::reno(),
      AlgoSpec::named("newreno"),
      AlgoSpec::named("dual"),
      AlgoSpec::named("card"),
      AlgoSpec::named("tris"),
      AlgoSpec::vegas(1, 3),
      AlgoSpec::vegas(2, 4),
  };
  for (const AlgoSpec& spec : specs) {
    stats::Running thr, retx, cto;
    for (const std::size_t queue : {10u, 15u, 20u}) {
      for (int s = 0; s < seeds; ++s) {
        exp::BackgroundParams p;
        p.transfer = spec;
        p.queue = queue;
        p.seed = 1300 + queue * 20 + static_cast<std::uint64_t>(s);
        const auto r = exp::run_background(p);
        if (!r.transfer.completed) continue;
        thr.add(r.transfer.throughput_Bps() / 1024.0);
        retx.add(r.transfer.sender_stats.bytes_retransmitted / 1024.0);
        cto.add(static_cast<double>(r.transfer.sender_stats.coarse_timeouts));
      }
    }
    table.add_row({spec.label(), exp::Table::num(thr.mean()),
                   exp::Table::num(retx.mean()),
                   exp::Table::num(cto.mean())});
  }
  table.print();
  bench::note(
      "\nShape check: the delay-based schemes (DUAL/CARD/Tri-S) reduce\n"
      "losses relative to Reno/Tahoe but only Vegas combines low loss\n"
      "with the highest throughput — the paper's central argument for\n"
      "comparing measured against EXPECTED rate instead of watching RTT\n"
      "slope or throughput slope alone.");
  return 0;
}
