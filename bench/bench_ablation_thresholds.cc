// Ablation of the Vegas design knobs the paper calls out:
//   - the alpha/beta CAM band (§4.2: "we varied these two thresholds to
//     study the sensitivity of our algorithm to them"),
//   - the gamma slow-start exit threshold (§3.3),
//   - the window-decrease factor for fine-detected losses (the SIGCOMM
//     text leaves it unspecified; DESIGN.md documents our 3/4 default).
#include <vector>

#include "bench/bench_util.h"
#include "stats/summary.h"

using namespace vegas;
using cc::AlgoSpec;

namespace {

struct Agg {
  stats::Running thr, retx;
};

Agg run_variant(AlgoSpec spec, int seeds) {
  std::vector<exp::BackgroundParams> cells;
  for (const std::size_t queue : {10u, 15u}) {
    for (int s = 0; s < seeds; ++s) {
      exp::BackgroundParams p;
      p.transfer = spec;
      p.queue = queue;
      p.seed = 1500 + queue * 20 + static_cast<std::uint64_t>(s);
      cells.push_back(p);
    }
  }
  Agg agg;
  for (const auto& r : exp::run_background_sweep(cells)) {
    if (!r.transfer.completed) continue;
    agg.thr.add(r.transfer.throughput_Bps() / 1024.0);
    agg.retx.add(r.transfer.sender_stats.bytes_retransmitted / 1024.0);
  }
  return agg;
}

}  // namespace

int main() {
  const int seeds = bench::scaled(5);

  bench::header("Ablation 1", "Vegas alpha/beta threshold sensitivity");
  std::printf("%d runs per variant under the Table-2 workload\n\n",
              seeds * 2);
  exp::Table band({"variant", "thr KB/s", "retx KB"}, 14);
  for (const auto& [a, b] :
       {std::pair{1.0, 3.0}, std::pair{2.0, 4.0}, std::pair{3.0, 6.0},
        std::pair{4.0, 8.0}, std::pair{6.0, 12.0}}) {
    const Agg agg = run_variant(AlgoSpec::vegas(a, b), seeds);
    char name[32];
    std::snprintf(name, sizeof(name), "Vegas-%g,%g", a, b);
    band.add_row({name, exp::Table::num(agg.thr.mean()),
                  exp::Table::num(agg.retx.mean())});
  }
  band.print();
  bench::note("Paper shape (§4.2): little difference between Vegas-1,3 and\n"
              "Vegas-2,4; oversized bands park more data in the queue and\n"
              "drift toward Reno-like losses.\n");

  bench::header("Ablation 2", "gamma (slow-start exit) sensitivity");
  exp::Table g_table({"gamma", "thr KB/s", "retx KB"}, 14);
  for (const double gamma : {0.5, 1.0, 2.0, 4.0}) {
    AlgoSpec spec = AlgoSpec::vegas();
    spec.gamma = gamma;
    const Agg agg = run_variant(spec, seeds);
    g_table.add_row({exp::Table::num(gamma, 1),
                     exp::Table::num(agg.thr.mean()),
                     exp::Table::num(agg.retx.mean())});
  }
  g_table.print();
  bench::note("Late slow-start exit (large gamma) re-introduces the\n"
              "overshoot losses the modified slow start exists to avoid.\n");

  bench::header("Ablation 3", "fine-loss window-decrease factor");
  exp::Table d_table({"decrease", "thr KB/s", "retx KB"}, 14);
  for (const double dec : {0.5, 0.75, 0.875}) {
    AlgoSpec spec = AlgoSpec::vegas();
    spec.fine_decrease = dec;
    const Agg agg = run_variant(spec, seeds);
    d_table.add_row({exp::Table::num(dec, 3),
                     exp::Table::num(agg.thr.mean()),
                     exp::Table::num(agg.retx.mean())});
  }
  d_table.print();
  bench::note("Earlier detection justifies a gentler cut than Reno's 1/2:\n"
              "0.75 keeps throughput without inflating losses.");
  return 0;
}
