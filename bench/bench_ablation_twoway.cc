// Reproduces the §4.3 "Two-way background traffic" experiment: tcplib
// load added in the reverse direction (Host3b -> Host3a), which
// compresses/disturbs the ACK stream.  Paper: the throughput ratio
// stays the same while the LOSS ratio improves to 0.29 (Reno resends
// more; Vegas is unchanged).
#include <vector>

#include "bench/bench_util.h"
#include "stats/summary.h"

using namespace vegas;
using cc::AlgoSpec;

namespace {

struct Agg {
  stats::Running thr, retx;
};

Agg run_config(AlgoSpec spec, bool two_way, int seeds) {
  std::vector<exp::BackgroundParams> cells;
  for (const std::size_t queue : {10u, 15u, 20u}) {
    for (int s = 0; s < seeds; ++s) {
      exp::BackgroundParams p;
      p.transfer = spec;
      p.two_way = two_way;
      p.queue = queue;
      p.seed = 800 + queue * 50 + static_cast<std::uint64_t>(s);
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
  bench::header("§4.3 ablation", "Two-way tcplib background traffic");
  const int seeds = bench::scaled(5);
  std::printf("%d runs per cell\n\n", seeds * 3);

  exp::Table table({"", "Reno 1-way", "Reno 2-way", "Vegas 1-way",
                    "Vegas 2-way"},
                   12);
  const Agg r1 = run_config(AlgoSpec::reno(), false, seeds);
  const Agg r2 = run_config(AlgoSpec::reno(), true, seeds);
  const Agg v1 = run_config(AlgoSpec::vegas(), false, seeds);
  const Agg v2 = run_config(AlgoSpec::vegas(), true, seeds);
  table.add_row({"Thru (KB/s)", exp::Table::num(r1.thr.mean()),
                 exp::Table::num(r2.thr.mean()),
                 exp::Table::num(v1.thr.mean()),
                 exp::Table::num(v2.thr.mean())});
  table.add_row({"Retx (KB)", exp::Table::num(r1.retx.mean()),
                 exp::Table::num(r2.retx.mean()),
                 exp::Table::num(v1.retx.mean()),
                 exp::Table::num(v2.retx.mean())});
  table.print();

  const double ratio_1way = v1.thr.mean() / r1.thr.mean();
  const double ratio_2way = v2.thr.mean() / r2.thr.mean();
  std::printf("\nVegas/Reno throughput ratio: 1-way %.2f, 2-way %.2f "
              "(paper: unchanged)\n",
              ratio_1way, ratio_2way);
  bench::note("Shape check: reverse traffic leaves Vegas' retransmissions\n"
              "about the same while Reno's grow (ACK-path disturbance\n"
              "punishes the loss-driven protocol).");
  return 0;
}
