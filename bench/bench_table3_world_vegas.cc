// Reproduces Table 3: "Throughput of Background Traffic When Competing
// with a 1MB Transfer" — the "what if the whole world runs Vegas"
// question (§4.2): the tcplib background itself runs over Reno or over
// Vegas, against a 1 MB Reno or Vegas transfer.
#include <vector>

#include "bench/bench_util.h"
#include "stats/summary.h"

using namespace vegas;
using cc::AlgoSpec;

namespace {

double background_goodput(AlgoSpec background, AlgoSpec transfer,
                          int seeds_per_queue) {
  std::vector<exp::BackgroundParams> cells;
  for (const std::size_t queue : {10u, 15u, 20u}) {
    for (int s = 0; s < seeds_per_queue; ++s) {
      exp::BackgroundParams p;
      p.background = background;
      p.transfer = transfer;
      p.queue = queue;
      p.seed = 300 + queue * 100 + static_cast<std::uint64_t>(s);
      cells.push_back(p);
    }
  }
  stats::Running goodput;
  for (const auto& r : exp::run_background_sweep(cells)) {
    goodput.add(r.background_goodput_Bps / 1024.0);
  }
  return goodput.mean();
}

}  // namespace

int main() {
  bench::header("Table 3",
                "Throughput of Background Traffic vs a 1MB Transfer");
  const int seeds = bench::scaled(6);
  std::printf("%d runs per cell (seeds x queues {10,15,20})\n", seeds * 3);

  const double reno_reno =
      background_goodput(AlgoSpec::reno(), AlgoSpec::reno(), seeds);
  const double reno_vegas =
      background_goodput(AlgoSpec::reno(), AlgoSpec::vegas(), seeds);
  const double vegas_reno =
      background_goodput(AlgoSpec::vegas(), AlgoSpec::reno(), seeds);
  const double vegas_vegas =
      background_goodput(AlgoSpec::vegas(), AlgoSpec::vegas(), seeds);

  exp::Table table({"traffic over \\ 1MB", "Reno", "Vegas"}, 18);
  table.add_row({"Reno (KB/s)", exp::Table::num(reno_reno),
                 exp::Table::num(reno_vegas)});
  table.add_row({"Vegas (KB/s)", exp::Table::num(vegas_reno),
                 exp::Table::num(vegas_vegas)});
  table.print();

  std::printf(
      "\nPaper reported:\n"
      "  traffic over \\ 1MB    Reno    Vegas\n"
      "  Reno (KB/s)           68      82\n"
      "  Vegas (KB/s)          84      85\n"
      "Shape checks: Reno-based background does BETTER when the big\n"
      "transfer is Vegas (it stops being beaten up); Vegas-based\n"
      "background is insensitive to the transfer's protocol.\n");
  return 0;
}
