// Reproduces Table 1: "One-on-One (300KB and 1MB) Transfers".
//
// A 1 MB transfer shares the bottleneck with a 300 KB transfer that
// starts 0..2.5 s later; every {small algorithm}/{large algorithm}
// combination is averaged over router queues of 15 and 20 packets and
// six start delays (12 runs per combination, as in the paper).
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "stats/summary.h"

using namespace vegas;
using cc::AlgoSpec;

namespace {

struct Cell {
  stats::Running small_thr, large_thr;    // KB/s
  stats::Running small_retx, large_retx;  // KB
  int incomplete = 0;
};

Cell run_combo(AlgoSpec small, AlgoSpec large) {
  const std::vector<double> delays{0.0, 0.5, 1.0, 1.5, 2.0, 2.5};
  std::vector<exp::OneOnOneParams> cells;
  for (const std::size_t queue : {15u, 20u}) {
    for (const double delay : delays) {
      exp::OneOnOneParams p;
      p.small = small;
      p.large = large;
      p.queue = queue;
      p.small_delay_s = delay;
      p.seed = 1000 + queue * 10 + static_cast<std::uint64_t>(delay * 2);
      cells.push_back(p);
    }
  }
  Cell cell;
  for (const auto& r : exp::run_one_on_one_sweep(cells)) {
    if (!r.small.completed || !r.large.completed) {
      ++cell.incomplete;
      continue;
    }
    cell.small_thr.add(r.small.throughput_Bps() / 1024.0);
    cell.large_thr.add(r.large.throughput_Bps() / 1024.0);
    cell.small_retx.add(r.small.sender_stats.bytes_retransmitted / 1024.0);
    cell.large_retx.add(r.large.sender_stats.bytes_retransmitted / 1024.0);
  }
  return cell;
}

std::string pair_num(double a, double b, int decimals = 0) {
  return exp::Table::num(a, decimals) + "/" + exp::Table::num(b, decimals);
}

}  // namespace

int main() {
  bench::header("Table 1", "One-on-One (300KB and 1MB) Transfers");
  bench::note("Columns are small/large: e.g. Reno/Vegas = 300KB Reno inside "
              "1MB Vegas.\n12 runs per combination: queues {15,20} x start "
              "delays {0..2.5s}.");

  const std::vector<std::pair<AlgoSpec, AlgoSpec>> combos{
      {AlgoSpec::reno(), AlgoSpec::reno()},
      {AlgoSpec::reno(), AlgoSpec::vegas()},
      {AlgoSpec::vegas(), AlgoSpec::reno()},
      {AlgoSpec::vegas(), AlgoSpec::vegas()},
  };
  std::vector<Cell> cells;
  std::vector<std::string> names;
  for (const auto& [small, large] : combos) {
    cells.push_back(run_combo(small, large));
    names.push_back(small.label() + "/" + large.label());
  }

  exp::Table table({"", names[0], names[1], names[2], names[3]}, 14);
  const double base_small = cells[0].small_thr.mean();
  const double base_large = cells[0].large_thr.mean();
  const double base_small_rx = cells[0].small_retx.mean();
  const double base_large_rx = cells[0].large_retx.mean();

  std::vector<std::string> thr_row{"Throughput (KB/s)"};
  std::vector<std::string> thr_ratio{"Throughput Ratios"};
  std::vector<std::string> rx_row{"Retransmissions (KB)"};
  std::vector<std::string> rx_ratio{"Retransmit Ratios"};
  for (const Cell& c : cells) {
    thr_row.push_back(pair_num(c.small_thr.mean(), c.large_thr.mean()));
    thr_ratio.push_back(pair_num(c.small_thr.mean() / base_small,
                                 c.large_thr.mean() / base_large, 2));
    rx_row.push_back(pair_num(c.small_retx.mean(), c.large_retx.mean(), 1));
    rx_ratio.push_back(pair_num(
        base_small_rx > 0 ? c.small_retx.mean() / base_small_rx : 0,
        base_large_rx > 0 ? c.large_retx.mean() / base_large_rx : 0, 2));
  }
  table.add_row(thr_row);
  table.add_row(thr_ratio);
  table.add_row(rx_row);
  table.add_row(rx_ratio);
  table.print();

  std::printf(
      "\nPaper reported (same layout):\n"
      "  Throughput (KB/s)      60/109      61/123      66/119      74/131\n"
      "  Retransmissions (KB)   30/22       43/1.8      1.5/18      0.3/0.1\n"
      "Shape checks: Reno's throughput is not hurt when the competitor\n"
      "becomes Vegas; combined retransmissions drop; Vegas/Vegas is\n"
      "nearly loss-free.\n");
  return 0;
}
