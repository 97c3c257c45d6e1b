// Reproduces Table 5: "Effects of transfer size over the Internet" —
// 1024 KB / 512 KB / 128 KB transfers, Reno vs Vegas-1,3 on the
// simulated WAN.  The paper's headline: Vegas' relative advantage GROWS
// as transfers shrink, because its modified slow start eliminates the
// ~20 KB of slow-start losses that dominate Reno's small transfers.
#include <vector>

#include "bench/bench_util.h"
#include "stats/summary.h"

using namespace vegas;
using cc::AlgoSpec;

namespace {

struct Cell {
  stats::Running thr, retx, cto;
};

Cell run_cell(AlgoSpec spec, ByteCount bytes, int seeds) {
  std::vector<exp::WanParams> cells;
  for (int s = 0; s < seeds; ++s) {
    exp::WanParams p;
    p.algo = spec;
    p.bytes = bytes;
    p.seed = 9000 + static_cast<std::uint64_t>(s);
    cells.push_back(p);
  }
  Cell c;
  for (const auto& r : exp::run_wan_sweep(cells)) {
    if (!r.completed) continue;
    c.thr.add(r.throughput_Bps() / 1024.0);
    c.retx.add(r.sender_stats.bytes_retransmitted / 1024.0);
    c.cto.add(static_cast<double>(r.sender_stats.coarse_timeouts));
  }
  return c;
}

}  // namespace

int main() {
  bench::header("Table 5", "Effects of transfer size over the Internet");
  const int seeds = bench::scaled(8);
  std::printf("%d runs per cell\n", seeds);

  const std::vector<ByteCount> sizes{1024_KB, 512_KB, 128_KB};
  std::vector<Cell> reno_cells, vegas_cells;
  for (const ByteCount size : sizes) {
    reno_cells.push_back(run_cell(AlgoSpec::reno(), size, seeds));
    vegas_cells.push_back(run_cell(AlgoSpec::vegas(1, 3), size, seeds));
  }

  exp::Table table({"", "1024KB:Reno", "1024KB:Vegas", "512KB:Reno",
                    "512KB:Vegas", "128KB:Reno", "128KB:Vegas"},
                   12);
  std::vector<std::string> thr{"Thru (KB/s)"}, ratio{"Thru Ratio"},
      retx{"Retx (KB)"}, rx_ratio{"Retx Ratio"}, cto{"Coarse TOs"};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Cell& r = reno_cells[i];
    const Cell& v = vegas_cells[i];
    thr.push_back(exp::Table::num(r.thr.mean()));
    thr.push_back(exp::Table::num(v.thr.mean()));
    ratio.push_back("1.00");
    ratio.push_back(exp::Table::num(v.thr.mean() / r.thr.mean()));
    retx.push_back(exp::Table::num(r.retx.mean()));
    retx.push_back(exp::Table::num(v.retx.mean()));
    rx_ratio.push_back("1.00");
    rx_ratio.push_back(exp::Table::num(
        r.retx.mean() > 0 ? v.retx.mean() / r.retx.mean() : 0));
    cto.push_back(exp::Table::num(r.cto.mean()));
    cto.push_back(exp::Table::num(v.cto.mean()));
  }
  table.add_row(thr);
  table.add_row(ratio);
  table.add_row(retx);
  table.add_row(rx_ratio);
  table.add_row(cto);
  table.print();

  std::printf(
      "\nPaper reported:    1024KB          512KB           128KB\n"
      "                 Reno  Vegas     Reno  Vegas     Reno  Vegas\n"
      "  Thru (KB/s)   53.00  72.50    52.00  72.00    31.10  53.10\n"
      "  Thru Ratio     1.00   1.37     1.00   1.38     1.00   1.71\n"
      "  Retx (KB)     47.80  24.50    27.90  10.50    22.90   4.00\n"
      "  Retx Ratio     1.00   0.51     1.00   0.38     1.00   0.17\n"
      "  Coarse TOs     3.30   0.80     1.70   0.20     1.10   0.20\n"
      "Shape checks: the Vegas/Reno throughput ratio INCREASES as the\n"
      "transfer shrinks; Reno's retransmissions flatten out near its\n"
      "slow-start loss floor while Vegas' scale down with size.\n");
  return 0;
}
