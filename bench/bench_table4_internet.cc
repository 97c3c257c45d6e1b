// Reproduces Table 4: "1MByte transfer over the Internet".
//
// The paper measured UA -> NIH (17 hops) over seven days; we run the
// 17-hop simulated WAN chain with tcplib cross traffic on every hop
// (DESIGN.md documents the substitution) across many seeds.
#include <vector>

#include "bench/bench_util.h"
#include "stats/summary.h"

using namespace vegas;
using cc::AlgoSpec;

namespace {

struct Row {
  stats::Running thr, retx, cto;
  int incomplete = 0;
};

Row run_protocol(AlgoSpec spec, int seeds) {
  std::vector<exp::WanParams> cells;
  for (int s = 0; s < seeds; ++s) {
    exp::WanParams p;
    p.algo = spec;
    p.bytes = 1_MB;
    p.seed = 7000 + static_cast<std::uint64_t>(s);
    cells.push_back(p);
  }
  Row row;
  for (const auto& r : exp::run_wan_sweep(cells)) {
    if (!r.completed) {
      ++row.incomplete;
      continue;
    }
    row.thr.add(r.throughput_Bps() / 1024.0);
    row.retx.add(r.sender_stats.bytes_retransmitted / 1024.0);
    row.cto.add(static_cast<double>(r.sender_stats.coarse_timeouts));
  }
  return row;
}

}  // namespace

int main() {
  bench::header("Table 4", "1MByte transfer over the (simulated) Internet");
  const int seeds = bench::scaled(8);
  std::printf("%d runs per protocol on the 17-hop chain\n", seeds);

  const std::vector<AlgoSpec> specs{AlgoSpec::reno(), AlgoSpec::vegas(1, 3),
                                    AlgoSpec::vegas(2, 4)};
  std::vector<Row> rows;
  for (const AlgoSpec& s : specs) rows.push_back(run_protocol(s, seeds));

  exp::Table table({"", "Reno", "Vegas-1,3", "Vegas-2,4"}, 14);
  const double base_thr = rows[0].thr.mean();
  const double base_retx = rows[0].retx.mean();
  table.add_row({"Throughput (KB/s)", exp::Table::num(rows[0].thr.mean()),
                 exp::Table::num(rows[1].thr.mean()),
                 exp::Table::num(rows[2].thr.mean())});
  table.add_row({"Throughput Ratio", "1.00",
                 exp::Table::num(rows[1].thr.mean() / base_thr),
                 exp::Table::num(rows[2].thr.mean() / base_thr)});
  table.add_row({"Retransmissions (KB)", exp::Table::num(rows[0].retx.mean()),
                 exp::Table::num(rows[1].retx.mean()),
                 exp::Table::num(rows[2].retx.mean())});
  table.add_row({"Retransmit Ratio", "1.00",
                 exp::Table::num(base_retx > 0 ? rows[1].retx.mean() / base_retx : 0),
                 exp::Table::num(base_retx > 0 ? rows[2].retx.mean() / base_retx : 0)});
  table.add_row({"Coarse Timeouts", exp::Table::num(rows[0].cto.mean()),
                 exp::Table::num(rows[1].cto.mean()),
                 exp::Table::num(rows[2].cto.mean())});
  table.print();

  std::printf(
      "\nPaper reported:        Reno         Vegas-1,3    Vegas-2,4\n"
      "  Throughput (KB/s)    53.00        72.50        75.30\n"
      "  Throughput Ratio     1.00         1.37         1.42\n"
      "  Retransmissions (KB) 47.80        24.50        29.30\n"
      "  Retransmit Ratio     1.00         0.51         0.61\n"
      "  Coarse Timeouts      3.30         0.80         0.90\n"
      "Shape checks: Vegas wins by tens of percent with roughly half (or\n"
      "less) of the retransmissions and fewer coarse timeouts.\n");
  return 0;
}
