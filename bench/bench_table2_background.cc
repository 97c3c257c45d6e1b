// Reproduces Table 2: "1MByte Transfer with tcplib-Generated Background
// Reno Traffic".
//
// A 1 MB transfer (Host2a->Host2b) competes with tcplib conversations
// (Host1a->Host1b) running over Reno.  As in the paper, results average
// runs across different tcplib seeds and router queues of 10/15/20
// buffers (the paper used 57 runs; VEGAS_BENCH_SCALE scales our 57).
#include <vector>

#include "bench/bench_util.h"
#include "stats/summary.h"

using namespace vegas;
using cc::AlgoSpec;

namespace {

struct Row {
  stats::Running thr;   // KB/s
  stats::Running retx;  // KB
  stats::Running cto;
  int incomplete = 0;
};

Row run_protocol(AlgoSpec spec, int seeds_per_queue) {
  std::vector<exp::BackgroundParams> cells;
  for (const std::size_t queue : {10u, 15u, 20u}) {
    for (int s = 0; s < seeds_per_queue; ++s) {
      exp::BackgroundParams p;
      p.transfer = spec;
      p.queue = queue;
      p.seed = 100 + queue * 100 + static_cast<std::uint64_t>(s);
      cells.push_back(p);
    }
  }
  Row row;
  for (const auto& r : exp::run_background_sweep(cells)) {
    if (!r.transfer.completed) {
      ++row.incomplete;
      continue;
    }
    row.thr.add(r.transfer.throughput_Bps() / 1024.0);
    row.retx.add(r.transfer.sender_stats.bytes_retransmitted / 1024.0);
    row.cto.add(static_cast<double>(r.transfer.sender_stats.coarse_timeouts));
  }
  return row;
}

}  // namespace

int main() {
  bench::header("Table 2",
                "1MByte Transfer with tcplib Background Reno Traffic");
  const int seeds_per_queue = bench::scaled(19);  // 19 x 3 queues = 57 runs
  std::printf("%d runs per protocol (seeds x queues {10,15,20})\n",
              seeds_per_queue * 3);

  const std::vector<AlgoSpec> specs{AlgoSpec::reno(), AlgoSpec::vegas(1, 3),
                                    AlgoSpec::vegas(2, 4)};
  std::vector<Row> rows;
  for (const AlgoSpec& s : specs) rows.push_back(run_protocol(s, seeds_per_queue));

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
      "  Throughput (KB/s)    58.30        89.40        91.80\n"
      "  Throughput Ratio     1.00         1.53         1.58\n"
      "  Retransmissions (KB) 55.40        27.10        29.40\n"
      "  Retransmit Ratio     1.00         0.49         0.53\n"
      "  Coarse Timeouts      5.60         0.90         0.90\n"
      "Shape checks: Vegas >= ~1.4x Reno's throughput, a fraction of the\n"
      "retransmissions and coarse timeouts; Vegas-1,3 ~ Vegas-2,4.\n");
  return 0;
}
