// Reproduces the §4.3 "One-on-one tests with traffic in the background"
// bullet: the Table-1 experiment repeated with tcplib load present.
// Paper: same conclusions — Reno does better against Vegas than against
// itself, with Reno's losses growing only 6% in the Reno/Vegas case.
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "cc/registry.h"
#include "exp/world.h"
#include "stats/summary.h"
#include "traffic/bulk.h"
#include "traffic/source.h"

using namespace vegas;
using cc::AlgoSpec;

namespace {

struct Cell {
  stats::Running small_thr, combined_retx;
};

struct RunOutcome {
  bool done = false;
  double small_thr = 0;
  double combined_retx = 0;
};

Cell run_combo(AlgoSpec small, AlgoSpec large, int seeds) {
  struct Params {
    std::size_t queue;
    int s;
  };
  std::vector<Params> cells;
  for (const std::size_t queue : {15u, 20u}) {
    for (int s = 0; s < seeds; ++s) cells.push_back({queue, s});
  }
  const auto outcomes = bench::sweep(cells.size(), [&](int i) {
    const auto [queue, s] = cells[static_cast<std::size_t>(i)];
    net::DumbbellConfig topo;
    topo.bottleneck_queue = queue;
    exp::DumbbellWorld world(topo, tcp::TcpConfig{},
                             900 + queue + static_cast<std::uint64_t>(s));

    traffic::TrafficConfig tc;
    tc.mean_interarrival_s = 2.5;  // lighter than Table 2's load
    tc.seed = 900 + queue * 10 + static_cast<std::uint64_t>(s);
    traffic::TrafficSource source(world.left(0), world.right(0), tc);
    source.start();

    traffic::BulkTransfer::Config lg;
    lg.bytes = 1_MB;
    lg.port = 5001;
    lg.cc = &large.ops();
    large.apply(lg.tcp.emplace());
    traffic::BulkTransfer t_large(world.left(1), world.right(1), lg);

    traffic::BulkTransfer::Config sm;
    sm.bytes = 300_KB;
    sm.port = 5002;
    sm.cc = &small.ops();
    small.apply(sm.tcp.emplace());
    sm.start_delay = sim::Time::seconds(1.0 + 0.5 * s);
    traffic::BulkTransfer t_small(world.left(2), world.right(2), sm);

    world.sim().run_until(sim::Time::seconds(400));
    RunOutcome out;
    if (!t_small.done() || !t_large.done()) return out;
    out.done = true;
    out.small_thr = t_small.throughput_kBps();
    out.combined_retx = (t_small.result().sender_stats.bytes_retransmitted +
                         t_large.result().sender_stats.bytes_retransmitted) /
                        1024.0;
    return out;
  });
  Cell cell;
  for (const RunOutcome& out : outcomes) {
    if (!out.done) continue;
    cell.small_thr.add(out.small_thr);
    cell.combined_retx.add(out.combined_retx);
  }
  return cell;
}

}  // namespace

int main() {
  bench::header("§4.3 ablation", "One-on-one transfers WITH background load");
  const int seeds = bench::scaled(4);
  std::printf("%d runs per combination\n\n", seeds * 2);

  exp::Table table(
      {"small/large", "small thr KB/s", "combined retx KB"}, 17);
  for (const auto& [small, large] :
       {std::pair{AlgoSpec::reno(), AlgoSpec::reno()},
        std::pair{AlgoSpec::reno(), AlgoSpec::vegas()},
        std::pair{AlgoSpec::vegas(), AlgoSpec::reno()},
        std::pair{AlgoSpec::vegas(), AlgoSpec::vegas()}}) {
    const Cell c = run_combo(small, large, seeds);
    table.add_row({small.label() + "/" + large.label(),
                   exp::Table::num(c.small_thr.mean()),
                   exp::Table::num(c.combined_retx.mean())});
  }
  table.print();
  bench::note("\nShape check: as in Table 1, Reno keeps (or improves) its\n"
              "throughput when the 1MB competitor is Vegas, and combined\n"
              "retransmissions drop sharply with each Reno->Vegas swap.");
  return 0;
}
