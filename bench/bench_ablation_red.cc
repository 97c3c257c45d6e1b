// Queue-discipline ablation: drop-tail (the paper's routers) vs RED.
//
// §6 observes that Vegas' advantage depends on router buffer dynamics:
// Reno "increases its window size until there are losses — which means
// all the router buffers are being used", while Vegas caps its standing
// queue at beta buffers.  RED attacks the same problem from the router
// side; this bench measures how each sender pairs with each discipline.
#include <memory>

#include "bench/bench_util.h"
#include "cc/registry.h"
#include "exp/world.h"
#include "net/red.h"
#include "stats/summary.h"
#include "traffic/bulk.h"
#include "traffic/source.h"

using namespace vegas;
using cc::AlgoSpec;

namespace {

struct Agg {
  stats::Running thr, retx, cto, avgq;
};

struct RunOutcome {
  bool done = false;
  double thr = 0, retx = 0, cto = 0, avgq = 0;
};

Agg run_cell(AlgoSpec spec, bool red, int seeds) {
  const auto outcomes = bench::sweep(
      static_cast<std::size_t>(seeds), [&](int s) {
        net::DumbbellConfig topo;
        topo.bottleneck_queue = 20;
        exp::DumbbellWorld world(topo, tcp::TcpConfig{},
                                 2400 + static_cast<std::uint64_t>(s));
        if (red) {
          net::RedConfig rc;
          rc.capacity_packets = 20;
          rc.min_thresh = 4;
          rc.max_thresh = 12;
          rc.max_drop_prob = 0.1;
          rc.seed = 2500 + static_cast<std::uint64_t>(s);
          world.topo().bottleneck_fwd->set_queue(
              std::make_unique<net::RedQueue>(rc));
        }
        traffic::TrafficConfig tc;
        tc.seed = 2400 + static_cast<std::uint64_t>(s);
        traffic::TrafficSource source(world.left(0), world.right(0), tc);
        source.start();

        traffic::BulkTransfer::Config cfg;
        cfg.bytes = 1_MB;
        cfg.port = 5001;
        cfg.cc = &spec.ops();
        spec.apply(cfg.tcp.emplace());
        cfg.start_delay = sim::Time::seconds(5);
        traffic::BulkTransfer t(world.left(1), world.right(1), cfg);
        world.sim().run_until(sim::Time::seconds(400));
        RunOutcome out;
        if (!t.done()) return out;
        out.done = true;
        out.thr = t.throughput_kBps();
        out.retx = t.result().sender_stats.bytes_retransmitted / 1024.0;
        out.cto = static_cast<double>(t.result().sender_stats.coarse_timeouts);
        out.avgq = world.topo().fwd_monitor.time_average(t.result().start,
                                                         t.result().end);
        return out;
      });
  Agg agg;
  for (const RunOutcome& out : outcomes) {
    if (!out.done) continue;
    agg.thr.add(out.thr);
    agg.retx.add(out.retx);
    agg.cto.add(out.cto);
    agg.avgq.add(out.avgq);
  }
  return agg;
}

}  // namespace

int main() {
  bench::header("Extension ablation",
                "Drop-tail vs RED at the bottleneck (1MB vs tcplib load)");
  const int seeds = bench::scaled(6);

  exp::Table table({"variant", "thr KB/s", "retx KB", "coarse TOs",
                    "avg queue"},
                   13);
  for (const AlgoSpec& spec : {AlgoSpec::reno(), AlgoSpec::vegas(1, 3)}) {
    for (const bool red : {false, true}) {
      const Agg agg = run_cell(spec, red, seeds);
      table.add_row({spec.label() + (red ? "+RED" : "+DropTail"),
                     exp::Table::num(agg.thr.mean()),
                     exp::Table::num(agg.retx.mean()),
                     exp::Table::num(agg.cto.mean()),
                     exp::Table::num(agg.avgq.mean(), 1)});
    }
  }
  table.print();

  bench::note(
      "\nShape checks:\n"
      " - under Reno the bottleneck's standing occupancy is high with\n"
      "   drop-tail; RED trims the average queue at the cost of extra\n"
      "   early drops (similar throughput);\n"
      " - Vegas needs no help from the router: it already holds the\n"
      "   queue near its beta threshold under drop-tail, so RED changes\n"
      "   little — sender-side and router-side attacks on queueing are\n"
      "   substitutes, not complements (the paper's §6 buffer point).");
  return 0;
}
