// §6's closing SACK thought, answered: "selective ACKs have the
// potential to retransmit lost data sooner on FUTURE NETWORKS WITH LARGE
// DELAY/BANDWIDTH PRODUCTS.  It would be interesting to see how Vegas
// and the selective ACK mechanism work in tandem on such networks."
//
// The "future network": 2 MB/s x 100 ms RTT (a mid-90s transcontinental
// path; BDP ~200 KB, two hundred 1 KB segments in flight), random loss,
// send buffers big enough not to bind.  On such paths a coarse timeout
// costs seconds of idle pipe, and a single fast retransmit per window is
// nowhere near enough when bursts hit.
#include <memory>

#include "bench/bench_util.h"
#include "cc/registry.h"
#include "exp/world.h"
#include "net/loss.h"
#include "stats/summary.h"
#include "traffic/bulk.h"

using namespace vegas;
using cc::AlgoSpec;

namespace {

struct Agg {
  stats::Running thr, retx, cto;
  int incomplete = 0;
};

Agg run_cell(AlgoSpec spec, bool sack, int seeds) {
  Agg agg;
  for (int s = 0; s < seeds; ++s) {
    net::DumbbellConfig topo;
    topo.pairs = 1;
    topo.access_bandwidth = mbps_to_rate(100);
    topo.bottleneck_bandwidth = 2.0 * 1024 * 1024;  // 2 MB/s
    topo.bottleneck_delay = sim::Time::milliseconds(50);
    topo.bottleneck_queue = 100;
    exp::DumbbellWorld world(topo, tcp::TcpConfig{},
                             2600 + static_cast<std::uint64_t>(s));
    world.topo().bottleneck_fwd->set_loss_model(
        std::make_unique<net::BernoulliLoss>(
            0.002, 600 + static_cast<std::uint64_t>(s)));

    tcp::TcpConfig tcp_cfg;
    tcp_cfg.send_buffer = 512_KB;  // do not bind below the 200 KB BDP
    tcp_cfg.recv_buffer = 512_KB;
    tcp_cfg.sack_enabled = sack;
    traffic::BulkTransfer::Config cfg;
    cfg.bytes = 8_MB;
    cfg.port = 5001;
    cfg.tcp = tcp_cfg;
    cfg.cc = &spec.ops();
    spec.apply(*cfg.tcp);
    traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
    world.sim().run_until(sim::Time::seconds(900));
    if (!t.done()) {
      ++agg.incomplete;
      continue;
    }
    agg.thr.add(t.throughput_kBps());
    agg.retx.add(t.result().sender_stats.bytes_retransmitted / 1024.0);
    agg.cto.add(static_cast<double>(t.result().sender_stats.coarse_timeouts));
  }
  return agg;
}

}  // namespace

int main() {
  bench::header("§6 discussion",
                "Large delay x bandwidth product: Vegas and SACK in tandem");
  bench::note("2 MB/s x ~100 ms RTT (BDP ~200 KB), 0.2% random loss, 8 MB "
              "transfers.\n");
  const int seeds = bench::scaled(4);

  exp::Table table({"variant", "thr KB/s", "retx KB", "coarse TOs"}, 16);
  for (const AlgoSpec& spec : {AlgoSpec::reno(),
                              AlgoSpec::named("newreno"),
                              AlgoSpec::vegas(1, 3)}) {
    for (const bool sack : {false, true}) {
      const Agg agg = run_cell(spec, sack, seeds);
      table.add_row({spec.label() + (sack ? "+SACK" : ""),
                     exp::Table::num(agg.thr.mean()),
                     exp::Table::num(agg.retx.mean()),
                     exp::Table::num(agg.cto.mean())});
    }
  }
  table.print();
  bench::note(
      "\nShape checks (§6's conjecture):\n"
      " - on a long fat pipe, every engine without SACK bleeds throughput\n"
      "   whenever more than one segment per window is lost;\n"
      " - SACK's gain GROWS with the delay-bandwidth product (compare the\n"
      "   modest gaps in bench_discussion_sack's 200 KB/s tables);\n"
      " - Vegas+SACK pairs Vegas' low queueing with SACK's fast repair —\n"
      "   the tandem §6 anticipated (the BBR + SACK stack of the 2010s).");
  return 0;
}
