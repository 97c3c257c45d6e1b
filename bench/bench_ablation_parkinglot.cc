// Multi-bottleneck fairness: the parking lot.
//
// The paper's fairness study (§4.3) shares ONE bottleneck.  The classic
// harder case is a long flow crossing several bottlenecks, each also
// loaded by a local one-hop flow: loss-based control punishes the long
// flow once per congested hop, while Vegas only pays in round-trip
// queueing delay.  This bench measures the long flow's share when every
// flow runs the same engine.
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "cc/registry.h"
#include "net/topology.h"
#include "stats/summary.h"
#include "tcp/stack.h"
#include "traffic/bulk.h"

using namespace vegas;
using cc::AlgoSpec;

namespace {

struct Outcome {
  double long_kBps;
  double cross_mean_kBps;
  bool completed;
};

Outcome run_lot(AlgoSpec spec, int segments, std::uint64_t seed) {
  sim::Simulator sim;
  net::ParkingLotConfig cfg;
  cfg.segments = segments;
  auto lot = net::build_parking_lot(sim, cfg);

  std::vector<std::unique_ptr<tcp::Stack>> stacks;
  auto stack_for = [&](net::Host& h, const char* tag) -> tcp::Stack& {
    stacks.push_back(std::make_unique<tcp::Stack>(
        sim, h, tcp::TcpConfig{},
        rng::derive_seed(seed, std::string(tag) + h.name())));
    return *stacks.back();
  };

  tcp::Stack& long_src = stack_for(*lot->long_src, "s");
  tcp::Stack& long_dst = stack_for(*lot->long_dst, "d");
  traffic::BulkTransfer::Config bt;
  bt.bytes = 2_MB;
  bt.port = 5001;
  bt.cc = &spec.ops();
  spec.apply(bt.tcp.emplace());
  traffic::BulkTransfer long_flow(long_src, long_dst, bt);

  std::vector<std::unique_ptr<traffic::BulkTransfer>> cross_flows;
  rng::Stream jitter(rng::derive_seed(seed, "start"));
  for (auto& pair : lot->cross) {
    traffic::BulkTransfer::Config xc;
    xc.bytes = 2_MB;
    xc.port = 5001;
    xc.cc = &spec.ops();
    spec.apply(xc.tcp.emplace());
    xc.start_delay = sim::Time::seconds(jitter.uniform(0.0, 0.5));
    cross_flows.push_back(std::make_unique<traffic::BulkTransfer>(
        stack_for(*pair.src, "xs"), stack_for(*pair.dst, "xd"), xc));
  }

  sim.run_until(sim::Time::seconds(600));

  Outcome out{};
  out.completed = long_flow.done();
  stats::Running cross;
  for (auto& f : cross_flows) {
    out.completed = out.completed && f->done();
    cross.add(f->throughput_kBps());
  }
  out.long_kBps = long_flow.throughput_kBps();
  out.cross_mean_kBps = cross.mean();
  return out;
}

}  // namespace

int main() {
  bench::header("Extension ablation",
                "Parking lot: one long flow vs per-segment cross flows");
  const int seeds = bench::scaled(3);
  bench::note("2 MB per flow, 200 KB/s per segment; fair share for the\n"
              "long flow would be ~100 KB/s regardless of segment count.\n");

  exp::Table table({"segments", "engine", "long KB/s", "cross KB/s",
                    "long/cross"},
                   12);
  for (const int segments : {2, 4}) {
    for (const AlgoSpec& spec : {AlgoSpec::reno(), AlgoSpec::vegas(1, 3)}) {
      const auto outcomes =
          bench::sweep(static_cast<std::size_t>(seeds), [&](int s) {
            return run_lot(spec, segments, 3000 + static_cast<std::uint64_t>(s));
          });
      stats::Running lng, cross;
      for (const Outcome& o : outcomes) {
        if (!o.completed) continue;
        lng.add(o.long_kBps);
        cross.add(o.cross_mean_kBps);
      }
      table.add_row({std::to_string(segments), spec.label(),
                     exp::Table::num(lng.mean()),
                     exp::Table::num(cross.mean()),
                     exp::Table::num(lng.mean() / cross.mean())});
    }
  }
  table.print();
  bench::note(
      "\nShape checks:\n"
      " - with loss-based Reno the long flow's share DECAYS as segments\n"
      "   are added (it risks a loss at every hop);\n"
      " - Vegas keeps the long flow closer to the single-bottleneck\n"
      "   share (its penalty is additive queueing delay, not\n"
      "   multiplicative loss probability).");
  return 0;
}
