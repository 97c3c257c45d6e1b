// Micro-benchmark for §3.2's footnote 3: the CPU overhead of Vegas'
// congestion-avoidance bookkeeping, measured on SparcStations in the
// paper ("less than 5%").  We time the per-ACK processing path of the
// Reno and Vegas engines directly (google-benchmark), plus a whole
// simulated transfer of each flavour.
#include <benchmark/benchmark.h>

#include <memory>

#include "cc/registry.h"
#include "exp/world.h"
#include "tcp/sender.h"
#include "traffic/bulk.h"

using namespace vegas;

namespace {

/// Drives one sender through send->ACK cycles with no network, so the
/// measurement isolates protocol bookkeeping.
void ack_processing_loop(benchmark::State& state, const char* module) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    tcp::TcpSender snd(tcp::TcpConfig{}, *cc::find(module));
    tcp::TcpSender::Env env;
    env.sim = &sim;
    env.transmit = [](tcp::StreamOffset, ByteCount, bool) {};
    snd.attach(std::move(env));
    snd.open(64_KB);
    snd.app_write(1 << 22);
    state.ResumeTiming();

    tcp::StreamOffset acked = 0;
    for (int i = 0; i < 2000; ++i) {
      // Advance time ~1 ms per ACK so Vegas' clock reads are realistic.
      sim.schedule(sim::Time::milliseconds(1), [] {});
      sim.run_until(sim.now() + sim::Time::milliseconds(1));
      acked += 1024;
      if (acked > snd.snd_nxt()) acked = snd.snd_nxt();
      snd.on_ack(acked, 64_KB, 0);
    }
    benchmark::DoNotOptimize(snd.cwnd());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}

void BM_RenoAckProcessing(benchmark::State& state) {
  ack_processing_loop(state, "reno");
}
BENCHMARK(BM_RenoAckProcessing);

void BM_VegasAckProcessing(benchmark::State& state) {
  ack_processing_loop(state, "vegas");
}
BENCHMARK(BM_VegasAckProcessing);

void end_to_end_transfer(benchmark::State& state, const char* algo) {
  for (auto _ : state) {
    net::DumbbellConfig topo;
    topo.pairs = 1;
    topo.bottleneck_queue = 10;
    exp::DumbbellWorld world(topo, tcp::TcpConfig{}, 1);
    traffic::BulkTransfer::Config cfg;
    cfg.bytes = 1_MB;
    cfg.port = 5001;
    cfg.cc = cc::find(algo);
    traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
    world.sim().run_until(sim::Time::seconds(300));
    benchmark::DoNotOptimize(t.done());
  }
}

void BM_RenoTransfer1MB(benchmark::State& state) {
  end_to_end_transfer(state, "reno");
}
BENCHMARK(BM_RenoTransfer1MB)->Unit(benchmark::kMillisecond);

void BM_VegasTransfer1MB(benchmark::State& state) {
  end_to_end_transfer(state, "vegas");
}
BENCHMARK(BM_VegasTransfer1MB)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
