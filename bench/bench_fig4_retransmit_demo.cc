// Reproduces Figure 4: "Example of Retransmit Mechanism".
//
// Two consecutive segments are deterministically dropped from a window.
// Reno must either collect 3 duplicate ACKs or eat a coarse timeout for
// the SECOND loss; Vegas retransmits on the first duplicate ACK whose
// fine-grained RTO has expired, and its first/second-fresh-ACK checks
// catch the follow-on loss with no duplicate ACKs at all.
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "cc/registry.h"
#include "exp/world.h"
#include "net/loss.h"
#include "trace/analyzer.h"
#include "trace/conn_tracer.h"
#include "traffic/bulk.h"

using namespace vegas;

namespace {

struct Outcome {
  traffic::TransferResult result;
  std::vector<std::pair<double, tcp::RetransmitTrigger>> repairs;
};

Outcome run_with_double_loss(const tcp::CongOps& algo) {
  Outcome out;
  net::DumbbellConfig topo;
  topo.pairs = 1;
  topo.bottleneck_queue = 30;  // losses come only from our injector
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, 4);
  world.topo().bottleneck_fwd->set_loss_model(
      std::make_unique<net::NthPacketLoss>(
          std::vector<std::uint64_t>{40, 41}));

  trace::ConnTracer tracer;
  traffic::BulkTransfer::Config bt;
  bt.bytes = 200_KB;
  bt.port = 5001;
  bt.cc = &algo;
  bt.observer = &tracer;
  traffic::BulkTransfer t(world.left(0), world.right(0), bt);
  world.sim().run_until(sim::Time::seconds(120));
  out.result = t.result();
  for (const auto& e : tracer.buffer().events()) {
    if (e.kind == trace::EventKind::kRetransmit) {
      out.repairs.emplace_back(e.t_us / 1e6,
                               static_cast<tcp::RetransmitTrigger>(e.aux));
    }
  }
  return out;
}

const char* trigger_name(tcp::RetransmitTrigger t) {
  switch (t) {
    case tcp::RetransmitTrigger::kCoarseTimeout: return "coarse timeout";
    case tcp::RetransmitTrigger::kThreeDupAcks: return "3 dup ACKs";
    case tcp::RetransmitTrigger::kFineDupAck:
      return "fine check on dup ACK (Vegas)";
    case tcp::RetransmitTrigger::kFineAfterRetransmit:
      return "fine check on fresh ACK after rtx (Vegas)";
  }
  return "?";
}

}  // namespace

int main() {
  bench::header("Figure 4", "Example of the Vegas retransmit mechanism");
  bench::note("Segments #40 and #41 are force-dropped from one window.\n");

  for (const char* name : {"reno", "vegas"}) {
    const tcp::CongOps& algo = *cc::find(name);
    const Outcome out = run_with_double_loss(algo);
    std::printf("%s: %.1f KB/s, %llu coarse timeouts, %.2f s transfer\n",
                algo.label,
                out.result.throughput_Bps() / 1024.0,
                static_cast<unsigned long long>(
                    out.result.sender_stats.coarse_timeouts),
                out.result.duration_s());
    for (const auto& [t, trig] : out.repairs) {
      std::printf("   t=%.3fs repair via %s\n", t, trigger_name(trig));
    }
    std::printf("\n");
  }
  bench::note("Shape check: Vegas repairs both losses via its fine-grained\n"
              "checks well before Reno's coarse clock would have fired.");
  return 0;
}
