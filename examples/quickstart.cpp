// Quickstart: simulate one TCP Vegas bulk transfer across the paper's
// Figure-5 network and print what happened.
//
//   ./quickstart [reno|tahoe|vegas|dual|card|tris] [size_kb]
//
// This is the smallest complete use of the library: build a topology,
// put a TCP stack on each host, run a transfer, read the stats.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cc/registry.h"
#include "exp/world.h"
#include "traffic/bulk.h"

using namespace vegas;

int main(int argc, char** argv) {
  const std::string algo_name = argc > 1 ? argv[1] : "vegas";
  const tcp::CongOps* algo = cc::find(algo_name);
  if (algo == nullptr) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", algo_name.c_str());
    return 1;
  }
  const ByteCount bytes =
      (argc > 2 ? std::atoll(argv[2]) : 1024) * 1024;

  // 1. The network: three host pairs joined by a 200 KB/s bottleneck
  //    with a 10-packet drop-tail queue (the paper's Figure 5).
  net::DumbbellConfig topo;
  topo.bottleneck_queue = 10;

  // 2. TCP configuration: 1 KB segments, 50 KB send buffer — the
  //    paper's defaults (TcpConfig{} already encodes them).
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, /*seed=*/1);

  // 3. A bulk transfer from Host1a to Host1b using the chosen engine.
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = bytes;
  cfg.port = 5001;
  cfg.cc = algo;
  traffic::BulkTransfer transfer(world.left(0), world.right(0), cfg);

  // 4. Run to completion (cap at 10 simulated minutes).
  world.sim().run_until(sim::Time::seconds(600));

  const auto& r = transfer.result();
  std::printf("algorithm        : %s\n", r.algorithm.c_str());
  std::printf("transfer         : %lld KB %s\n",
              static_cast<long long>(r.bytes / 1024),
              r.completed ? "(completed)" : "(DID NOT FINISH)");
  std::printf("duration         : %.2f s (simulated)\n", r.duration_s());
  std::printf("throughput       : %.1f KB/s of a 200 KB/s bottleneck\n",
              r.throughput_Bps() / 1024.0);
  std::printf("retransmitted    : %.1f KB in %llu segments\n",
              r.sender_stats.bytes_retransmitted / 1024.0,
              static_cast<unsigned long long>(
                  r.sender_stats.segments_retransmitted));
  std::printf("coarse timeouts  : %llu\n",
              static_cast<unsigned long long>(
                  r.sender_stats.coarse_timeouts));
  std::printf("events simulated : %llu\n",
              static_cast<unsigned long long>(world.sim().events_executed()));
  return r.completed ? 0 : 2;
}
