// Simulated "Internet" run: a transfer over the 17-hop WAN chain that
// substitutes for the paper's UA->NIH path (Tables 4-5), with tcplib
// cross-traffic loading every hop.
//
//   ./internet_path [reno|vegas] [size_kb=1024] [seed=1]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cc/registry.h"
#include "exp/scenarios.h"

using namespace vegas;

int main(int argc, char** argv) {
  const std::string algo_name = argc > 1 ? argv[1] : "vegas";
  exp::WanParams p;
  p.bytes = (argc > 2 ? std::atoll(argv[2]) : 1024) * 1024;
  p.seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

  if (algo_name == "reno") {
    p.algo = cc::AlgoSpec::reno();
  } else if (algo_name == "vegas") {
    p.algo = cc::AlgoSpec::vegas(1, 3);
  } else {
    const tcp::CongOps* ops = cc::find(algo_name);
    if (ops == nullptr) {
      std::fprintf(stderr, "unknown algorithm '%s'; did you mean '%s'?\n",
                   algo_name.c_str(), cc::closest(algo_name).c_str());
      return 1;
    }
    p.algo = cc::AlgoSpec::named(std::string(ops->name));
  }

  std::printf("17-hop chain, 230 KB/s narrow segment, tcplib cross "
              "traffic on every hop...\n");
  const auto r = exp::run_wan(p);
  std::printf("%s %lld KB: %s\n", p.algo.label().c_str(),
              static_cast<long long>(p.bytes / 1024),
              r.completed ? "completed" : "DID NOT FINISH");
  std::printf("  throughput      %.1f KB/s\n", r.throughput_Bps() / 1024.0);
  std::printf("  retransmitted   %.1f KB\n",
              r.sender_stats.bytes_retransmitted / 1024.0);
  std::printf("  coarse timeouts %llu\n",
              static_cast<unsigned long long>(r.sender_stats.coarse_timeouts));
  std::printf("  duration        %.1f s simulated\n", r.duration_s());
  return r.completed ? 0 : 2;
}
