// Canned experiment scenarios — one function per experiment family.
// Benches sweep parameters and average; tests assert on shapes.
#pragma once

#include <string>
#include <vector>

#include "cc/registry.h"
#include "exp/world.h"
#include "tcp/stack.h"
#include "traffic/bulk.h"
#include "traffic/source.h"

namespace vegas::exp {

// ---------------------------------------------------------------- Table 1

struct OneOnOneParams {
  cc::AlgoSpec large;       // 1 MB transfer
  cc::AlgoSpec small;       // 300 KB transfer, starts later
  ByteCount large_bytes = 1_MB;
  ByteCount small_bytes = 300_KB;
  double small_delay_s = 1.0;  // 0..2.5 in the paper's sweep
  std::size_t queue = 15;      // 15 and 20 in the paper
  std::uint64_t seed = 1;
  double timeout_s = 300.0;
  /// Observes the large transfer's connection (e.g. a trace::ConnTracer
  /// or check::InvariantChecker).
  tcp::ConnectionObserver* observer = nullptr;
};

struct OneOnOneResult {
  traffic::TransferResult large;
  traffic::TransferResult small;
};

OneOnOneResult run_one_on_one(const OneOnOneParams& p);

// ------------------------------------------------------------ Tables 2, 3

struct BackgroundParams {
  cc::AlgoSpec transfer;  // the measured 1 MB connection
  cc::AlgoSpec background = cc::AlgoSpec::reno();  // tcplib conversations
  ByteCount bytes = 1_MB;
  std::size_t queue = 10;  // 10, 15, 20 in the paper
  std::uint64_t seed = 1;
  /// Conversation arrival rate.  0.4 s reproduces the paper's load: the
  /// background claims ~85 KB/s of the 200 KB/s bottleneck (Table 3
  /// reports 68-85), Reno suffers Table 2's loss-and-timeout regime, and
  /// the measured-transfer numbers bracket the paper's 58/89 KB/s.
  double mean_interarrival_s = 0.4;
  bool two_way = false;    // also run tcplib from Host3b -> Host3a (§4.3)
  double transfer_start_s = 5.0;  // let background warm up first
  double timeout_s = 400.0;
  ByteCount send_buffer = 50_KB;  // §4.3 sweeps 5..50 KB
  /// Enable RFC 2018 selective ACKs on the measured transfer (both its
  /// endpoints); the background keeps plain cumulative ACKs.
  bool transfer_sack = false;
  /// Observes the measured transfer's connection.
  tcp::ConnectionObserver* observer = nullptr;
};

/// Fixed horizon over which Table 3's background goodput is averaged.
inline constexpr double kBackgroundHorizonS = 60.0;

struct BackgroundResult {
  traffic::TransferResult transfer;
  traffic::TrafficSource::Stats traffic;
  /// Background goodput (delivered conversation payload) in bytes/s,
  /// measured at the traffic hosts' ingress links over the first
  /// kBackgroundHorizonS seconds (Table 3's metric; see scenarios.cc).
  double background_goodput_Bps = 0;
};

BackgroundResult run_background(const BackgroundParams& p);

// ------------------------------------------------------------ Tables 4, 5

struct WanParams {
  cc::AlgoSpec algo;
  ByteCount bytes = 1_MB;
  std::uint64_t seed = 1;
  /// Cross-traffic: a tcplib conversation source per covered hop.  The
  /// real UA->NIH background was responsive TCP, and delay-based Vegas
  /// only keeps its advantage against responsive competitors — raw
  /// datagram floods simply take whatever Vegas vacates (see DESIGN.md).
  double cross_interarrival_s = 2.0;
  double timeout_s = 600.0;
  /// Observes the measured transfer's connection.
  tcp::ConnectionObserver* observer = nullptr;
};

traffic::TransferResult run_wan(const WanParams& p);

// -------------------------------------------------------- §4.3 (fairness)

struct FairnessParams {
  int connections = 4;          // 2, 4, 16 in the paper
  cc::AlgoSpec algo;
  ByteCount bytes_each = 2_MB;  // 8 MB for 2/4 conns, 2 MB for 16
  bool unequal_delay = false;   // half the connections get 2x prop delay
  std::size_t queue = 20;
  std::uint64_t seed = 1;
  double timeout_s = 2000.0;
  /// Observes the first connection (all connections run the same
  /// algorithm, so one instrumented member represents the group).
  tcp::ConnectionObserver* observer = nullptr;
};

struct FairnessResult {
  std::vector<double> throughput_kBps;  // per connection
  double jain = 0;
  std::uint64_t coarse_timeouts = 0;
  ByteCount bytes_retransmitted = 0;
  bool all_completed = false;
};

FairnessResult run_fairness(const FairnessParams& p);

// ------------------------------------------------------- parallel sweeps
//
// Each cell is an independent seeded world, so sweeps fan out across
// cores via exp::ParallelRunner (src/exp/runner.h) with bit-identical
// results at any thread count.  `threads` <= 0 defers to VEGAS_THREADS /
// hardware concurrency.  Cells carrying an observer must point each cell
// at a DISTINCT observer instance (observers are driven concurrently).

std::vector<OneOnOneResult> run_one_on_one_sweep(
    const std::vector<OneOnOneParams>& cells, int threads = 0);
std::vector<BackgroundResult> run_background_sweep(
    const std::vector<BackgroundParams>& cells, int threads = 0);
std::vector<traffic::TransferResult> run_wan_sweep(
    const std::vector<WanParams>& cells, int threads = 0);
std::vector<FairnessResult> run_fairness_sweep(
    const std::vector<FairnessParams>& cells, int threads = 0);

}  // namespace vegas::exp
