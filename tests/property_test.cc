// Property sweeps: invariants that must hold across random seeds, loss
// processes, engines and topologies — the widest net in the suite.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "cc/registry.h"
#include "exp/scenarios.h"
#include "exp/world.h"
#include "net/loss.h"
#include "stats/fairness.h"
#include "trace/analyzer.h"
#include "trace/conn_tracer.h"
#include "traffic/bulk.h"
#include "traffic/source.h"

namespace vegas {
namespace {

using namespace sim::literals;

// ------------------------------------------------------------ delivery

struct ChaosCase {
  std::uint64_t seed;
  const char* algo;  // cc registry name
  bool sack;
};

// Names the ctest id; gtest's default prints raw bytes, `algo`'s address
// and any padding included, which move between builds.
void PrintTo(const ChaosCase& c, std::ostream* os) {
  *os << c.algo << (c.sack ? " sack" : "") << " seed " << c.seed;
}

class ChaosTransferTest : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosTransferTest, ByteExactUnderLossAndReordering) {
  const auto param = GetParam();
  net::DumbbellConfig topo;
  topo.pairs = 1;
  topo.bottleneck_queue = 12;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, param.seed);
  world.topo().bottleneck_fwd->set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.04, param.seed * 3 + 1));
  world.topo().bottleneck_fwd->set_jitter(8_ms, param.seed * 5 + 2);
  world.topo().bottleneck_rev->set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.02, param.seed * 7 + 3));
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.sack_enabled = param.sack;
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 150_KB;
  cfg.port = 5001;
  cfg.tcp = tcp_cfg;
  cfg.cc = cc::find(param.algo);
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(900));
  ASSERT_TRUE(t.done()) << "seed=" << param.seed;
  EXPECT_EQ(t.result().bytes_delivered, 150_KB);
}

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> cases;
  const char* const algos[] = {"reno", "vegas", "newreno"};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cases.push_back({seed, algos[seed % 3], seed % 2 == 0});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, ChaosTransferTest,
                         ::testing::ValuesIn(chaos_cases()),
                         [](const auto& info) {
                           return cc::find(info.param.algo)->label +
                                  std::string(info.param.sack ? "Sack" : "") +
                                  "Seed" + std::to_string(info.param.seed);
                         });

// ------------------------------------------------------- Vegas invariants

class VegasInvariantTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VegasInvariantTest, CamAndWindowInvariantsUnderLoad) {
  const std::uint64_t seed = GetParam();
  net::DumbbellConfig topo;
  topo.bottleneck_queue = 10;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, seed);

  traffic::TrafficConfig tc;
  tc.seed = seed;
  traffic::TrafficSource source(world.left(0), world.right(0), tc);
  source.start();

  trace::ConnTracer tracer;
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 500_KB;
  cfg.port = 5001;
  cfg.cc = cc::find("vegas");
  cfg.observer = &tracer;
  cfg.start_delay = sim::Time::seconds(2);
  traffic::BulkTransfer t(world.left(1), world.right(1), cfg);
  world.sim().run_until(sim::Time::seconds(600));
  ASSERT_TRUE(t.done()) << "seed=" << seed;

  trace::Analyzer az(tracer.buffer());
  // Diff >= 0 on every CAM sample (§3.2's definition).
  for (const auto& p : az.series(trace::EventKind::kCamDiff)) {
    EXPECT_GE(p.value, 0.0);
  }
  // cwnd never below 1 MSS, ssthresh never below 2 MSS.
  for (const auto& p : az.series(trace::EventKind::kCwnd)) {
    EXPECT_GE(p.value, 1024.0);
  }
  for (const auto& p : az.series(trace::EventKind::kSsthresh)) {
    EXPECT_GE(p.value, 2 * 1024.0);
  }
  // In-flight never exceeds the send window the observer reported.
  const auto flight = az.series(trace::EventKind::kInFlight);
  for (const auto& p : flight) {
    EXPECT_LE(p.value, 64.0 * 1024.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VegasInvariantTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------------------- fairness

class FairnessBoundsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FairnessBoundsTest, JainIndexWithinMathematicalBounds) {
  exp::FairnessParams p;
  p.connections = 6;
  p.bytes_each = 512_KB;
  p.algo = GetParam() % 2 == 0 ? cc::AlgoSpec::vegas()
                               : cc::AlgoSpec::reno();
  p.seed = GetParam();
  p.timeout_s = 600;
  const auto r = exp::run_fairness(p);
  ASSERT_TRUE(r.all_completed);
  EXPECT_GE(r.jain, 1.0 / 6.0);
  EXPECT_LE(r.jain, 1.0 + 1e-9);
  // No single connection can beat the bottleneck.  (The SUM of
  // per-connection rates may legitimately exceed it: each is measured
  // over its own start..finish interval and completions stagger.)
  for (const double thr : r.throughput_kBps) {
    EXPECT_LE(thr, 200.0 * 1.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairnessBoundsTest,
                         ::testing::Values(11, 12, 13, 14));

// ------------------------------------------------- sim-wide conservation

TEST(ConservationTest, NothingDeliveredThatWasNeverSent) {
  // Sum of payload delivered at all hosts <= payload offered, under loss.
  net::DumbbellConfig topo;
  topo.pairs = 2;
  topo.bottleneck_queue = 8;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, 99);
  world.topo().bottleneck_fwd->set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.05, 123));
  traffic::BulkTransfer::Config a;
  a.bytes = 200_KB;
  a.port = 5001;
  traffic::BulkTransfer ta(world.left(0), world.right(0), a);
  traffic::BulkTransfer::Config b;
  b.bytes = 200_KB;
  b.port = 5002;
  b.cc = cc::find("vegas");
  traffic::BulkTransfer tb(world.left(1), world.right(1), b);
  world.sim().run_until(sim::Time::seconds(600));
  ASSERT_TRUE(ta.done());
  ASSERT_TRUE(tb.done());
  // Delivered exactly the offered bytes, despite retransmissions well in
  // excess of zero (no duplication into the app stream).
  EXPECT_EQ(ta.result().bytes_delivered, 200_KB);
  EXPECT_EQ(tb.result().bytes_delivered, 200_KB);
  EXPECT_GT(ta.result().sender_stats.bytes_retransmitted +
                tb.result().sender_stats.bytes_retransmitted,
            0);
}

}  // namespace
}  // namespace vegas
