// Paper-shape integration tests: the qualitative claims of §4 must hold
// in this reproduction (exact numbers are checked by the benches).
#include <gtest/gtest.h>

#include "check/invariant_checker.h"
#include "exp/scenarios.h"
#include "stats/fairness.h"
#include "tcp/config.h"

namespace vegas::exp {
namespace {

using cc::AlgoSpec;

// Every scenario run is shadowed by a protocol-invariant checker on its
// measured connection; the Vegas-only rules engage when the observed
// algorithm is Vegas.
check::InvariantOptions opts_for(const AlgoSpec& s) {
  return check::InvariantOptions::for_config(
      tcp::TcpConfig{}, s.name == "vegas");
}

OneOnOneResult run_one_on_one_checked(OneOnOneParams p) {
  check::InvariantChecker ch(opts_for(p.large));
  p.observer = &ch;
  auto r = run_one_on_one(p);
  ch.finish();
  EXPECT_TRUE(ch.ok()) << ch.report();
  return r;
}

BackgroundResult run_background_checked(BackgroundParams p) {
  check::InvariantChecker ch(opts_for(p.transfer));
  p.observer = &ch;
  auto r = run_background(p);
  ch.finish();
  EXPECT_TRUE(ch.ok()) << ch.report();
  return r;
}

traffic::TransferResult run_wan_checked(WanParams p) {
  check::InvariantChecker ch(opts_for(p.algo));
  p.observer = &ch;
  auto r = run_wan(p);
  ch.finish();
  EXPECT_TRUE(ch.ok()) << ch.report();
  return r;
}

FairnessResult run_fairness_checked(FairnessParams p) {
  check::InvariantChecker ch(opts_for(p.algo));
  p.observer = &ch;
  auto r = run_fairness(p);
  ch.finish();
  EXPECT_TRUE(ch.ok()) << ch.report();
  return r;
}

TEST(PaperShapeTest, VegasBeatsRenoSolo) {
  // Figures 6 vs 7: same network, no other traffic, queue of 10.
  auto run = [](AlgoSpec spec) {
    net::DumbbellConfig topo;
    topo.pairs = 1;
    topo.bottleneck_queue = 10;
    DumbbellWorld world(topo, tcp::TcpConfig{}, 1);
    check::InvariantChecker ch(opts_for(spec));
    traffic::BulkTransfer::Config bt;
    bt.bytes = 1_MB;
    bt.port = 5001;
    bt.cc = &spec.ops();
    spec.apply(bt.tcp.emplace());
    bt.observer = &ch;
    traffic::BulkTransfer t(world.left(0), world.right(0), bt);
    world.sim().run_until(sim::Time::seconds(300));
    EXPECT_TRUE(t.done());
    ch.finish();
    EXPECT_TRUE(ch.ok()) << ch.report();
    return t.result();
  };
  const auto reno = run(AlgoSpec::reno());
  const auto vegas = run(AlgoSpec::vegas());
  // Paper: 105 vs 169 KB/s; we assert the ordering with healthy margin.
  EXPECT_GT(vegas.throughput_Bps(), reno.throughput_Bps() * 1.2);
  // Vegas avoids losses entirely here; Reno needs them to find the
  // bandwidth (§3.2).
  EXPECT_EQ(vegas.sender_stats.bytes_retransmitted, 0);
  EXPECT_GT(reno.sender_stats.bytes_retransmitted, 0);
  EXPECT_EQ(vegas.sender_stats.coarse_timeouts, 0u);
}

TEST(PaperShapeTest, OneOnOneVegasDoesNotHurtReno) {
  // Table 1's headline: Reno's throughput is roughly unchanged whether
  // the competing large transfer is Reno or Vegas, while total
  // retransmissions drop.
  double reno_vs_reno = 0, reno_vs_vegas = 0;
  ByteCount retx_rr = 0, retx_vr = 0;
  int runs = 0;
  for (const std::size_t queue : {15u, 20u}) {
    for (const double delay : {0.5, 1.5}) {
      OneOnOneParams p;
      p.queue = queue;
      p.small_delay_s = delay;
      p.seed = 10 * queue + static_cast<std::uint64_t>(delay * 10);
      p.large = AlgoSpec::reno();
      p.small = AlgoSpec::reno();
      const auto rr = run_one_on_one_checked(p);
      EXPECT_TRUE(rr.small.completed);
      reno_vs_reno += rr.small.throughput_Bps();
      retx_rr += rr.large.sender_stats.bytes_retransmitted +
                 rr.small.sender_stats.bytes_retransmitted;

      p.large = AlgoSpec::vegas();
      const auto vr = run_one_on_one_checked(p);
      EXPECT_TRUE(vr.small.completed);
      reno_vs_vegas += vr.small.throughput_Bps();
      retx_vr += vr.large.sender_stats.bytes_retransmitted +
                 vr.small.sender_stats.bytes_retransmitted;
      ++runs;
    }
  }
  reno_vs_reno /= runs;
  reno_vs_vegas /= runs;
  // Reno keeps at least ~70% of its Reno-vs-Reno throughput when the
  // competitor is Vegas (the paper actually measures a small GAIN).
  EXPECT_GT(reno_vs_vegas, reno_vs_reno * 0.7);
  // Combined losses drop when Vegas replaces one Reno (52 KB -> 19 KB in
  // Table 1's Vegas/Reno column).
  EXPECT_LT(retx_vr, retx_rr);
}

TEST(PaperShapeTest, VegasOnVegasNearlyLossFree) {
  OneOnOneParams p;
  p.large = AlgoSpec::vegas();
  p.small = AlgoSpec::vegas();
  p.queue = 15;
  p.small_delay_s = 1.0;
  const auto r = run_one_on_one_checked(p);
  ASSERT_TRUE(r.large.completed);
  ASSERT_TRUE(r.small.completed);
  // Table 1: Vegas/Vegas retransmits < 1 KB combined on average.
  EXPECT_LE(r.large.sender_stats.bytes_retransmitted +
                r.small.sender_stats.bytes_retransmitted,
            4 * 1024);
}

TEST(PaperShapeTest, BackgroundTrafficVegasWins) {
  // Table 2's shape: Vegas beats Reno against tcplib background load,
  // with fewer retransmitted kilobytes and fewer coarse timeouts.
  BackgroundParams p;
  p.queue = 10;
  p.seed = 42;
  p.transfer = AlgoSpec::reno();
  const auto reno = run_background_checked(p);
  ASSERT_TRUE(reno.transfer.completed);
  p.transfer = AlgoSpec::vegas(1, 3);
  const auto vegas13 = run_background_checked(p);
  ASSERT_TRUE(vegas13.transfer.completed);
  EXPECT_GT(vegas13.transfer.throughput_Bps(),
            reno.transfer.throughput_Bps());
  EXPECT_LE(vegas13.transfer.sender_stats.coarse_timeouts,
            reno.transfer.sender_stats.coarse_timeouts);
}

TEST(PaperShapeTest, FairnessIndexReasonable) {
  // §4.3: Jain's index for 4 equal-delay connections.
  FairnessParams p;
  p.connections = 4;
  p.bytes_each = 1_MB;  // smaller than the paper's 8 MB to keep tests fast
  p.algo = AlgoSpec::vegas();
  p.timeout_s = 600;
  const auto vegas = run_fairness_checked(p);
  ASSERT_TRUE(vegas.all_completed);
  EXPECT_GE(vegas.jain, 0.75);
  p.algo = AlgoSpec::reno();
  const auto reno = run_fairness_checked(p);
  ASSERT_TRUE(reno.all_completed);
  EXPECT_GE(reno.jain, 0.75);
}

TEST(PaperShapeTest, SixteenConnectionsStable) {
  // §4.3: no stability collapse with 16 connections over 20 buffers;
  // Vegas sees no more coarse timeouts than Reno.
  FairnessParams p;
  p.connections = 16;
  p.bytes_each = 512_KB;  // scaled down from 2 MB for test runtime
  p.queue = 20;
  p.timeout_s = 1200;
  p.algo = AlgoSpec::reno();
  const auto reno = run_fairness_checked(p);
  ASSERT_TRUE(reno.all_completed);
  p.algo = AlgoSpec::vegas();
  const auto vegas = run_fairness_checked(p);
  ASSERT_TRUE(vegas.all_completed);
  EXPECT_LE(vegas.coarse_timeouts, reno.coarse_timeouts);
  EXPECT_GE(vegas.jain, 1.0 / 16.0);
}

TEST(PaperShapeTest, WanTransferVegasWins) {
  // Tables 4-5 shape on the simulated 17-hop path.
  WanParams p;
  p.seed = 11;
  p.bytes = 512_KB;
  p.algo = AlgoSpec::reno();
  const auto reno = run_wan_checked(p);
  ASSERT_TRUE(reno.completed);
  p.algo = AlgoSpec::vegas(1, 3);
  const auto vegas = run_wan_checked(p);
  ASSERT_TRUE(vegas.completed);
  EXPECT_GT(vegas.throughput_Bps(), reno.throughput_Bps());
  EXPECT_LE(vegas.sender_stats.bytes_retransmitted,
            reno.sender_stats.bytes_retransmitted);
}

TEST(ScenarioTest, AlgoSpecLabels) {
  EXPECT_EQ(AlgoSpec::reno().label(), "Reno");
  EXPECT_EQ(AlgoSpec::vegas(1, 3).label(), "Vegas-1,3");
  EXPECT_EQ(AlgoSpec::vegas(2, 4).label(), "Vegas-2,4");
}

TEST(ScenarioTest, RunsAreDeterministic) {
  BackgroundParams p;
  p.seed = 77;
  p.transfer = AlgoSpec::vegas();
  const auto a = run_background_checked(p);
  const auto b = run_background_checked(p);
  EXPECT_EQ(a.transfer.end.ns(), b.transfer.end.ns());
  EXPECT_EQ(a.transfer.sender_stats.bytes_retransmitted,
            b.transfer.sender_stats.bytes_retransmitted);
}

}  // namespace
}  // namespace vegas::exp
