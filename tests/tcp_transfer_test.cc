// End-to-end transfers over the simulated network: handshake, byte-exact
// delivery under loss, teardown, resets, and sequence wraparound.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "cc/registry.h"
#include "exp/world.h"
#include "net/loss.h"
#include "traffic/bulk.h"

namespace vegas {
namespace {

using namespace sim::literals;

exp::DumbbellWorld make_world(std::size_t queue = 10, int pairs = 1,
                              std::uint64_t seed = 1) {
  net::DumbbellConfig cfg;
  cfg.pairs = pairs;
  cfg.bottleneck_queue = queue;
  return exp::DumbbellWorld(cfg, tcp::TcpConfig{}, seed);
}

TEST(TransferTest, CleanLink100KBByteExact) {
  // Note: queue 10 < BDP means Reno's slow start overshoots and loses a
  // burst even with no competition (the paper's Figure 6 pathology), so
  // this asserts integrity and only loose timing.
  auto world = make_world();
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 100_KB;
  cfg.port = 5001;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(60_sec);
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 100_KB);
  EXPECT_GT(t.throughput_kBps(), 15.0);
}

TEST(TransferTest, DeepQueueCleanLinkHasNoRetransmissions) {
  auto world = make_world(/*queue=*/60);  // queue deeper than send buffer
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 200_KB;
  cfg.port = 5001;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(60_sec);
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 200_KB);
  EXPECT_EQ(t.result().sender_stats.bytes_retransmitted, 0);
  EXPECT_GT(t.throughput_kBps(), 80.0);
}

TEST(TransferTest, ConnectionsRetireAfterClose) {
  auto world = make_world();
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 10_KB;
  cfg.port = 5001;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(60_sec);
  ASSERT_TRUE(t.done());
  EXPECT_EQ(world.left(0).live_connections(), 0u);
  EXPECT_EQ(world.right(0).live_connections(), 0u);
}

TEST(TransferTest, SmallestTransferOneByte) {
  auto world = make_world();
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 1;
  cfg.port = 5001;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(30_sec);
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 1);
}

struct LossCase {
  double loss;
  const char* algo;  // cc registry name
};

// Names the ctest id; gtest's default prints raw bytes, `algo`'s address
// and any padding included, which move between builds.
void PrintTo(const LossCase& c, std::ostream* os) {
  *os << c.algo << " loss " << c.loss;
}

class LossyTransferTest : public ::testing::TestWithParam<LossCase> {};

TEST_P(LossyTransferTest, DeliveryIsByteExactUnderForwardLoss) {
  const auto param = GetParam();
  auto world = make_world(10, 1, 7);
  world.topo().bottleneck_fwd->set_loss_model(
      std::make_unique<net::BernoulliLoss>(param.loss, 1234));
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 200_KB;
  cfg.port = 5001;
  cfg.cc = cc::find(param.algo);
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(600));
  ASSERT_TRUE(t.done()) << "loss=" << param.loss;
  EXPECT_EQ(t.result().bytes_delivered, 200_KB);
  if (param.loss > 0.0) {
    EXPECT_GT(t.result().sender_stats.bytes_retransmitted, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossSweep, LossyTransferTest,
    ::testing::Values(LossCase{0.01, "reno"}, LossCase{0.05, "reno"},
                      LossCase{0.10, "reno"}, LossCase{0.01, "vegas"},
                      LossCase{0.05, "vegas"}, LossCase{0.10, "vegas"},
                      LossCase{0.05, "tahoe"}, LossCase{0.20, "reno"},
                      LossCase{0.20, "vegas"}));

TEST(TransferTest, SurvivesAckLoss) {
  auto world = make_world(10, 1, 9);
  world.topo().bottleneck_rev->set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.1, 99));
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 100_KB;
  cfg.port = 5001;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(600));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 100_KB);
}

TEST(TransferTest, SurvivesBurstLoss) {
  auto world = make_world(10, 1, 11);
  world.topo().bottleneck_fwd->set_loss_model(
      std::make_unique<net::BurstLoss>(0.01, 0.3, 5));
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 150_KB;
  cfg.port = 5001;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(600));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 150_KB);
}

TEST(TransferTest, PreciseDoubleLossRecovered) {
  // Figure 4's scenario: two consecutive segments lost from one window.
  auto world = make_world(20, 1, 13);
  world.topo().bottleneck_fwd->set_loss_model(
      std::make_unique<net::NthPacketLoss>(
          std::vector<std::uint64_t>{30, 31}));
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 100_KB;
  cfg.port = 5001;
  cfg.cc = cc::find("vegas");
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(300));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 100_KB);
  EXPECT_GE(t.result().sender_stats.segments_retransmitted, 2u);
}

TEST(TransferTest, ConnectToClosedPortResets) {
  auto world = make_world();
  bool reset = false;
  auto& conn = world.left(0).connect(world.right(0).node_id(), 4242);
  tcp::Connection::Callbacks cbs;
  cbs.on_reset = [&reset] { reset = true; };
  conn.set_callbacks(std::move(cbs));
  world.sim().run_until(30_sec);
  EXPECT_TRUE(reset);
  EXPECT_EQ(world.left(0).live_connections(), 0u);
}

TEST(TransferTest, SequenceNumberWraparound) {
  auto world = make_world(20);
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.fixed_isn = 0xffffff00u;  // wraps within the first 256 bytes
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 1_MB;  // crosses the 2^32 boundary early, then runs long
  cfg.port = 5001;
  cfg.tcp = tcp_cfg;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(300));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 1_MB);
}

TEST(TransferTest, WraparoundUnderLoss) {
  auto world = make_world(10, 1, 21);
  world.topo().bottleneck_fwd->set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.05, 4321));
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.fixed_isn = 0xfffffff0u;
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 300_KB;
  cfg.port = 5001;
  cfg.tcp = tcp_cfg;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(600));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 300_KB);
}

TEST(TransferTest, DelayedAckVariantStillExact) {
  auto world = make_world();
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.delayed_ack = true;
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 100_KB;
  cfg.port = 5001;
  cfg.tcp = tcp_cfg;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(120));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 100_KB);
}

TEST(TransferTest, TinyReceiveBufferThrottles) {
  auto world = make_world();
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.recv_buffer = 2 * 1024;  // two segments of window
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 50_KB;
  cfg.port = 5001;
  cfg.tcp = tcp_cfg;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(300));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 50_KB);
}

TEST(TransferTest, SimultaneousTransfersShareLink) {
  auto world = make_world(15, 2, 17);
  traffic::BulkTransfer::Config a;
  a.bytes = 300_KB;
  a.port = 5001;
  traffic::BulkTransfer ta(world.left(0), world.right(0), a);
  traffic::BulkTransfer::Config b;
  b.bytes = 300_KB;
  b.port = 5002;
  traffic::BulkTransfer tb(world.left(1), world.right(1), b);
  world.sim().run_until(sim::Time::seconds(300));
  ASSERT_TRUE(ta.done());
  ASSERT_TRUE(tb.done());
  EXPECT_EQ(ta.result().bytes_delivered, 300_KB);
  EXPECT_EQ(tb.result().bytes_delivered, 300_KB);
  // Both should get a nontrivial share of the 200 KB/s bottleneck.
  EXPECT_GT(ta.throughput_kBps(), 20.0);
  EXPECT_GT(tb.throughput_kBps(), 20.0);
}

TEST(TransferTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto world = make_world(10, 1, 3);
    world.topo().bottleneck_fwd->set_loss_model(
        std::make_unique<net::BernoulliLoss>(0.03, 77));
    traffic::BulkTransfer::Config cfg;
    cfg.bytes = 100_KB;
    cfg.port = 5001;
    traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
    world.sim().run_until(sim::Time::seconds(600));
    return t.result().end.ns();
  };
  EXPECT_EQ(run_once(), run_once());
}


TEST(TransferTest, SurvivesPacketReordering) {
  auto world = make_world(20, 1, 23);
  // Jitter beyond the bottleneck's 5 ms serialization time reorders
  // data segments, provoking spurious duplicate ACKs.
  world.topo().bottleneck_fwd->set_jitter(15_ms, 99);
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 200_KB;
  cfg.port = 5001;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(600));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 200_KB);
}

TEST(TransferTest, SurvivesReorderingPlusLoss) {
  auto world = make_world(20, 1, 29);
  world.topo().bottleneck_fwd->set_jitter(10_ms, 13);
  world.topo().bottleneck_fwd->set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.03, 17));
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 200_KB;
  cfg.port = 5001;
  cfg.cc = cc::find("vegas");
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(600));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 200_KB);
}

TEST(TransferTest, AckPathReordering) {
  auto world = make_world(20, 1, 31);
  world.topo().bottleneck_rev->set_jitter(15_ms, 51);
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 200_KB;
  cfg.port = 5001;
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(600));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 200_KB);
}

}  // namespace
}  // namespace vegas
