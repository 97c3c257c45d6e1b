// Sanity tests for the §3.2 comparator schemes: DUAL, CARD, Tri-S.
#include <gtest/gtest.h>

#include <memory>

#include "cc/registry.h"
#include "exp/world.h"
#include "net/loss.h"
#include "traffic/bulk.h"

namespace vegas::cc {
namespace {

using namespace sim::literals;

TEST(FactoryTest, ProducesCorrectEngines) {
  tcp::TcpConfig cfg;
  EXPECT_EQ(make_sender("reno", cfg)->name(), "Reno");
  EXPECT_EQ(make_sender("tahoe", cfg)->name(), "Tahoe");
  EXPECT_EQ(make_sender("newreno", cfg)->name(), "NewReno");
  EXPECT_EQ(make_sender("vegas", cfg)->name(), "Vegas");
  EXPECT_EQ(make_sender("dual", cfg)->name(), "DUAL");
  EXPECT_EQ(make_sender("card", cfg)->name(), "CARD");
  EXPECT_EQ(make_sender("tris", cfg)->name(), "Tri-S");
}

TEST(FactoryTest, VegasFactoryAppliesThresholds) {
  tcp::TcpConfig cfg;
  AlgoSpec::vegas(1, 3).apply(cfg);
  EXPECT_DOUBLE_EQ(cfg.vegas_alpha, 1.0);
  EXPECT_DOUBLE_EQ(cfg.vegas_beta, 3.0);
}

/// The parameter is the registry name of the module under test.
class ComparatorTransferTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ComparatorTransferTest, CompletesOnCleanLink) {
  net::DumbbellConfig cfg;
  cfg.pairs = 1;
  cfg.bottleneck_queue = 15;
  exp::DumbbellWorld world(cfg, tcp::TcpConfig{}, 5);
  traffic::BulkTransfer::Config bt;
  bt.bytes = 300_KB;
  bt.port = 5001;
  bt.cc = find(GetParam());
  traffic::BulkTransfer t(world.left(0), world.right(0), bt);
  world.sim().run_until(sim::Time::seconds(300));
  ASSERT_TRUE(t.done()) << GetParam();
  EXPECT_EQ(t.result().bytes_delivered, 300_KB);
  EXPECT_GT(t.throughput_kBps(), 10.0);
}

TEST_P(ComparatorTransferTest, CompletesUnderLoss) {
  net::DumbbellConfig cfg;
  cfg.pairs = 1;
  cfg.bottleneck_queue = 15;
  exp::DumbbellWorld world(cfg, tcp::TcpConfig{}, 6);
  world.topo().bottleneck_fwd->set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.05, 31));
  traffic::BulkTransfer::Config bt;
  bt.bytes = 150_KB;
  bt.port = 5001;
  bt.cc = find(GetParam());
  traffic::BulkTransfer t(world.left(0), world.right(0), bt);
  world.sim().run_until(sim::Time::seconds(600));
  ASSERT_TRUE(t.done()) << GetParam();
  EXPECT_EQ(t.result().bytes_delivered, 150_KB);
}

INSTANTIATE_TEST_SUITE_P(AllComparators, ComparatorTransferTest,
                         ::testing::Values("dual", "card", "tris", "tahoe",
                                           "newreno"),
                         [](const auto& info) {
                           std::string n = find(info.param)->label;
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

TEST(ComparatorBehaviourTest, DelayBasedSchemesAvoidQueueOverflow) {
  // DUAL reacts to RTT inflation: against a tight queue it should lose
  // less than Reno does in the same setting.
  auto run = [](const char* module) {
    net::DumbbellConfig cfg;
    cfg.pairs = 1;
    cfg.bottleneck_queue = 10;
    exp::DumbbellWorld world(cfg, tcp::TcpConfig{}, 8);
    traffic::BulkTransfer::Config bt;
    bt.bytes = 1_MB;
    bt.port = 5001;
    bt.cc = find(module);
    traffic::BulkTransfer t(world.left(0), world.right(0), bt);
    world.sim().run_until(sim::Time::seconds(300));
    EXPECT_TRUE(t.done()) << module;
    return t.result().sender_stats.bytes_retransmitted;
  };
  const ByteCount reno = run("reno");
  const ByteCount dual = run("dual");
  EXPECT_LT(dual, reno);
}

}  // namespace
}  // namespace vegas::cc
