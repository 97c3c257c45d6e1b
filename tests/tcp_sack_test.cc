// Selective-ACK tests: receiver block generation, sender scoreboard,
// hole-directed recovery, and end-to-end behaviour under loss.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "cc/registry.h"
#include "exp/world.h"
#include "net/loss.h"
#include "tcp/buffer.h"
#include "tcp/sender.h"
#include "traffic/bulk.h"

namespace vegas::tcp {
namespace {

using namespace sim::literals;

// ---------------------------------------------------------- receiver side

TEST(SackBlocksTest, EmptyWhenInOrder) {
  ReassemblyBuffer r(64_KB);
  r.on_segment(0, 1000);
  EXPECT_TRUE(r.sack_blocks().empty());
}

TEST(SackBlocksTest, SingleHoleSingleBlock) {
  ReassemblyBuffer r(64_KB);
  r.on_segment(0, 1000);
  r.on_segment(2000, 1000);  // hole at [1000,2000)
  const auto blocks = r.sack_blocks();
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].start, 2000);
  EXPECT_EQ(blocks[0].end, 3000);
}

TEST(SackBlocksTest, MostRecentBlockFirst) {
  ReassemblyBuffer r(64_KB);
  r.on_segment(2000, 1000);
  r.on_segment(6000, 1000);
  r.on_segment(4000, 1000);  // most recent arrival
  const auto blocks = r.sack_blocks();
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].start, 4000);  // RFC 2018: newest first
}

TEST(SackBlocksTest, CapsAtThreeBlocks) {
  ReassemblyBuffer r(64_KB);
  for (int i = 1; i <= 5; ++i) {
    r.on_segment(i * 2000, 500);
  }
  EXPECT_EQ(r.sack_blocks().size(), 3u);
}

TEST(SackBlocksTest, MergedArrivalsReportMergedBlock) {
  ReassemblyBuffer r(64_KB);
  r.on_segment(2000, 1000);
  r.on_segment(3000, 1000);  // abuts: one block [2000,4000)
  const auto blocks = r.sack_blocks();
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].start, 2000);
  EXPECT_EQ(blocks[0].end, 4000);
}

// ------------------------------------------------------------ sender side

class SackHarness {
 public:
  SackHarness() {
    cfg_.sack_enabled = true;
    snd = std::make_unique<TcpSender>(cfg_);
    TcpSender::Env env;
    env.sim = &sim;
    env.transmit = [this](StreamOffset seq, ByteCount len, bool) {
      sent.push_back({seq, len});
    };
    snd->attach(std::move(env));
    snd->open(64_KB);
    snd->app_write(256 * 1024);
    // Grow the window so several segments are genuinely outstanding
    // (scoreboard operations are clamped to snd_max).
    for (int i = 0; i < 4; ++i) {
      advance(10_ms);
      snd->on_ack(snd->snd_nxt(), 64_KB, 0, {});
    }
  }

  void advance(sim::Time d) {
    const sim::Time target = sim.now() + d;
    sim.schedule(d, [] {});
    sim.run_until(target);
  }

  void ack(StreamOffset a,
           std::vector<TcpSender::SackRange> sacks = {}) {
    snd->on_ack(a, 64_KB, 0, sacks);
  }

  sim::Simulator sim;
  TcpConfig cfg_;
  std::unique_ptr<TcpSender> snd;
  std::vector<std::pair<StreamOffset, ByteCount>> sent;
};

TEST(SackSenderTest, ScoreboardMergesBlocks) {
  SackHarness h;
  const StreamOffset u = h.snd->snd_una();
  h.advance(10_ms);
  h.ack(u, {{u + 2048, u + 3072}});
  h.ack(u, {{u + 3072, u + 4096}});  // adjacent: merges
  ASSERT_EQ(h.snd->sack_scoreboard().size(), 1u);
  EXPECT_EQ(h.snd->sack_scoreboard().begin()->first, u + 2048);
  EXPECT_EQ(h.snd->sack_scoreboard().begin()->second, u + 4096);
  EXPECT_TRUE(h.snd->sack_covered(u + 2048, 2048));
  EXPECT_FALSE(h.snd->sack_covered(u + 1024, 1024));
}

TEST(SackSenderTest, ScoreboardPrunedByCumulativeAck) {
  SackHarness h;
  const StreamOffset u = h.snd->snd_una();
  h.advance(10_ms);
  h.ack(u, {{u + 2048, u + 4096}});
  h.advance(10_ms);
  h.ack(u + 3072);  // cumulative ACK advances into the block
  ASSERT_EQ(h.snd->sack_scoreboard().size(), 1u);
  EXPECT_EQ(h.snd->sack_scoreboard().begin()->first, u + 3072);
  h.ack(u + 5120);  // past the block entirely
  EXPECT_TRUE(h.snd->sack_scoreboard().empty());
}

TEST(SackSenderTest, NextHoleSkipsSackedRanges) {
  SackHarness h;
  const StreamOffset u = h.snd->snd_una();
  ASSERT_GE(h.snd->in_flight(), 5 * 1024);
  h.advance(10_ms);
  h.ack(u, {{u + 1024, u + 2048}});
  h.ack(u, {{u + 3072, u + 4096}});
  EXPECT_EQ(h.snd->sack_next_hole(u), u);  // front hole
  EXPECT_EQ(h.snd->sack_next_hole(u + 1024), u + 2048);  // jumps block 1
  EXPECT_EQ(h.snd->sack_next_hole(u + 3500), u + 4096);  // after block 2
}

TEST(SackSenderTest, RecoveryRepairsHolesNotSackedData) {
  SackHarness h;
  // Build a real window first.
  for (int i = 0; i < 3; ++i) {
    h.advance(10_ms);
    h.ack(h.snd->snd_nxt());
  }
  const StreamOffset una = h.snd->snd_una();
  ASSERT_GE(h.snd->in_flight(), 4 * 1024);
  // Segments una and una+2048 lost; una+1024 and una+3072 sacked.
  h.advance(10_ms);
  h.ack(una, {{una + 1024, una + 2048}});
  h.ack(una, {{una + 3072, una + 4096}});
  const auto before = h.sent.size();
  h.ack(una, {{una + 3072, una + 4096}});  // 3rd dup: fast retransmit
  ASSERT_GT(h.sent.size(), before);
  EXPECT_EQ(h.sent[before].first, una);  // front hole repaired first
  // Next dup ACK repairs the SECOND hole (una+2048), skipping the
  // sacked range at una+1024.
  const auto before2 = h.sent.size();
  h.ack(una, {{una + 3072, una + 4096}});
  ASSERT_GT(h.sent.size(), before2);
  EXPECT_EQ(h.sent[before2].first, una + 2048);
  EXPECT_GE(h.snd->stats().sack_retransmits, 1u);
}

TEST(SackSenderTest, AvoidsRetransmittingSackedData) {
  SackHarness h;
  for (int i = 0; i < 3; ++i) {
    h.advance(10_ms);
    h.ack(h.snd->snd_nxt());
  }
  const StreamOffset una = h.snd->snd_una();
  // Everything outstanding EXCEPT the front segment is sacked.
  h.advance(10_ms);
  h.ack(una, {{una + 1024, h.snd->snd_nxt()}});
  h.ack(una, {{una + 1024, h.snd->snd_nxt()}});
  h.ack(una, {{una + 1024, h.snd->snd_nxt()}});  // fast retransmit of front
  // Further dup ACKs must NOT retransmit sacked data.
  const auto retx_before = h.snd->stats().segments_retransmitted;
  h.ack(una, {{una + 1024, h.snd->snd_nxt()}});
  h.ack(una, {{una + 1024, h.snd->snd_nxt()}});
  EXPECT_EQ(h.snd->stats().segments_retransmitted, retx_before);
}

TEST(SackSenderTest, ScoreboardClearedOnTimeout) {
  SackHarness h;
  const StreamOffset u = h.snd->snd_una();
  h.advance(10_ms);
  h.ack(u, {{u + 2048, u + 4096}});
  ASSERT_FALSE(h.snd->sack_scoreboard().empty());
  for (int i = 0; i < 20 && h.snd->stats().coarse_timeouts == 0; ++i) {
    h.advance(500_ms);
    h.snd->on_tick();
  }
  ASSERT_EQ(h.snd->stats().coarse_timeouts, 1u);
  EXPECT_TRUE(h.snd->sack_scoreboard().empty());
}

TEST(SackSenderTest, DisabledByDefaultIgnoresBlocks) {
  TcpConfig cfg;  // sack_enabled = false
  TcpSender snd(cfg);
  sim::Simulator sim;
  TcpSender::Env env;
  env.sim = &sim;
  env.transmit = [](StreamOffset, ByteCount, bool) {};
  snd.attach(std::move(env));
  snd.open(64_KB);
  snd.app_write(64 * 1024);
  std::vector<TcpSender::SackRange> sacks{{2048, 4096}};
  snd.on_ack(0, 64_KB, 0, sacks);
  EXPECT_TRUE(snd.sack_scoreboard().empty());
}

// ------------------------------------------------------------- end to end

struct SackE2ECase {
  const char* algo;  // cc registry name
  bool sack;
};

// Names the ctest id; gtest's default prints raw bytes, `algo`'s address
// and any padding included, which move between builds.
void PrintTo(const SackE2ECase& c, std::ostream* os) {
  *os << c.algo << (c.sack ? " sack" : " no sack");
}

class SackTransferTest : public ::testing::TestWithParam<SackE2ECase> {};

TEST_P(SackTransferTest, ByteExactUnderLoss) {
  const auto param = GetParam();
  net::DumbbellConfig topo;
  topo.pairs = 1;
  topo.bottleneck_queue = 15;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, 37);
  world.topo().bottleneck_fwd->set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.05, 73));
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.sack_enabled = param.sack;
  traffic::BulkTransfer::Config cfg;
  cfg.bytes = 300_KB;
  cfg.port = 5001;
  cfg.tcp = tcp_cfg;
  cfg.cc = cc::find(param.algo);
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(600));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().bytes_delivered, 300_KB);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SackTransferTest,
    ::testing::Values(SackE2ECase{"reno", true}, SackE2ECase{"reno", false},
                      SackE2ECase{"vegas", true}, SackE2ECase{"vegas", false}),
    [](const auto& info) {
      return cc::find(info.param.algo)->label +
             std::string(info.param.sack ? "Sack" : "NoSack");
    });

TEST(SackTransferTest, SackReducesTimeoutsUnderBurstLoss) {
  auto run = [](bool sack) {
    net::DumbbellConfig topo;
    topo.pairs = 1;
    topo.bottleneck_queue = 15;
    exp::DumbbellWorld world(topo, tcp::TcpConfig{}, 41);
    world.topo().bottleneck_fwd->set_loss_model(
        std::make_unique<net::BurstLoss>(0.01, 0.4, 19));
    tcp::TcpConfig tcp_cfg;
    tcp_cfg.sack_enabled = sack;
    traffic::BulkTransfer::Config cfg;
    cfg.bytes = 500_KB;
    cfg.port = 5001;
    cfg.tcp = tcp_cfg;
    traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
    world.sim().run_until(sim::Time::seconds(900));
    EXPECT_TRUE(t.done());
    return t.result();
  };
  const auto without = run(false);
  const auto with = run(true);
  // Burst losses (multiple per window) are where SACK shines: fewer
  // stalls into the coarse timer and no slower overall.
  EXPECT_LE(with.sender_stats.coarse_timeouts,
            without.sender_stats.coarse_timeouts);
  EXPECT_LE(with.duration_s(), without.duration_s() * 1.1);
}

}  // namespace
}  // namespace vegas::tcp
