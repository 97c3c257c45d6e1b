// Behavioural tests for the modern congestion-control modules (CUBIC,
// YeAH, Relentless, New-AIMD), including the Relentless steady-state
// validation against the arXiv:1102.3270 model W* ≈ 1/p.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cc/registry.h"
#include "exp/world.h"
#include "net/loss.h"
#include "tcp/sender.h"
#include "traffic/bulk.h"

namespace vegas::cc {
namespace {

using namespace sim::literals;
using tcp::StreamOffset;

/// Drives one module's sender directly with scripted ACKs — the same
/// no-network pattern as tests/tcp_sender_unit_test.cc.
class ModuleHarness {
 public:
  explicit ModuleHarness(const std::string& module, tcp::TcpConfig cfg = {})
      : cfg_(cfg) {
    cfg_.send_buffer = 64_KB;  // never let the scripted stream run dry
    snd = make_sender(module, cfg_);
    tcp::TcpSender::Env env;
    env.sim = &sim;
    env.transmit = [this](StreamOffset seq, ByteCount len, bool) {
      sent.push_back({seq, len});
    };
    snd->attach(std::move(env));
    snd->open(64_KB);
    snd->app_write(64_KB);
  }

  void advance(sim::Time d) {
    const sim::Time target = sim.now() + d;
    sim.schedule(d, [] {});
    sim.run_until(target);
  }

  void ack(StreamOffset a) { snd->on_ack(a, 64_KB, 0); }

  /// One fresh cumulative ACK covering the next outstanding segment,
  /// topping the send buffer back up so data is always available (an
  /// empty buffer would turn later "fresh" ACKs into duplicates).
  void ack_next_segment(sim::Time gap = sim::Time::milliseconds(10)) {
    advance(gap);
    ack(std::min<StreamOffset>(snd->snd_una() + 1024, snd->snd_nxt()));
    snd->app_write(64_KB);
  }

  /// Grows the window through slow start to exactly `segments` (whole-
  /// MSS steps from one segment) by acking one segment at a time.
  void grow_to(int segments) {
    while (snd->cwnd() < static_cast<ByteCount>(segments) * 1024) {
      ack_next_segment();
      ASSERT_TRUE(snd->in_slow_start()) << "left slow start early";
    }
  }

  /// A three-dup-ACK loss episode at the current snd_una.
  void dup_ack_episode() {
    const StreamOffset una = snd->snd_una();
    for (int i = 0; i < 3; ++i) ack(una);
  }

  sim::Simulator sim;
  tcp::TcpConfig cfg_;
  std::unique_ptr<tcp::TcpSender> snd;
  std::vector<std::pair<StreamOffset, ByteCount>> sent;
};

// ------------------------------------------------------ transfer smoke

class ModernModuleTransferTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ModernModuleTransferTest, CompletesOnCleanLink) {
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

TEST_P(ModernModuleTransferTest, CompletesUnderLoss) {
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

INSTANTIATE_TEST_SUITE_P(ModernZoo, ModernModuleTransferTest,
                         ::testing::Values("cubic", "yeah", "relentless",
                                           "new-aimd"),
                         [](const auto& info) {
                           std::string n = info.param;
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

// ----------------------------------------------------------- New-AIMD

TEST(NewAimdTest, LossCutIsFiveSixthsNotHalf) {
  ModuleHarness aimd("new-aimd");
  ModuleHarness reno("reno");
  aimd.grow_to(24);
  reno.grow_to(24);
  const ByteCount wnd_aimd = std::min<ByteCount>(aimd.snd->cwnd(), 64_KB);
  const ByteCount wnd_reno = std::min<ByteCount>(reno.snd->cwnd(), 64_KB);
  aimd.dup_ack_episode();
  reno.dup_ack_episode();
  EXPECT_EQ(aimd.snd->ssthresh(), wnd_aimd - wnd_aimd / 6);
  EXPECT_EQ(reno.snd->ssthresh(), wnd_reno / 2);
  EXPECT_GT(aimd.snd->ssthresh(), reno.snd->ssthresh());
}

// -------------------------------------------------------------- CUBIC

TEST(CubicTest, CutsToBetaWmaxThenDwellsLongestAtTheOldPlateau) {
  ModuleHarness h("cubic");
  h.grow_to(32);
  const ByteCount w_max = h.snd->cwnd();  // 32 segments, under snd_wnd
  h.dup_ack_episode();
  h.ack_next_segment();  // fresh ACK: recovery exits, deflates to ssthresh
  ASSERT_FALSE(h.snd->in_slow_start());
  EXPECT_NEAR(static_cast<double>(h.snd->cwnd()),
              0.7 * static_cast<double>(w_max),
              static_cast<double>(h.snd->config().mss));

  // Record the post-cut trajectory.  The cubic shape means the window
  // climbs quickly out of the cut, decelerates into the old maximum,
  // lingers there, then probes convexly past it — so of three equal
  // four-segment bands (climb, plateau, probe) the plateau band around
  // w_max must collect by far the most ACKs.
  std::vector<ByteCount> traj;
  for (int i = 0; i < 800; ++i) {
    h.ack_next_segment();
    traj.push_back(h.snd->cwnd());
  }
  EXPECT_GT(traj.back(), w_max) << "never probed past the old maximum";
  const auto dwell = [&traj](double lo_seg, double hi_seg) {
    int n = 0;
    for (const ByteCount w : traj) {
      const double s = static_cast<double>(w) / 1024.0;
      if (s >= lo_seg && s < hi_seg) ++n;
    }
    return n;
  };
  const double wm = static_cast<double>(w_max) / 1024.0;
  const int climb = dwell(0.7 * wm, 0.7 * wm + 4.0);
  const int plateau = dwell(wm - 2.0, wm + 2.0);
  const int probe = dwell(wm + 4.0, wm + 8.0);
  EXPECT_GT(probe, 0) << "trajectory too short to reach the probe band";
  EXPECT_GT(plateau, 2 * climb)
      << "climb " << climb << " plateau " << plateau;
  EXPECT_GT(plateau, 2 * probe)
      << "probe " << probe << " plateau " << plateau;
}

// --------------------------------------------------------------- YeAH

TEST(YeahTest, BacklogSensitivityLosesLessThanReno) {
  // A queue deeper than YeAH's Q_max (8 buffers): Reno must fill all of
  // it and overflow to find the capacity, while YeAH's precautionary
  // decongestion caps its standing backlog near Q_max and avoids most
  // of those losses.
  auto run = [](const char* module) {
    net::DumbbellConfig cfg;
    cfg.pairs = 1;
    cfg.bottleneck_queue = 20;
    exp::DumbbellWorld world(cfg, tcp::TcpConfig{}, 8);
    traffic::BulkTransfer::Config bt;
    bt.bytes = 4_MB;
    bt.port = 5001;
    bt.cc = find(module);
    traffic::BulkTransfer t(world.left(0), world.right(0), bt);
    world.sim().run_until(sim::Time::seconds(300));
    EXPECT_TRUE(t.done()) << module;
    return t.result().sender_stats.bytes_retransmitted;
  };
  EXPECT_LT(run("yeah"), run("reno"));
}

// --------------------------------------------- Relentless model check

TEST(RelentlessTest, SteadyStateWindowMatchesInverseLossRate) {
  // Deterministic periodic loss: one three-dup-ACK episode every N
  // fresh ACKs, i.e. a segment loss rate p = 1/N.  The arXiv:1102.3270
  // equilibrium (one segment gained per window of ACKs, one segment
  // lost per loss event) puts the steady-state window at W* ≈ 1/p = N
  // segments.  The ±35% tolerance absorbs the recovery-exit ACK that
  // earns no growth and the whole-segment quantisation of the window.
  constexpr int kN = 20;  // fresh ACKs between loss episodes
  constexpr int kEpisodes = 60;
  ModuleHarness h("relentless");
  h.grow_to(8);  // leave the 2-MSS floor before the first episode
  for (int e = 0; e < kEpisodes; ++e) {
    h.dup_ack_episode();
    for (int i = 0; i < kN; ++i) h.ack_next_segment();
  }
  const double w_star = static_cast<double>(kN);  // segments
  const double w = static_cast<double>(h.snd->cwnd()) / 1024.0;
  EXPECT_GE(w, w_star * 0.65) << "window " << w << " vs model " << w_star;
  EXPECT_LE(w, w_star * 1.35) << "window " << w << " vs model " << w_star;
  // The relentless signature: ssthresh shadows cwnd (set on every
  // decrease, then outgrown by at most ~one segment per episode) —
  // nothing ever halved, and no coarse timeout fired.
  EXPECT_GE(h.snd->ssthresh() + 2 * 1024, h.snd->cwnd());
  EXPECT_GT(h.snd->ssthresh(), static_cast<ByteCount>(w_star * 1024 / 2));
  EXPECT_EQ(h.snd->stats().coarse_timeouts, 0u);
}

TEST(RelentlessTest, DecreaseIsExactlyOneSegmentPerLoss) {
  ModuleHarness h("relentless");
  h.grow_to(16);
  // First episode moves the engine into congestion avoidance
  // (relentless_decrease pins ssthresh to cwnd).
  h.dup_ack_episode();
  h.ack_next_segment();  // exits recovery; no growth on this ACK
  const ByteCount before = h.snd->cwnd();
  h.dup_ack_episode();
  EXPECT_EQ(h.snd->cwnd(), before - 1024);
  EXPECT_EQ(h.snd->ssthresh(), before - 1024);
  h.ack_next_segment();  // recovery exits without deflation or growth
  EXPECT_EQ(h.snd->cwnd(), before - 1024);
}

}  // namespace
}  // namespace vegas::cc
