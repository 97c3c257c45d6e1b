// NewReno (RFC 2582) unit tests: partial-ACK recovery, the fix for the
// multi-loss windows that force plain Reno into coarse timeouts (§3.1).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cc/diag.h"
#include "cc/registry.h"
#include "exp/world.h"
#include "net/loss.h"
#include "traffic/bulk.h"

namespace vegas::cc {
namespace {

using namespace sim::literals;
using tcp::StreamOffset;

class Harness {
 public:
  Harness() {
    snd = cc::make_sender("newreno", cfg_);
    tcp::TcpSender::Env env;
    env.sim = &sim;
    env.transmit = [this](StreamOffset seq, ByteCount len, bool) {
      sent.push_back({seq, len});
    };
    snd->attach(std::move(env));
    snd->open(64_KB);
    snd->app_write(256 * 1024);
    for (int i = 0; i < 4; ++i) {  // grow the window
      advance(10_ms);
      ack(snd->snd_nxt());
    }
  }

  void advance(sim::Time d) {
    const sim::Time target = sim.now() + d;
    sim.schedule(d, [] {});
    sim.run_until(target);
  }
  void ack(StreamOffset a) { snd->on_ack(a, 64_KB, 0); }

  std::uint64_t partial_ack_retransmits() const {
    return cc::newreno_partial_retransmits(*snd).value_or(~0ull);
  }

  sim::Simulator sim;
  tcp::TcpConfig cfg_;
  std::unique_ptr<tcp::TcpSender> snd;
  std::vector<std::pair<StreamOffset, ByteCount>> sent;
};

TEST(NewRenoTest, NameIsNewReno) {
  Harness h;
  EXPECT_EQ(h.snd->name(), "NewReno");
}

TEST(NewRenoTest, PartialAckRetransmitsNextHoleWithoutDupAcks) {
  Harness h;
  const StreamOffset una = h.snd->snd_una();
  ASSERT_GE(h.snd->in_flight(), 4 * 1024);
  // Two losses: una and una+1024.  Dup ACKs arrive for later data.
  h.advance(10_ms);
  h.ack(una);
  h.ack(una);
  const std::size_t before = h.sent.size();
  h.ack(una);  // 3rd dup -> fast retransmit of hole 1
  ASSERT_GT(h.sent.size(), before);
  EXPECT_EQ(h.sent[before].first, una);
  // The retransmission fills hole 1; the cumulative ACK advances only to
  // hole 2 (a PARTIAL ack).  NewReno must retransmit hole 2 immediately.
  const std::size_t before2 = h.sent.size();
  h.advance(10_ms);
  h.ack(una + 1024);
  ASSERT_GT(h.sent.size(), before2);
  EXPECT_EQ(h.sent[before2].first, una + 1024);
  EXPECT_EQ(h.partial_ack_retransmits(), 1u);
  EXPECT_EQ(h.snd->stats().coarse_timeouts, 0u);  // no timeout needed
}

TEST(NewRenoTest, FullAckExitsRecoveryAndDeflates) {
  Harness h;
  const StreamOffset una = h.snd->snd_una();
  h.advance(10_ms);
  for (int i = 0; i < 3; ++i) h.ack(una);  // enter recovery
  const ByteCount ssthresh = h.snd->ssthresh();
  h.advance(10_ms);
  h.ack(h.snd->snd_max());  // everything acked: full ACK
  EXPECT_EQ(h.snd->cwnd(), ssthresh);
  EXPECT_EQ(h.partial_ack_retransmits(), 0u);
}

TEST(NewRenoTest, NoSecondFastRetransmitForSameWindow) {
  Harness h;
  const StreamOffset una = h.snd->snd_una();
  h.advance(10_ms);
  for (int i = 0; i < 3; ++i) h.ack(una);  // recovery #1
  const auto frtx = h.snd->stats().fast_retransmits;
  // Full ACK ends recovery; stray dup ACKs for OLD data (below recover)
  // must not trigger a second ssthresh halving.
  h.advance(10_ms);
  const StreamOffset partial = una + 1024;
  h.ack(partial);  // partial: stays in recovery, retransmits hole
  h.ack(partial);
  h.ack(partial);
  h.ack(partial);
  EXPECT_EQ(h.snd->stats().fast_retransmits, frtx);
}

TEST(NewRenoTest, RecoversMultiLossWindowWithoutTimeoutEndToEnd) {
  // §3.1's scenario ("two or more dropped segments in a RTT") over the
  // real simulated network: three consecutive data packets forced lost.
  // Plain Reno exits recovery on the first partial ACK and stalls into a
  // coarse timeout; NewReno heals hole-by-hole without one.
  auto run = [](const char* module) {
    net::DumbbellConfig topo;
    topo.pairs = 1;
    topo.bottleneck_queue = 30;  // our injector is the only loss source
    exp::DumbbellWorld world(topo, tcp::TcpConfig{}, 43);
    world.topo().bottleneck_fwd->set_loss_model(
        std::make_unique<net::NthPacketLoss>(
            std::vector<std::uint64_t>{50, 51, 52}));
    traffic::BulkTransfer::Config cfg;
    cfg.bytes = 300_KB;
    cfg.port = 5001;
    cfg.cc = find(module);
    traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
    world.sim().run_until(sim::Time::seconds(120));
    EXPECT_TRUE(t.done()) << module;
    return t.result();
  };
  const auto newreno = run("newreno");
  const auto reno = run("reno");
  EXPECT_EQ(newreno.sender_stats.coarse_timeouts, 0u);
  EXPECT_GT(reno.sender_stats.coarse_timeouts, 0u);
  EXPECT_LT(newreno.duration_s(), reno.duration_s());
}

}  // namespace
}  // namespace vegas::cc
