// Unit tests driving the Reno engine directly through TcpSender::Env —
// every congestion-control rule is exercised with hand-crafted ACKs.
#include "tcp/sender.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cc/registry.h"

namespace vegas::tcp {
namespace {

using namespace sim::literals;

struct Sent {
  sim::Time t;
  StreamOffset seq;
  ByteCount len;
  bool fin;
};

class SenderHarness {
 public:
  explicit SenderHarness(TcpConfig cfg = {},
                         bool tahoe = false)
      : cfg_(cfg), snd(cc::make_sender(tahoe ? "tahoe" : "reno", cfg_)) {
    TcpSender::Env env;
    env.sim = &sim;
    env.transmit = [this](StreamOffset seq, ByteCount len, bool fin) {
      sent.push_back({sim.now(), seq, len, fin});
    };
    env.on_fin_acked = [this] { fin_acked = true; };
    env.on_abort = [this] { aborted = true; };
    env.on_send_space = [this] { ++send_space_events; };
    snd->attach(std::move(env));
  }

  void advance(sim::Time d) {
    const sim::Time target = sim.now() + d;
    sim.schedule(d, [] {});
    sim.run_until(target);
  }

  /// Delivers a cumulative ACK `ack` with the peer window (default: the
  /// window passed to open()).
  void ack(StreamOffset a, ByteCount wnd = 64_KB, ByteCount payload = 0) {
    snd->on_ack(a, wnd, payload);
  }
  void dup_ack(StreamOffset a, ByteCount wnd = 64_KB) { ack(a, wnd, 0); }

  /// ACKs everything currently outstanding, one segment at a time, with
  /// `gap` between ACKs.
  void ack_each_outstanding(sim::Time gap, ByteCount wnd = 64_KB) {
    std::vector<StreamOffset> edges;
    for (std::size_t i = first_unacked_; i < sent.size(); ++i) {
      edges.push_back(sent[i].seq + sent[i].len + (sent[i].fin ? 1 : 0));
    }
    first_unacked_ = sent.size();
    for (const StreamOffset e : edges) {
      advance(gap);
      ack(e, wnd);
    }
  }

  sim::Simulator sim;
  TcpConfig cfg_;
  std::unique_ptr<TcpSender> snd;
  std::vector<Sent> sent;
  bool fin_acked = false;
  bool aborted = false;
  int send_space_events = 0;

 private:
  std::size_t first_unacked_ = 0;
};

TEST(RenoSenderTest, InitialWindowIsOneSegment) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(10 * 1024);
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].seq, 0);
  EXPECT_EQ(h.sent[0].len, 1024);
  EXPECT_EQ(h.snd->cwnd(), 1024);
  EXPECT_EQ(h.snd->in_flight(), 1024);
}

TEST(RenoSenderTest, SlowStartDoublesPerRtt) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(50 * 1024);
  EXPECT_EQ(h.sent.size(), 1u);
  h.advance(100_ms);
  h.ack(1024);  // cwnd 1 -> 2 segments
  EXPECT_EQ(h.snd->cwnd(), 2 * 1024);
  EXPECT_EQ(h.sent.size(), 3u);  // two more went out
  h.advance(100_ms);
  h.ack(2 * 1024);
  h.ack(3 * 1024);
  EXPECT_EQ(h.snd->cwnd(), 4 * 1024);
  EXPECT_EQ(h.sent.size(), 7u);
}

TEST(RenoSenderTest, SendWindowLimitsFlight) {
  SenderHarness h;
  h.snd->open(2048);  // peer window: 2 segments
  h.snd->app_write(50 * 1024);
  h.ack(0, 2048);  // window update processing path
  // Grow cwnd well past snd_wnd.
  for (int i = 0; i < 5; ++i) {
    h.advance(10_ms);
    h.ack(static_cast<StreamOffset>((i + 1)) * 1024, 2048);
  }
  EXPECT_LE(h.snd->in_flight(), 2048);
}

TEST(RenoSenderTest, SillyWindowHoldsPartialSegment) {
  TcpConfig cfg;
  SenderHarness h(cfg);
  h.snd->open(1536);  // peer window: 1.5 MSS
  h.snd->app_write(10 * 1024);
  ASSERT_EQ(h.sent.size(), 1u);  // cwnd-limited first flight
  h.advance(10_ms);
  h.ack(1024, /*wnd=*/1536);  // cwnd grows to 2 MSS; window now binds
  // One full MSS goes out; the remaining 512 bytes of window are held
  // because more data is queued behind them.
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.sent[1].len, 1024);
  EXPECT_EQ(h.snd->in_flight(), 1024);
}

TEST(RenoSenderTest, FinalShortSegmentIsSent) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(1024 + 100);
  h.advance(10_ms);
  h.ack(1024);
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.sent[1].len, 100);
}

TEST(RenoSenderTest, ThreeDupAcksTriggerFastRetransmit) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(50 * 1024);
  // Build the window up to 8 segments.
  h.ack_each_outstanding(10_ms);
  h.ack_each_outstanding(10_ms);
  h.ack_each_outstanding(10_ms);
  const ByteCount cwnd_before = h.snd->cwnd();
  ASSERT_GE(cwnd_before, 4 * 1024);
  const StreamOffset una = h.snd->snd_una();
  const std::size_t sent_before = h.sent.size();

  h.dup_ack(una);
  h.dup_ack(una);
  EXPECT_EQ(h.sent.size(), sent_before);  // not yet
  h.dup_ack(una);
  ASSERT_GT(h.sent.size(), sent_before);  // fast retransmit fired
  EXPECT_EQ(h.sent[sent_before].seq, una);
  EXPECT_EQ(h.snd->stats().fast_retransmits, 1u);
  EXPECT_EQ(h.snd->ssthresh(), cwnd_before / 2 / 1024 * 1024);
  // Reno inflation: cwnd = ssthresh + 3 MSS.
  EXPECT_EQ(h.snd->cwnd(), h.snd->ssthresh() + 3 * 1024);
}

TEST(RenoSenderTest, RecoveryInflatesOnFurtherDupAcksAndDeflatesOnNewAck) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(50 * 1024);
  for (int i = 0; i < 3; ++i) h.ack_each_outstanding(10_ms);
  const StreamOffset una = h.snd->snd_una();
  for (int i = 0; i < 3; ++i) h.dup_ack(una);
  const ByteCount ssthresh = h.snd->ssthresh();
  const ByteCount inflated = h.snd->cwnd();
  h.dup_ack(una);
  EXPECT_EQ(h.snd->cwnd(), inflated + 1024);  // +1 MSS per dup
  h.advance(50_ms);
  h.ack(h.snd->snd_nxt());  // recovery-ending ACK
  EXPECT_EQ(h.snd->cwnd(), ssthresh);  // deflation
}

TEST(TahoeSenderTest, DupAcksCollapseToSlowStart) {
  SenderHarness h(TcpConfig{}, /*tahoe=*/true);
  h.snd->open(64_KB);
  h.snd->app_write(50 * 1024);
  for (int i = 0; i < 3; ++i) h.ack_each_outstanding(10_ms);
  const StreamOffset una = h.snd->snd_una();
  for (int i = 0; i < 3; ++i) h.dup_ack(una);
  EXPECT_EQ(h.snd->cwnd(), 1024);  // no fast recovery in Tahoe
  EXPECT_EQ(h.snd->stats().fast_retransmits, 1u);
}

TEST(RenoSenderTest, CongestionAvoidanceGrowsLinearly) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(200 * 1024);
  for (int i = 0; i < 3; ++i) h.ack_each_outstanding(10_ms);
  // Force loss to set ssthresh, then recover into avoidance mode.
  const StreamOffset una = h.snd->snd_una();
  for (int i = 0; i < 3; ++i) h.dup_ack(una);
  h.advance(50_ms);
  h.ack(h.snd->snd_nxt());
  const ByteCount cwnd0 = h.snd->cwnd();
  ASSERT_GE(cwnd0, h.snd->ssthresh());
  // One whole window of ACKs should add roughly one MSS.
  h.ack_each_outstanding(5_ms);
  const ByteCount cwnd1 = h.snd->cwnd();
  EXPECT_GT(cwnd1, cwnd0);
  EXPECT_LE(cwnd1 - cwnd0, 2 * 1024);
}

TEST(RenoSenderTest, CoarseTimeoutGoesBackToOneSegment) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(50 * 1024);
  for (int i = 0; i < 2; ++i) h.ack_each_outstanding(10_ms);
  const ByteCount cwnd_before = h.snd->cwnd();
  ASSERT_GT(cwnd_before, 1024);
  const StreamOffset una = h.snd->snd_una();
  const std::size_t sent_before = h.sent.size();
  // Let the retransmit timer expire: tick until timeout fires.
  for (int i = 0; i < 20 && h.snd->stats().coarse_timeouts == 0; ++i) {
    h.advance(500_ms);
    h.snd->on_tick();
  }
  EXPECT_EQ(h.snd->stats().coarse_timeouts, 1u);
  EXPECT_EQ(h.snd->cwnd(), 1024);
  ASSERT_GT(h.sent.size(), sent_before);
  EXPECT_EQ(h.sent[sent_before].seq, una);  // go-back-N restarts at una
  EXPECT_GT(h.snd->stats().bytes_retransmitted, 0);
}

TEST(RenoSenderTest, TimeoutBackoffDoubles) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(10 * 1024);
  int ticks_to_first = 0, ticks_to_second = 0;
  while (h.snd->stats().coarse_timeouts == 0) {
    h.advance(500_ms);
    h.snd->on_tick();
    ++ticks_to_first;
    ASSERT_LT(ticks_to_first, 100);
  }
  while (h.snd->stats().coarse_timeouts == 1) {
    h.advance(500_ms);
    h.snd->on_tick();
    ++ticks_to_second;
    ASSERT_LT(ticks_to_second, 100);
  }
  EXPECT_EQ(ticks_to_second, 2 * ticks_to_first);
}

TEST(RenoSenderTest, AbortsAfterMaxBackoffs) {
  TcpConfig cfg;
  cfg.max_rxt_backoffs = 3;
  cfg.max_rto_ticks = 4;  // keep the test short
  SenderHarness h(cfg);
  h.snd->open(64_KB);
  h.snd->app_write(1024);
  for (int i = 0; i < 100 && !h.aborted; ++i) {
    h.advance(500_ms);
    h.snd->on_tick();
  }
  EXPECT_TRUE(h.aborted);
}

TEST(RenoSenderTest, KarnIgnoresRetransmittedSegments) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(2048);
  // Force a timeout, then ACK the retransmitted data: no RTT sample.
  while (h.snd->stats().coarse_timeouts == 0) {
    h.advance(500_ms);
    h.snd->on_tick();
  }
  const auto samples_before = h.snd->stats().rtt_samples;
  h.advance(100_ms);
  h.ack(1024);
  EXPECT_EQ(h.snd->stats().rtt_samples, samples_before);
}

TEST(RenoSenderTest, RttSampleTakenFromCleanSegment) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(2048);
  h.advance(700_ms);
  h.snd->on_tick();  // one tick elapses while timing
  h.ack(1024);
  EXPECT_EQ(h.snd->stats().rtt_samples, 1u);
}

TEST(RenoSenderTest, FinPiggybacksOnLastSegment) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(1500);
  h.snd->app_close();
  h.advance(10_ms);
  h.ack(1024);
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.sent[1].len, 1500 - 1024);
  EXPECT_TRUE(h.sent[1].fin);
  h.advance(10_ms);
  h.ack(1500 + 1);  // FIN occupies one unit
  EXPECT_TRUE(h.fin_acked);
  EXPECT_TRUE(h.snd->fin_acked());
}

TEST(RenoSenderTest, BareFinAfterDrain) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(1024);
  h.advance(10_ms);
  h.ack(1024);
  h.snd->app_close();
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.sent[1].len, 0);
  EXPECT_TRUE(h.sent[1].fin);
  h.ack(1025);
  EXPECT_TRUE(h.fin_acked);
}

TEST(RenoSenderTest, ZeroWindowPersistProbes) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(2048);
  h.advance(10_ms);
  h.ack(1024, /*wnd=*/0);  // everything acked, window slammed shut
  // in_flight is 0 (snd_nxt pulled to window edge already sent 2 segs?).
  // Remaining 1024 bytes wait; ticks must eventually probe.
  const std::size_t before = h.sent.size();
  for (int i = 0; i < 10; ++i) {
    h.advance(500_ms);
    h.snd->on_tick();
  }
  EXPECT_GT(h.sent.size(), before);  // at least one probe went out
}

TEST(RenoSenderTest, SendSpaceCallbackFires) {
  TcpConfig cfg;
  cfg.send_buffer = 4 * 1024;
  SenderHarness h(cfg);
  h.snd->open(64_KB);
  EXPECT_EQ(h.snd->app_write(10 * 1024), 4 * 1024);  // buffer-limited
  h.advance(10_ms);
  h.ack(1024);
  EXPECT_GT(h.send_space_events, 0);
}

TEST(RenoSenderTest, StaleAckIgnored) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(50 * 1024);
  for (int i = 0; i < 2; ++i) h.ack_each_outstanding(10_ms);
  const StreamOffset una = h.snd->snd_una();
  const ByteCount cwnd = h.snd->cwnd();
  h.ack(una - 1024);  // old ACK
  EXPECT_EQ(h.snd->snd_una(), una);
  EXPECT_EQ(h.snd->cwnd(), cwnd);
}

TEST(RenoSenderTest, AckBeyondSndMaxIgnored) {
  SenderHarness h;
  h.snd->open(64_KB);
  h.snd->app_write(1024);
  h.ack(50 * 1024);  // bogus
  EXPECT_EQ(h.snd->snd_una(), 0);
}

}  // namespace
}  // namespace vegas::tcp
