// InvariantChecker and determinism-harness tests (src/check).
//
// Two halves: fault-seeded tests drive the observer interface directly
// and prove each invariant actually fires, then clean-run tests attach
// the checker to real simulated transfers and prove no rule false-fires.
#include <gtest/gtest.h>

#include <memory>

#include "check/determinism.h"
#include "check/invariant_checker.h"
#include "exp/scenarios.h"
#include "trace/conn_tracer.h"
#include "traffic/bulk.h"

namespace vegas::check {
namespace {

using sim::Time;

InvariantOptions vegas_options() {
  InvariantOptions o;
  o.vegas_rules = true;
  return o;
}

/// Emits the observer sequence of a loss-triggered decrease at time `t`
/// for the segment at `seq` (whose previous transmission the checker has
/// already recorded): retransmit event, resend, then the cwnd cut.
void emit_loss_decrease(InvariantChecker& ch, Time t, tcp::StreamOffset seq,
                        ByteCount cwnd_after) {
  ch.on_retransmit(t, seq, 1024, tcp::RetransmitTrigger::kFineDupAck);
  ch.on_segment_sent(t, seq, 1024, /*retransmit=*/true);
  ch.on_windows(t, cwnd_after, cwnd_after, 50 * 1024, 8 * 1024);
}

TEST(InvariantFaultTest, DoubleDecreaseWithinOneWindowFires) {
  InvariantChecker ch(vegas_options());
  // Two segments sent at t=0, before any decrease.
  ch.on_windows(Time::seconds(0), 8 * 1024, 64 * 1024, 50 * 1024, 0);
  ch.on_segment_sent(Time::seconds(0), 0, 1024, false);
  ch.on_segment_sent(Time::seconds(0), 1024, 1024, false);
  // First loss decrease at t=1: legal.
  emit_loss_decrease(ch, Time::seconds(1), 0, 6 * 1024);
  // Second at t=2 for a transmission that went out at t=0 — i.e. BEFORE
  // the previous decrease: the §3.1 rule forbids cutting again.
  emit_loss_decrease(ch, Time::seconds(2), 1024, 4 * 1024);
  ch.finish();
  ASSERT_FALSE(ch.ok());
  EXPECT_NE(ch.report().find("§3.1"), std::string::npos) << ch.report();
}

TEST(InvariantFaultTest, DecreaseForFreshLossIsClean) {
  InvariantChecker ch(vegas_options());
  ch.on_windows(Time::seconds(0), 8 * 1024, 64 * 1024, 50 * 1024, 0);
  ch.on_segment_sent(Time::seconds(0), 0, 1024, false);
  emit_loss_decrease(ch, Time::seconds(1), 0, 6 * 1024);
  // The second lost transmission went out at t=1.5, after the decrease
  // at t=1 — a loss at the new, lower rate may cut again.
  ch.on_segment_sent(Time::seconds(1.5), 1024, 1024, false);
  emit_loss_decrease(ch, Time::seconds(2), 1024, 4 * 1024);
  ch.finish();
  EXPECT_TRUE(ch.ok()) << ch.report();
}

TEST(InvariantFaultTest, BaseRttAboveSampleFires) {
  InvariantChecker ch(vegas_options());
  // A sender whose claimed BaseRTT is an absurd 10 s.
  ch.attach_base_rtt_probe([] {
    return std::optional<Time>(Time::seconds(10));
  });
  ch.on_segment_sent(Time::seconds(0), 0, 1024, false);
  ch.on_ack_received(Time::seconds(0.1), 1024, 50 * 1024, false);
  ASSERT_FALSE(ch.ok());
  EXPECT_NE(ch.report().find("BaseRTT"), std::string::npos) << ch.report();
}

TEST(InvariantFaultTest, NegativeCamDiffFires) {
  InvariantChecker ch(vegas_options());
  ch.on_cam_sample(Time::seconds(1), 1000.0, 2000.0, -1.0,
                   tcp::CamAction::kHold);
  ASSERT_FALSE(ch.ok());
  EXPECT_NE(ch.report().find("Diff"), std::string::npos) << ch.report();
}

TEST(InvariantFaultTest, AckRegressionFires) {
  InvariantChecker ch;
  ch.on_segment_sent(Time::seconds(0), 0, 4096, false);
  ch.on_ack_received(Time::seconds(0.1), 4096, 50 * 1024, false);
  ch.on_ack_received(Time::seconds(0.2), 2048, 50 * 1024, false);
  ASSERT_FALSE(ch.ok());
  EXPECT_NE(ch.report().find("regressed"), std::string::npos) << ch.report();
}

TEST(InvariantFaultTest, AckBeyondDataSentFires) {
  InvariantChecker ch;
  ch.on_segment_sent(Time::seconds(0), 0, 1024, false);
  // 1025 (= data + FIN) would be fine; 2048 acknowledges thin air.
  ch.on_ack_received(Time::seconds(0.1), 2048, 50 * 1024, false);
  ASSERT_FALSE(ch.ok());
  EXPECT_NE(ch.report().find("high-water"), std::string::npos) << ch.report();
}

TEST(InvariantFaultTest, NonContiguousSendFires) {
  InvariantChecker ch;
  ch.on_segment_sent(Time::seconds(0), 0, 1024, false);
  ch.on_segment_sent(Time::seconds(0), 4096, 1024, false);  // hole at 1024
  ASSERT_FALSE(ch.ok());
}

TEST(InvariantFaultTest, CwndBoundsFire) {
  InvariantChecker ch;  // defaults: min 1 segment, max 100 KB
  ch.on_windows(Time::seconds(1), 512, 64 * 1024, 50 * 1024, 0);
  ch.on_windows(Time::seconds(2), 500 * 1024, 64 * 1024, 50 * 1024, 0);
  EXPECT_EQ(ch.violation_count(), 2u);
}

TEST(InvariantFaultTest, EveryRttDoublingFires) {
  InvariantChecker ch(vegas_options());
  // Establish the RTT floor: 100 ms.
  ch.on_segment_sent(Time::seconds(0), 0, 1024, false);
  ch.on_ack_received(Time::seconds(0.1), 1024, 50 * 1024, false);
  // Reno-style slow start: cwnd doubles EVERY 100 ms RTT while far below
  // ssthresh.  2 -> 4 -> 8 -> 16 KB within 0.2 s quadruples in two round
  // trips; Vegas' every-other-RTT cadence needs at least three.
  const ByteCount ss = 64 * 1024;
  ch.on_windows(Time::seconds(0.30), 2 * 1024, ss, 50 * 1024, 0);
  ch.on_windows(Time::seconds(0.40), 4 * 1024, ss, 50 * 1024, 0);
  ch.on_windows(Time::seconds(0.50), 8 * 1024, ss, 50 * 1024, 0);
  ch.on_windows(Time::seconds(0.60), 16 * 1024, ss, 50 * 1024, 0);
  ASSERT_FALSE(ch.ok());
  EXPECT_NE(ch.report().find("§3.3"), std::string::npos) << ch.report();
}

TEST(InvariantFaultTest, EveryOtherRttDoublingIsClean) {
  InvariantChecker ch(vegas_options());
  ch.on_segment_sent(Time::seconds(0), 0, 1024, false);
  ch.on_ack_received(Time::seconds(0.1), 1024, 50 * 1024, false);
  // Vegas cadence: grow one RTT, hold one RTT — quadrupling takes 3 RTTs.
  const ByteCount ss = 64 * 1024;
  ch.on_windows(Time::seconds(0.30), 2 * 1024, ss, 50 * 1024, 0);
  ch.on_windows(Time::seconds(0.40), 4 * 1024, ss, 50 * 1024, 0);  // grow
  // hold RTT: no change until 0.60
  ch.on_windows(Time::seconds(0.60), 8 * 1024, ss, 50 * 1024, 0);  // grow
  ch.on_windows(Time::seconds(0.80), 16 * 1024, ss, 50 * 1024, 0);
  ch.finish();
  EXPECT_TRUE(ch.ok()) << ch.report();
}

TEST(InvariantFaultTest, ReportCapsStoredViolations) {
  InvariantChecker ch;
  for (int i = 0; i < 100; ++i) {
    ch.on_windows(Time::seconds(i), 1, 64 * 1024, 50 * 1024, 0);
  }
  EXPECT_EQ(ch.violation_count(), 100u);
  EXPECT_EQ(ch.violations().size(), 64u);
  EXPECT_NE(ch.report().find("suppressed"), std::string::npos);
}

// ---------------------------------------------------------------- clean runs

/// Runs a solo bulk transfer over the Figure-5 dumbbell with the checker
/// attached (and, for Vegas, wired to the live sender for the BaseRTT
/// cross-check).  Returns the transfer's completion flag.
bool run_checked_solo(const cc::AlgoSpec& spec, InvariantChecker& ch) {
  net::DumbbellConfig topo;
  topo.pairs = 1;
  topo.bottleneck_queue = 10;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, 1);
  traffic::BulkTransfer::Config bt;
  bt.bytes = 1_MB;
  bt.port = 5001;
  bt.cc = &spec.ops();
  spec.apply(bt.tcp.emplace());
  bt.observer = &ch;
  traffic::BulkTransfer t(world.left(0), world.right(0), bt);
  // Fires after the transfer's begin() (scheduled first, same instant)
  // and before the SYN, which connect() defers to a later zero-delay
  // event: the checker sees the sender before its first segment.
  world.sim().schedule(sim::Time::zero(),
                       [&] { ch.attach_sender(&t.connection()->sender()); });
  world.sim().run_until(sim::Time::seconds(300));
  ch.finish();
  return t.done();
}

TEST(InvariantCleanTest, VegasSoloTransferIsViolationFree) {
  InvariantChecker ch(
      InvariantOptions::for_config(tcp::TcpConfig{}, /*vegas_rules=*/true));
  EXPECT_TRUE(run_checked_solo(cc::AlgoSpec::vegas(), ch));
  EXPECT_TRUE(ch.ok()) << ch.report();
  EXPECT_TRUE(ch.measured_min_rtt().has_value());
}

TEST(InvariantCleanTest, RenoSoloTransferIsViolationFree) {
  InvariantChecker ch(
      InvariantOptions::for_config(tcp::TcpConfig{}, /*vegas_rules=*/false));
  EXPECT_TRUE(run_checked_solo(cc::AlgoSpec::reno(), ch));
  EXPECT_TRUE(ch.ok()) << ch.report();
}

TEST(InvariantCleanTest, TahoeSoloTransferIsViolationFree) {
  InvariantChecker ch(
      InvariantOptions::for_config(tcp::TcpConfig{}, /*vegas_rules=*/false));
  EXPECT_TRUE(run_checked_solo(cc::AlgoSpec::tahoe(), ch));
  EXPECT_TRUE(ch.ok()) << ch.report();
}

// -------------------------------------------------------------- determinism

std::uint64_t digest_of_run(std::uint64_t seed, std::size_t queue) {
  net::DumbbellConfig topo;
  topo.pairs = 1;
  topo.bottleneck_queue = queue;
  exp::DumbbellWorld world(topo, tcp::TcpConfig{}, seed);
  trace::ConnTracer tracer;
  traffic::BulkTransfer::Config bt;
  bt.bytes = 256_KB;
  bt.port = 5001;
  bt.cc = &cc::AlgoSpec::vegas().ops();
  bt.observer = &tracer;
  traffic::BulkTransfer t(world.left(0), world.right(0), bt);
  world.sim().run_until(sim::Time::seconds(120));
  EXPECT_TRUE(t.done());
  return trace_digest(tracer.buffer());
}

TEST(DeterminismTest, SameSeedSameTraceDigest) {
  const auto r = check_determinism([] { return digest_of_run(7, 10); });
  EXPECT_TRUE(r.deterministic) << "digests diverged across identical runs";
  ASSERT_EQ(r.digests.size(), 2u);
  EXPECT_EQ(r.digests[0], r.digests[1]);
}

TEST(DeterminismTest, DifferentScenarioDifferentDigest) {
  // Sanity that the digest actually reflects behaviour: a different
  // bottleneck queue changes the trace.
  EXPECT_NE(digest_of_run(7, 10), digest_of_run(7, 5));
}

TEST(DeterminismTest, DigestIsOrderSensitive) {
  trace::TraceBuffer a;
  a.append(Time::seconds(1), trace::EventKind::kCwnd, 1024);
  a.append(Time::seconds(2), trace::EventKind::kCwnd, 2048);
  trace::TraceBuffer b;
  b.append(Time::seconds(2), trace::EventKind::kCwnd, 2048);
  b.append(Time::seconds(1), trace::EventKind::kCwnd, 1024);
  EXPECT_NE(trace_digest(a), trace_digest(b));
  EXPECT_EQ(trace_digest(a), trace_digest(a));
}

}  // namespace
}  // namespace vegas::check
