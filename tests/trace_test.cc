// Trace facility tests: tracer fidelity, analyzer series, summaries,
// ASCII/CSV output.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "cc/registry.h"
#include "exp/world.h"
#include "net/loss.h"
#include "trace/analyzer.h"
#include "trace/conn_tracer.h"
#include "traffic/bulk.h"

namespace vegas::trace {
namespace {

using namespace sim::literals;

struct TracedRun {
  ConnTracer tracer;
  traffic::TransferResult result;
};

TracedRun traced_transfer(const char* module, ByteCount bytes,
                          double loss = 0.0, std::size_t queue = 10) {
  TracedRun run;
  net::DumbbellConfig cfg;
  cfg.pairs = 1;
  cfg.bottleneck_queue = queue;
  exp::DumbbellWorld world(cfg, tcp::TcpConfig{}, 2);
  if (loss > 0) {
    world.topo().bottleneck_fwd->set_loss_model(
        std::make_unique<net::BernoulliLoss>(loss, 55));
  }
  traffic::BulkTransfer::Config bt;
  bt.bytes = bytes;
  bt.port = 5001;
  bt.cc = cc::find(module);
  bt.observer = &run.tracer;
  traffic::BulkTransfer t(world.left(0), world.right(0), bt);
  world.sim().run_until(sim::Time::seconds(600));
  EXPECT_TRUE(t.done());
  run.result = t.result();
  return run;
}

TEST(TracerTest, RecordsLifecycleEvents) {
  auto run = traced_transfer("reno", 50_KB);
  Analyzer az(run.tracer.buffer());
  EXPECT_EQ(az.marks(EventKind::kEstablished).size(), 1u);
  EXPECT_EQ(az.marks(EventKind::kClosed).size(), 1u);
  EXPECT_GE(az.marks(EventKind::kSegSent).size(), 50u);
  EXPECT_GE(az.marks(EventKind::kAckRcvd).size(), 40u);
  EXPECT_FALSE(az.series(EventKind::kCwnd).empty());
}

TEST(TracerTest, SummaryMatchesSenderStats) {
  auto run = traced_transfer("reno", 300_KB, 0.02);
  const auto summary = Analyzer(run.tracer.buffer()).summary();
  const auto& st = run.result.sender_stats;
  EXPECT_EQ(summary.segments_sent, st.segments_sent);
  // Every fast/fine retransmit is an explicit kRetransmit event; coarse
  // timeouts resend via go-back-N, so events <= total retransmissions.
  EXPECT_EQ(summary.fast_retransmits, st.fast_retransmits);
  EXPECT_EQ(summary.dup_acks, st.dup_acks_received);
}

TEST(TracerTest, CoarseTicksPresent) {
  auto run = traced_transfer("reno", 200_KB);
  const auto ticks =
      Analyzer(run.tracer.buffer()).marks(EventKind::kCoarseTick);
  // ~500 ms apart over several seconds of transfer.
  ASSERT_GE(ticks.size(), 3u);
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    EXPECT_NEAR(ticks[i] - ticks[i - 1], 0.5, 0.01);
  }
}

TEST(TracerTest, LossLinesMatchRetransmittedOffsets) {
  auto run = traced_transfer("reno", 300_KB, 0.05);
  Analyzer az(run.tracer.buffer());
  const auto losses = az.presumed_loss_times();
  ASSERT_FALSE(losses.empty());
  // Loss lines are drawn at original send instants: each must precede the
  // trace's end and be nonnegative.
  const auto summary = az.summary();
  for (const double t : losses) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, summary.duration_s);
  }
}

TEST(TracerTest, CamSeriesOnlyForVegas) {
  auto reno = traced_transfer("reno", 100_KB);
  auto vegas = traced_transfer("vegas", 100_KB);
  EXPECT_TRUE(Analyzer(reno.tracer.buffer())
                  .series(EventKind::kCamExpected)
                  .empty());
  const auto expected =
      Analyzer(vegas.tracer.buffer()).series(EventKind::kCamExpected);
  const auto actual =
      Analyzer(vegas.tracer.buffer()).series(EventKind::kCamActual);
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(expected.size(), actual.size());
  // Expected >= Actual for every CAM sample (Diff >= 0, §3.2).
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_GE(expected[i].value + 1.0, actual[i].value);
  }
}

TEST(TracerTest, WindowSeriesIsStepwiseAndBounded) {
  auto run = traced_transfer("vegas", 200_KB);
  const auto cwnd = Analyzer(run.tracer.buffer()).series(EventKind::kCwnd);
  ASSERT_FALSE(cwnd.empty());
  for (const auto& p : cwnd) {
    EXPECT_GE(p.value, 1024.0);        // >= 1 MSS
    EXPECT_LE(p.value, 1024.0 * 128);  // sane upper bound
  }
}

TEST(AnalyzerTest, SendingRateWindowAverage) {
  auto run = traced_transfer("vegas", 200_KB, 0.0, 20);
  const auto rate = Analyzer(run.tracer.buffer()).sending_rate(12);
  ASSERT_FALSE(rate.empty());
  // Steady-state rate should be within a sane band around the bottleneck.
  double peak = 0;
  for (const auto& p : rate) peak = std::max(peak, p.value);
  EXPECT_GT(peak, 50.0 * 1024);
  EXPECT_LT(peak, 2000.0 * 1024);
}

TEST(AnalyzerTest, SendingRateNeedsAFullWindow) {
  // 5 data sends, window 12: never enough history to emit a sample.
  TraceBuffer buf;
  for (int i = 0; i < 5; ++i) {
    buf.append(sim::Time::seconds(0.1 * i), EventKind::kSegSent,
               static_cast<std::uint32_t>(1000 * i), /*aux=*/0, /*len=*/1000);
  }
  EXPECT_TRUE(Analyzer(buf).sending_rate(12).empty());
  // Zero-length sends (pure control segments) never count toward the
  // window either.
  TraceBuffer ctl;
  for (int i = 0; i < 3; ++i) {
    ctl.append(sim::Time::seconds(0.1 * i), EventKind::kSegSent, 0, 0,
               /*len=*/0);
  }
  EXPECT_TRUE(Analyzer(ctl).sending_rate(2).empty());
}

TEST(AnalyzerTest, SendingRateWindowOfOneIsAlwaysEmpty) {
  // window = 1 is accepted but a single send spans no interval, so the
  // series stays empty no matter how many sends arrive.
  TraceBuffer buf;
  for (int i = 0; i < 10; ++i) {
    buf.append(sim::Time::seconds(0.1 * i), EventKind::kSegSent,
               static_cast<std::uint32_t>(1000 * i), 0, 1000);
  }
  EXPECT_TRUE(Analyzer(buf).sending_rate(1).empty());
}

TEST(AnalyzerTest, SendingRateExactWindowValue) {
  // Sends of 1000 B at t = 0, 1, 2, 3 s with window 3: the first sample
  // lands at t = 2 averaging the 2000 B sent across the 2 s since the
  // window opened (the opening send's bytes started the interval).
  TraceBuffer buf;
  for (int i = 0; i < 4; ++i) {
    buf.append(sim::Time::seconds(i), EventKind::kSegSent,
               static_cast<std::uint32_t>(1000 * i), 0, 1000);
  }
  const auto rate = Analyzer(buf).sending_rate(3);
  ASSERT_EQ(rate.size(), 2u);
  EXPECT_DOUBLE_EQ(rate[0].t_s, 2.0);
  EXPECT_DOUBLE_EQ(rate[0].value, 1000.0);
  EXPECT_DOUBLE_EQ(rate[1].t_s, 3.0);
  EXPECT_DOUBLE_EQ(rate[1].value, 1000.0);
}

TEST(AnalyzerTest, PresumedLossDedupsRepeatedRetransmits) {
  // Offset 2000 is sent at t=0.2 and retransmitted twice; the loss line
  // is drawn once, at the ORIGINAL send time.  Offset 1000 is never
  // retransmitted and draws no line.
  TraceBuffer buf;
  buf.append(sim::Time::seconds(0.1), EventKind::kSegSent, 1000, 0, 1000);
  buf.append(sim::Time::seconds(0.2), EventKind::kSegSent, 2000, 0, 1000);
  buf.append(sim::Time::seconds(0.5), EventKind::kSegSent, 2000, /*aux=*/1,
             1000);
  buf.append(sim::Time::seconds(0.9), EventKind::kSegSent, 2000, /*aux=*/1,
             1000);
  const auto losses = Analyzer(buf).presumed_loss_times();
  ASSERT_EQ(losses.size(), 1u);
  EXPECT_DOUBLE_EQ(losses[0], 0.2);
}

TEST(AnalyzerTest, PresumedLossEmptyWithoutRetransmits) {
  TraceBuffer buf;
  buf.append(sim::Time::seconds(0.1), EventKind::kSegSent, 1000, 0, 1000);
  buf.append(sim::Time::seconds(0.2), EventKind::kSegSent, 2000, 0, 1000);
  EXPECT_TRUE(Analyzer(buf).presumed_loss_times().empty());
}

TEST(AnalyzerTest, AckDelaysMatchSendToAckSpans) {
  // Segment [0,1000) sent at t=0.1, acked at t=0.3 (delay 0.2 s).
  // Segments [1000,2000) and [2000,3000) sent at 0.15/0.2 and covered
  // by one cumulative ACK of 3000 at t=0.4 — two samples at that time.
  TraceBuffer buf;
  buf.append(sim::Time::seconds(0.10), EventKind::kSegSent, 0, 0, 1000);
  buf.append(sim::Time::seconds(0.15), EventKind::kSegSent, 1000, 0, 1000);
  buf.append(sim::Time::seconds(0.20), EventKind::kSegSent, 2000, 0, 1000);
  buf.append(sim::Time::seconds(0.30), EventKind::kAckRcvd, 1000, 0, 0);
  buf.append(sim::Time::seconds(0.40), EventKind::kAckRcvd, 3000, 0, 0);
  const auto d = Analyzer(buf).ack_delays();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0].t_s, 0.3);
  EXPECT_NEAR(d[0].value, 0.2, 1e-6);
  EXPECT_DOUBLE_EQ(d[1].t_s, 0.4);
  EXPECT_NEAR(d[1].value, 0.25, 1e-6);
  EXPECT_NEAR(d[2].value, 0.20, 1e-6);
}

TEST(AnalyzerTest, AckDelaysApplyKarnFilterAndSkipDupAcks) {
  // Offset 0 is retransmitted, so its ACK yields no sample (Karn); the
  // duplicate ACK (aux=1) at t=0.25 never matches anything.
  TraceBuffer buf;
  buf.append(sim::Time::seconds(0.10), EventKind::kSegSent, 0, 0, 1000);
  buf.append(sim::Time::seconds(0.15), EventKind::kSegSent, 1000, 0, 1000);
  buf.append(sim::Time::seconds(0.25), EventKind::kAckRcvd, 0, /*aux=*/1, 0);
  buf.append(sim::Time::seconds(0.30), EventKind::kSegSent, 0, /*aux=*/1,
             1000);
  buf.append(sim::Time::seconds(0.50), EventKind::kAckRcvd, 2000, 0, 0);
  const auto d = Analyzer(buf).ack_delays();
  ASSERT_EQ(d.size(), 1u);  // only the clean [1000,2000) segment
  EXPECT_DOUBLE_EQ(d[0].t_s, 0.5);
  EXPECT_NEAR(d[0].value, 0.35, 1e-6);
}

TEST(AnalyzerTest, CsvWriteRoundTrips) {
  Series s{{0.0, 1.0}, {0.5, 2.0}, {1.0, 3.0}};
  const auto path =
      std::filesystem::temp_directory_path() / "vegas_trace_test.csv";
  write_csv(path.string(), s, "value");
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "t,value\n");
  int rows = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) ++rows;
  std::fclose(f);
  std::filesystem::remove(path);
  EXPECT_EQ(rows, 3);
}

TEST(AnalyzerTest, AsciiChartRenders) {
  Series a{{0.0, 0.0}, {1.0, 10.0}, {2.0, 5.0}};
  Series b{{0.0, 3.0}, {2.0, 3.0}};
  const std::string chart = ascii_chart(a, "cwnd", &b, "ssthresh", 40, 8);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
  EXPECT_NE(chart.find("cwnd"), std::string::npos);
  EXPECT_EQ(ascii_chart({}, "empty"), "(empty series)\n");
}

TEST(TraceBufferTest, CompactEventsAreTwelveBytes) {
  EXPECT_EQ(sizeof(TraceEvent), 12u);
  TraceBuffer buf(4);
  buf.append(1_ms, EventKind::kCwnd, 4096);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.events()[0].t_us, 1000u);
  EXPECT_EQ(buf.events()[0].value, 4096u);
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
}


TEST(TraceBufferTest, SaveLoadRoundTrips) {
  TraceBuffer buf;
  buf.append(1_ms, EventKind::kCwnd, 4096, 1, 512);
  buf.append(2_ms, EventKind::kRetransmit, 1024, 2);
  const auto path = (std::filesystem::temp_directory_path() /
                     "vegas_trace_roundtrip.bin").string();
  ASSERT_TRUE(buf.save(path));
  TraceBuffer loaded;
  ASSERT_TRUE(loaded.load(path));
  std::filesystem::remove(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.events()[0].t_us, 1000u);
  EXPECT_EQ(loaded.events()[0].kind, EventKind::kCwnd);
  EXPECT_EQ(loaded.events()[0].value, 4096u);
  EXPECT_EQ(loaded.events()[0].len, 512u);
  EXPECT_EQ(loaded.events()[1].aux, 2u);
}

TEST(TraceBufferTest, LoadRejectsGarbage) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "vegas_trace_garbage.bin").string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace file at all", f);
  std::fclose(f);
  TraceBuffer buf;
  EXPECT_FALSE(buf.load(path));
  EXPECT_EQ(buf.size(), 0u);
  std::filesystem::remove(path);
  EXPECT_FALSE(buf.load("/nonexistent/path/file.bin"));
}

TEST(TraceBufferDeathTest, RejectsTimestampsBeyond32BitMicroseconds) {
  TraceBuffer buf;
  // 2^32 us ~ 4294.97 s; the guard must admit everything below the edge
  // and refuse to wrap (wrapping would silently fold late events onto
  // early timestamps and corrupt every digest downstream).
  buf.append(sim::Time::seconds(4294.0), EventKind::kCwnd, 1);
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_DEATH(buf.append(sim::Time::seconds(4295.0), EventKind::kCwnd, 1),
               "32-bit microsecond range");
}

}  // namespace
}  // namespace vegas::trace
