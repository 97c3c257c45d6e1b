// Observability subsystem tests (src/obs, docs/OBSERVABILITY.md):
// metric cells, registry semantics, the sim-time sampler, scoped
// profiling, the exporters — and the headline determinism contract:
// enabling metrics must not change a single bit of any trace digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "scenario/engine.h"
#include "sim/time.h"

namespace {

using namespace vegas;

std::string repo_path(const std::string& rel) {
  return std::string(VEGAS_REPO_ROOT) + "/" + rel;
}

// ------------------------------------------------------------- cells

TEST(ObsCellsTest, CounterIncrementsAndSnapshots) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  // Copies are snapshots; the bench warm-delta idiom relies on it.
  const obs::Counter warm = c;
  c.inc(8);
  EXPECT_EQ(c - warm, 8u);  // implicit uint64 conversion
  EXPECT_EQ(*c.cell(), 50u);
}

TEST(ObsCellsTest, CounterRecordMaxIsHighWaterMark) {
  obs::Counter c;
  c.record_max(10);
  c.record_max(7);
  EXPECT_EQ(c.value(), 10u);
  c.record_max(12);
  EXPECT_EQ(c.value(), 12u);
}

TEST(ObsCellsTest, GaugeIsLastWriteWins) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
  EXPECT_EQ(*g.cell(), -1.25);
}

TEST(ObsCellsTest, HistogramBucketsObservations) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bounds are inclusive upper edges)
  h.observe(5.0);    // <= 10
  h.observe(1000.0); // +inf bucket
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
}

TEST(ObsCellsDeathTest, HistogramRejectsUnsortedBounds) {
  EXPECT_DEATH(obs::Histogram({10.0, 1.0}), "ascending");
}

// ---------------------------------------------------------- registry

TEST(ObsRegistryTest, EnumeratesInRegistrationOrder) {
  obs::Counter c;
  obs::Gauge g;
  c.inc(7);
  g.set(2.5);
  int probe_calls = 0;
  obs::Registry reg;
  reg.bind_counter("q.fired", c);
  reg.bind_gauge("q.depth", g);
  reg.probe("q.derived", [&probe_calls] {
    ++probe_calls;
    return 9.0;
  });

  ASSERT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.name(0), "q.fired");
  EXPECT_EQ(reg.kind(0), obs::Kind::kCounter);
  EXPECT_EQ(reg.name(1), "q.depth");
  EXPECT_EQ(reg.kind(1), obs::Kind::kGauge);
  EXPECT_EQ(reg.kind(2), obs::Kind::kProbe);
  EXPECT_EQ(reg.read(0), 7.0);
  EXPECT_EQ(reg.read(1), 2.5);
  EXPECT_EQ(reg.read(2), 9.0);
  EXPECT_EQ(probe_calls, 1);

  // Binding records a pointer, not a value: later increments are seen.
  c.inc(3);
  EXPECT_EQ(reg.read(0), 10.0);
}

TEST(ObsRegistryTest, HistogramsEnumerateSeparately) {
  obs::Histogram h({1.0});
  h.observe(0.5);
  obs::Registry reg;
  reg.bind_histogram("rtt_ms", h);
  EXPECT_EQ(reg.size(), 0u);  // not a sampled column
  ASSERT_EQ(reg.histogram_count(), 1u);
  EXPECT_EQ(reg.histogram_name(0), "rtt_ms");
  EXPECT_EQ(reg.histogram(0).total(), 1u);
}

TEST(ObsRegistryDeathTest, RejectsDuplicateAndEmptyNames) {
  obs::Counter c;
  obs::Registry reg;
  reg.bind_counter("x", c);
  EXPECT_DEATH(reg.bind_counter("x", c), "duplicate");
  obs::Registry reg2;
  EXPECT_DEATH(reg2.bind_counter("", c), "name");
}

// ----------------------------------------------------------- sampler

TEST(ObsSamplerTest, FreezesColumnsAndAppendsRows) {
  obs::Counter c;
  obs::Registry reg;
  reg.bind_counter("a", c);
  obs::Sampler sampler(reg, sim::Time::seconds(0.5));

  // Registered after the sampler: deliberately not a column.
  obs::Gauge late;
  reg.bind_gauge("late", late);

  c.inc(2);
  sampler.sample(sim::Time::seconds(0.5));
  c.inc(3);
  sampler.sample(sim::Time::seconds(1.0));

  const obs::TimeSeries& ts = sampler.series();
  ASSERT_EQ(ts.columns.size(), 1u);
  EXPECT_EQ(ts.columns[0], "a");
  ASSERT_EQ(ts.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.rows[0].t_s, 0.5);
  EXPECT_EQ(ts.rows[0].values[0], 2.0);
  EXPECT_DOUBLE_EQ(ts.rows[1].t_s, 1.0);
  EXPECT_EQ(ts.rows[1].values[0], 5.0);
}

// ---------------------------------------------------------- profiler

TEST(ObsProfilerTest, RecordsScopedPhasesAndTotals) {
  obs::Profiler prof;
  {
    const auto a = prof.scope("outer");
    const auto b = prof.scope("inner");
  }
  {
    const auto c = prof.scope("inner");
  }
  // Scopes close inner-first, so completion order is inner, outer, inner.
  ASSERT_EQ(prof.phases().size(), 3u);
  EXPECT_EQ(prof.phases()[0].name, "inner");
  EXPECT_EQ(prof.phases()[1].name, "outer");
  for (const auto& p : prof.phases()) {
    EXPECT_GE(p.start_us, 0.0);
    EXPECT_GE(p.dur_us, 0.0);
  }
  const auto totals = prof.totals_us();
  ASSERT_EQ(totals.size(), 2u);  // first-seen order, duplicates merged
  EXPECT_EQ(totals[0].first, "inner");
  EXPECT_EQ(totals[1].first, "outer");
}

// --------------------------------------------------------- exporters

TEST(ObsExportTest, SeriesLinesCarryHeaderAndExactCounters) {
  obs::Counter c;
  c.inc(1234567890123ull);
  obs::Gauge g;
  g.set(0.25);
  obs::Registry reg;
  reg.bind_counter("n", c);
  reg.bind_gauge("v", g);
  obs::Sampler sampler(reg, sim::Time::seconds(0.1));
  sampler.sample(sim::Time::seconds(0.1));

  const std::string header =
      obs::series_header_line(sampler.series(), 0.1);
  EXPECT_NE(header.find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(header.find("\"columns\":[\"n\",\"v\"]"), std::string::npos);
  EXPECT_NE(header.find("\"kinds\":[\"counter\",\"gauge\"]"),
            std::string::npos);

  const std::string lines =
      obs::series_sample_lines(sampler.series(), /*cell=*/3);
  EXPECT_NE(lines.find("\"type\":\"sample\""), std::string::npos);
  EXPECT_NE(lines.find("\"cell\":3"), std::string::npos);
  // Counters export as exact integers, not %.6g doubles.
  EXPECT_NE(lines.find("1234567890123"), std::string::npos);
  EXPECT_EQ(lines.back(), '\n');
}

TEST(ObsExportTest, SummaryRoundTripsThroughWriter) {
  obs::Counter c;
  c.inc(5);
  obs::Histogram h({1.0});
  h.observe(2.0);
  obs::Registry reg;
  reg.bind_counter("fired", c);
  reg.probe("depth", [] { return 1.5; });
  reg.bind_histogram("lat", h);

  const obs::Summary s = obs::summarize(reg);
  ASSERT_EQ(s.scalars.size(), 2u);
  EXPECT_EQ(s.scalars[0].name, "fired");
  EXPECT_TRUE(s.scalars[0].integral);
  EXPECT_EQ(s.scalars[0].value, 5.0);
  EXPECT_FALSE(s.scalars[1].integral);
  ASSERT_EQ(s.hists.size(), 1u);
  EXPECT_EQ(s.hists[0].total, 1u);

  json::Writer w;
  w.begin_object();
  obs::write_summary(w, s);
  w.end_object();
  const std::string out = w.str();
  EXPECT_NE(out.find("\"fired\":5"), std::string::npos);
  EXPECT_NE(out.find("\"lat\":{"), std::string::npos);
  EXPECT_NE(out.find("\"counts\":[0,1]"), std::string::npos);
}

TEST(ObsExportTest, ChromeTraceHasMetadataAndCompleteEvents) {
  obs::Profiler prof;
  { const auto s = prof.scope("run"); }
  const std::string doc =
      obs::chrome_trace({{"cell0", prof.phases()}, {"cell1", {}}});
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);  // thread_name
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);  // complete event
  EXPECT_NE(doc.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(doc.find("\"tid\":1"), std::string::npos);
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
}

// ----------------------------------------------- determinism contract

// The acceptance bar for the whole subsystem: running the same cell
// with metrics sampling on must reproduce the metrics-off trace digest
// BIT-IDENTICALLY.  Sampler events share the simulator's sequence
// space, but probes are read-only and insertion is monotone, so the
// relative order of protocol events is untouched.
TEST(ObsDeterminismTest, Table1CellDigestIdenticalWithMetricsOn) {
  const scenario::Scenario sc =
      scenario::Scenario::load(repo_path("examples/scenarios/table1.scn"));
  ASSERT_GE(sc.cells(), 1u);

  scenario::RunOptions off;
  const scenario::CellResult base = scenario::run_cell(sc.cell(0), 0, "", off);

  scenario::RunOptions on;
  on.metrics_path = "unused-forces-sampling.jsonl";  // run_cell never writes
  on.metrics_interval_s = 0.05;
  const scenario::CellResult sampled =
      scenario::run_cell(sc.cell(0), 0, "", on);

  ASSERT_TRUE(base.flows[0].traced);
  EXPECT_EQ(sampled.flows[0].trace_digest, base.flows[0].trace_digest);
  EXPECT_EQ(sampled.flows[1].transfer.bytes_delivered,
            base.flows[1].transfer.bytes_delivered);

  // And the sampling actually happened: 300 s at 50 ms cadence.
  EXPECT_TRUE(sampled.metrics_on);
  EXPECT_FALSE(base.metrics_on);
  EXPECT_GE(sampled.series.rows.size(), 100u);
  EXPECT_FALSE(sampled.summary.scalars.empty());
}

TEST(ObsDeterminismTest, InlineScenarioWithMetricsSectionMatchesWithout) {
  const std::string base_scn = R"scn(
[scenario]
name = "obs-derterminism"
stop = "timeout"
timeout_s = 60
seed = 11

[topology]
kind = "dumbbell"
pairs = 1
bottleneck_queue = 10

[[flow]]
name = "f"
protocol = "vegas"
bytes = "512KB"
trace = true
)scn";
  const std::string metrics_scn = std::string(base_scn) +
                                  "\n[metrics]\nenabled = true\n"
                                  "interval_s = 0.1\n";

  const auto r_off = scenario::run_cell(
      scenario::Scenario::from_text(base_scn).cell(0), 0, "", {});
  const auto r_on = scenario::run_cell(
      scenario::Scenario::from_text(metrics_scn).cell(0), 0, "", {});

  ASSERT_TRUE(r_off.flows[0].traced);
  EXPECT_EQ(r_on.flows[0].trace_digest, r_off.flows[0].trace_digest);
  EXPECT_TRUE(r_on.metrics_on);
  EXPECT_FALSE(r_off.metrics_on);
  EXPECT_GE(r_on.series.rows.size(), 10u);

  // The engine registered the documented column families.
  const auto& cols = r_on.series.columns;
  const auto has = [&cols](const std::string& name) {
    for (const auto& c : cols) {
      if (c == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("sim.events_executed"));
  EXPECT_TRUE(has("sim.timing_wheel.fired"));
  EXPECT_TRUE(has("sim.timing_wheel.scheduled"));
  EXPECT_TRUE(has("link.bottleneck.queue_packets"));
  EXPECT_TRUE(has("link.bottleneck.bytes_delivered"));
  EXPECT_TRUE(has("flow.f.cwnd"));
  EXPECT_TRUE(has("packet_pool.outstanding"));

  // cwnd was actually live at some sample (flow runs for many seconds).
  std::size_t cwnd_col = 0;
  while (cols[cwnd_col] != "flow.f.cwnd") ++cwnd_col;
  double peak_cwnd = 0;
  for (const auto& row : r_on.series.rows) {
    peak_cwnd = std::max(peak_cwnd, row.values[cwnd_col]);
  }
  EXPECT_GT(peak_cwnd, 0.0);
}

// ------------------------------------------------- end-to-end export

TEST(ObsExportTest, RunWritesJsonlAndChromeTraceFiles) {
  const std::string dir = ::testing::TempDir();
  const std::string jsonl = dir + "/obs_test_metrics.jsonl";
  const std::string chrome = dir + "/obs_test_trace.json";

  const scenario::Scenario sc = scenario::Scenario::from_text(R"scn(
[scenario]
name = "obs-export"
stop = "timeout"
timeout_s = 30
seed = 3

[topology]
kind = "dumbbell"
pairs = 1
bottleneck_queue = 10

[metrics]
enabled = true
interval_s = 0.25

[[flow]]
name = "f"
protocol = "vegas"
bytes = "256KB"
)scn");
  scenario::RunOptions opts;
  opts.threads = 1;
  opts.metrics_path = jsonl;
  opts.chrome_trace_path = chrome;
  const auto results = scenario::run(sc, opts);
  ASSERT_EQ(results.size(), 1u);

  std::ifstream in(jsonl);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t headers = 0, samples = 0;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"header\"") != std::string::npos) ++headers;
    if (line.find("\"type\":\"sample\"") != std::string::npos) ++samples;
  }
  EXPECT_EQ(headers, 1u);
  EXPECT_GE(samples, 10u);

  std::ifstream cin(chrome);
  ASSERT_TRUE(cin.good());
  std::stringstream ss;
  ss << cin.rdbuf();
  EXPECT_NE(ss.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"name\":\"run\""), std::string::npos);

  std::filesystem::remove(jsonl);
  std::filesystem::remove(chrome);
}

}  // namespace
