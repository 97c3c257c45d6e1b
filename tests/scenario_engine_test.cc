// Scenario-engine tests.
//
// The headline property: the shipped Table 1 / Table 2 scenario files
// reproduce the canned runners in src/exp/scenarios.cc BIT-IDENTICALLY
// (same trace digests), and results do not depend on the worker thread
// count.  Plus: schema violations carry file:line:column, and every
// shipped example compiles.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/determinism.h"
#include "common/fsio.h"
#include "exp/scenarios.h"
#include "scenario/engine.h"
#include "trace/conn_tracer.h"

namespace {

using namespace vegas;
using scenario::Scenario;
using scenario::ScenarioError;

std::string repo_path(const std::string& rel) {
  return std::string(VEGAS_REPO_ROOT) + "/" + rel;
}

// ------------------------------------------------- table reproduction

TEST(ScenarioEngineTest, Table1ReproducesCannedOneOnOneAtAnyThreadCount) {
  const Scenario sc =
      Scenario::load(repo_path("examples/scenarios/table1.scn"));
  ASSERT_EQ(sc.cells(), 12u);

  scenario::RunOptions serial;
  serial.threads = 1;
  scenario::RunOptions fanned;
  fanned.threads = 4;
  const auto r1 = scenario::run(sc, serial);
  const auto r4 = scenario::run(sc, fanned);
  ASSERT_EQ(r1.size(), 12u);
  ASSERT_EQ(r4.size(), 12u);

  // Thread count must not leak into results.
  for (std::size_t i = 0; i < r1.size(); ++i) {
    ASSERT_EQ(r1[i].flows.size(), 2u);
    EXPECT_TRUE(r1[i].flows[0].traced);
    EXPECT_EQ(r1[i].flows[0].trace_digest, r4[i].flows[0].trace_digest) << i;
    EXPECT_EQ(r1[i].flows[1].transfer.bytes_delivered,
              r4[i].flows[1].transfer.bytes_delivered)
        << i;
  }

  // Every cell is bit-identical to the hand-written bench grid
  // (bench_table1_one_on_one): queues {15,20} x start delays {0..2.5},
  // seed = 1000 + queue*10 + delay*2, Vegas vs Vegas.
  const std::vector<double> delays{0.0, 0.5, 1.0, 1.5, 2.0, 2.5};
  std::size_t idx = 0;
  for (const std::size_t queue : {15u, 20u}) {
    for (const double delay : delays) {
      exp::OneOnOneParams p;
      p.small = cc::AlgoSpec::vegas();
      p.large = cc::AlgoSpec::vegas();
      p.queue = queue;
      p.small_delay_s = delay;
      p.seed = 1000 + queue * 10 + static_cast<std::uint64_t>(delay * 2);
      trace::ConnTracer tracer;
      p.observer = &tracer;
      const exp::OneOnOneResult canned = exp::run_one_on_one(p);

      const scenario::CellResult& cell = r1[idx];
      SCOPED_TRACE("cell " + std::to_string(idx) + " [" + cell.label + "]");
      EXPECT_EQ(cell.seed, p.seed);
      EXPECT_EQ(cell.flows[0].trace_digest,
                check::trace_digest(tracer.buffer()));
      EXPECT_EQ(cell.flows[0].transfer.bytes_delivered,
                canned.large.bytes_delivered);
      EXPECT_DOUBLE_EQ(cell.flows[0].transfer.throughput_Bps(),
                       canned.large.throughput_Bps());
      EXPECT_EQ(cell.flows[1].transfer.bytes_delivered,
                canned.small.bytes_delivered);
      EXPECT_DOUBLE_EQ(cell.flows[1].transfer.throughput_Bps(),
                       canned.small.throughput_Bps());
      EXPECT_EQ(cell.flows[0].transfer.sender_stats.bytes_retransmitted,
                canned.large.sender_stats.bytes_retransmitted);
      ++idx;
    }
  }
}

TEST(ScenarioEngineTest, Table2ReproducesCannedBackgroundRuns) {
  const Scenario sc =
      Scenario::load(repo_path("examples/scenarios/table2.scn"));
  ASSERT_EQ(sc.cells(), 57u);

  // One representative cell per queue setting (the full 57 would just
  // repeat the same machinery 19x per queue).
  struct Probe {
    std::size_t cell;
    std::size_t queue;
    std::uint64_t seed;
  };
  for (const Probe probe : {Probe{0, 10, 1100}, Probe{19, 15, 1600},
                            Probe{38, 20, 2100}}) {
    SCOPED_TRACE("cell " + std::to_string(probe.cell));
    exp::BackgroundParams p;
    p.transfer = cc::AlgoSpec::vegas(2, 4);
    p.queue = probe.queue;
    p.seed = probe.seed;
    trace::ConnTracer tracer;
    p.observer = &tracer;
    const exp::BackgroundResult canned = exp::run_background(p);

    const scenario::CellResult cell = scenario::run_cell(
        sc.cell(probe.cell), probe.cell, sc.label(probe.cell));
    EXPECT_EQ(cell.seed, probe.seed);
    ASSERT_EQ(cell.flows.size(), 1u);
    EXPECT_EQ(cell.flows[0].trace_digest, check::trace_digest(tracer.buffer()));
    EXPECT_EQ(cell.flows[0].transfer.bytes_delivered,
              canned.transfer.bytes_delivered);
    EXPECT_DOUBLE_EQ(cell.flows[0].transfer.throughput_Bps(),
                     canned.transfer.throughput_Bps());
    EXPECT_DOUBLE_EQ(cell.background_goodput_Bps,
                     canned.background_goodput_Bps);
    ASSERT_EQ(cell.traffic.size(), 1u);
    EXPECT_EQ(cell.traffic[0].stats.started, canned.traffic.started);
    EXPECT_EQ(cell.traffic[0].stats.completed, canned.traffic.completed);
  }
}

TEST(ScenarioEngineTest, FlowVegasThresholdsMatchCannedAlgoSpec) {
  // `alpha`/`beta` on table1.scn's flows reach the senders exactly as
  // cc::AlgoSpec::vegas(1, 3) does in the canned runner, and they do
  // change the run (cell 2: queue 15, small flow 1 s late).
  const std::string stock =
      *common::read_file(repo_path("examples/scenarios/table1.scn"));
  std::string tuned = stock;
  const std::string key = "protocol = \"vegas\"\n";
  for (std::size_t at = tuned.find(key); at != std::string::npos;
       at = tuned.find(key, at + 1)) {
    tuned.insert(at + key.size(), "alpha = 1\nbeta = 3\n");
  }
  const auto digest = [](const std::string& text) {
    const Scenario sc = Scenario::from_text(text, "table1.scn");
    return scenario::run_cell(sc.cell(2), 2, sc.label(2)).flows[0].trace_digest;
  };

  exp::OneOnOneParams p;
  p.large = cc::AlgoSpec::vegas(1, 3);
  p.small = cc::AlgoSpec::vegas(1, 3);
  p.queue = 15;
  p.small_delay_s = 1.0;
  p.seed = 1152;
  trace::ConnTracer tracer;
  p.observer = &tracer;
  exp::run_one_on_one(p);
  EXPECT_EQ(digest(tuned), check::trace_digest(tracer.buffer()));
  EXPECT_NE(digest(tuned), digest(stock));
}

TEST(ScenarioEngineTest, EveryShippedExampleCompiles) {
  for (const char* rel :
       {"examples/scenarios/table1.scn", "examples/scenarios/table2.scn",
        "examples/scenarios/red-dumbbell.scn",
        "examples/scenarios/parking-lot.scn", "examples/scenarios/wan.scn",
        "examples/scenarios/graph.scn"}) {
    SCOPED_TRACE(rel);
    EXPECT_NO_THROW(Scenario::load(repo_path(rel)));
  }
}

// ------------------------------------------------------- other shapes

TEST(ScenarioEngineTest, GraphTopologyRunsEndToEnd) {
  const Scenario sc = Scenario::from_text(
      "[scenario]\n"
      "stop = \"timeout\"\n"
      "timeout_s = 30\n"
      "[topology]\n"
      "kind = \"graph\"\n"
      "[[node]]\n"
      "name = \"h1\"\n"
      "[[node]]\n"
      "name = \"h2\"\n"
      "[[node]]\n"
      "name = \"r\"\n"
      "router = true\n"
      "[[link]]\n"
      "a = \"h1\"\n"
      "b = \"r\"\n"
      "kbps = 1000\n"
      "delay_ms = 1\n"
      "queue = 50\n"
      "[[link]]\n"
      "a = \"r\"\n"
      "b = \"h2\"\n"
      "kbps = 200\n"
      "delay_ms = 10\n"
      "queue = 10\n"
      "[[flow]]\n"
      "protocol = \"vegas\"\n"
      "bytes = \"100KB\"\n"
      "src = \"h1\"\n"
      "dst = \"h2\"\n"
      "trace = true\n");
  const scenario::CellResult r = scenario::run_cell(sc.cell(0), 0, "");
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_TRUE(r.flows[0].transfer.completed);
  EXPECT_NE(r.flows[0].trace_digest, 0u);

  // Same spec, same digest: the graph build is deterministic.
  const scenario::CellResult again = scenario::run_cell(sc.cell(0), 0, "");
  EXPECT_EQ(r.flows[0].trace_digest, again.flows[0].trace_digest);
}

// ------------------------------------------------- [[flow]] count = N

TEST(ScenarioCompileTest, CountReplicatesFlowOntoConsecutivePorts) {
  const Scenario sc = Scenario::from_text(
      "[topology]\n"
      "kind = \"dumbbell\"\n"
      "[[flow]]\n"
      "name = \"fan\"\n"
      "protocol = \"vegas\"\n"
      "bytes = 1000\n"
      "port = 5001\n"
      "count = 4\n"
      "stagger_s = 0.25\n"
      "start_s = 1.0\n",
      "test.scn");
  const scenario::ScenarioSpec& spec = sc.cell(0);
  ASSERT_EQ(spec.flows.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spec.flows[i].name, "fan." + std::to_string(i));
    EXPECT_EQ(spec.flows[i].port, 5001 + i);
    EXPECT_DOUBLE_EQ(spec.flows[i].start_s,
                     1.0 + 0.25 * static_cast<double>(i));
  }
}

TEST(ScenarioCompileTest, CountOfOneKeepsPlainNameAndPort) {
  const Scenario sc = Scenario::from_text(
      "[topology]\n"
      "kind = \"dumbbell\"\n"
      "[[flow]]\n"
      "name = \"solo\"\n"
      "protocol = \"reno\"\n"
      "bytes = 1000\n"
      "count = 1\n",
      "test.scn");
  ASSERT_EQ(sc.cell(0).flows.size(), 1u);
  EXPECT_EQ(sc.cell(0).flows[0].name, "solo");
}

TEST(ScenarioCompileTest, CountIsSweepableLikeManyflows) {
  // The manyflows.scn pattern: the fan size is itself the swept axis.
  const Scenario sc = Scenario::from_text(
      "[topology]\n"
      "kind = \"dumbbell\"\n"
      "[[flow]]\n"
      "name = \"fan\"\n"
      "protocol = \"vegas\"\n"
      "bytes = 1000\n"
      "port = 5001\n"
      "count = 2\n"
      "[sweep]\n"
      "flow.fan.count = [2, 5]\n",
      "test.scn");
  ASSERT_EQ(sc.cells(), 2u);
  EXPECT_EQ(sc.cell(0).flows.size(), 2u);
  EXPECT_EQ(sc.cell(1).flows.size(), 5u);
}

TEST(ScenarioCompileTest, CountErrorsPointAtTheFlowSection) {
  const char* bad[] = {
      // count < 1
      "[topology]\nkind = \"dumbbell\"\n[[flow]]\nprotocol = \"vegas\"\n"
      "bytes = 1000\ncount = 0\n",
      // replicated ports run past 65535
      "[topology]\nkind = \"dumbbell\"\n[[flow]]\nprotocol = \"vegas\"\n"
      "bytes = 1000\nport = 65000\ncount = 1000\n",
      // tracing a replicated group
      "[topology]\nkind = \"dumbbell\"\n[[flow]]\nprotocol = \"vegas\"\n"
      "bytes = 1000\ncount = 2\ntrace = true\n",
      // negative stagger
      "[topology]\nkind = \"dumbbell\"\n[[flow]]\nprotocol = \"vegas\"\n"
      "bytes = 1000\ncount = 2\nstagger_s = -0.1\n",
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    try {
      Scenario::from_text(text, "test.scn");
      FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
      EXPECT_EQ(e.diag().file, "test.scn");
      EXPECT_GT(e.diag().line, 0);
    }
  }
}

TEST(ScenarioCompileTest, ReplicaPortCollisionNamesBothFlows) {
  // Two groups whose port ranges overlap at the same destination must
  // be rejected with the colliding flow names in the message.
  try {
    Scenario::from_text(
        "[topology]\n"
        "kind = \"dumbbell\"\n"
        "[[flow]]\n"
        "name = \"a\"\n"
        "protocol = \"vegas\"\n"
        "bytes = 1000\n"
        "port = 5001\n"
        "count = 3\n"
        "[[flow]]\n"
        "name = \"b\"\n"
        "protocol = \"reno\"\n"
        "bytes = 1000\n"
        "src = \"left0\"\n"
        "dst = \"right0\"\n"
        "port = 5003\n",
        "test.scn");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(e.diag().message.find("5003"), std::string::npos);
    EXPECT_NE(e.diag().message.find("a.2"), std::string::npos);
  }
}

// --------------------------------------------------------- diagnostics

TEST(ScenarioCompileTest, UnknownKeyPointsAtItsLine) {
  try {
    Scenario::from_text(
        "[scenario]\n"
        "name = \"x\"\n"
        "[topology]\n"
        "kind = \"dumbbell\"\n"
        "bogus_key = 1\n"
        "[[flow]]\n"
        "protocol = \"vegas\"\n"
        "bytes = 1000\n",
        "test.scn");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.diag().file, "test.scn");
    EXPECT_EQ(e.diag().line, 5);
    EXPECT_EQ(e.diag().col, 1);
    EXPECT_NE(e.diag().message.find("bogus_key"), std::string::npos);
  }
}

TEST(ScenarioCompileTest, UnknownProtocolPointsAtItsLine) {
  try {
    Scenario::from_text(
        "[topology]\n"
        "kind = \"dumbbell\"\n"
        "[[flow]]\n"
        "protocol = \"quic\"\n"
        "bytes = 1000\n",
        "test.scn");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.diag().line, 4);
    EXPECT_GT(e.diag().col, 0);
    EXPECT_NE(e.diag().message.find("quic"), std::string::npos);
  }
}

TEST(ScenarioCompileTest, DanglingEndpointPointsAtItsLine) {
  try {
    Scenario::from_text(
        "[topology]\n"
        "kind = \"dumbbell\"\n"
        "pairs = 2\n"
        "[[flow]]\n"
        "protocol = \"vegas\"\n"
        "bytes = 1000\n"
        "src = \"left9\"\n",
        "test.scn");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.diag().line, 7);
    EXPECT_GT(e.diag().col, 0);
    EXPECT_NE(e.diag().message.find("left9"), std::string::npos);
  }
}

TEST(ScenarioCompileTest, SweptValueFailuresPointAtTheSweepSection) {
  // The bad value lives in [sweep]; compile of the expanded cell must
  // blame that source line, not a synthetic location.
  try {
    Scenario::from_text(
        "[topology]\n"
        "kind = \"dumbbell\"\n"
        "[[flow]]\n"
        "protocol = \"vegas\"\n"
        "bytes = 1000\n"
        "[sweep]\n"
        "topology.bottleneck_queue = [10, -5]\n",
        "test.scn");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.diag().line, 7);
    EXPECT_GT(e.diag().col, 0);
  }
}

}  // namespace
