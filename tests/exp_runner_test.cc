// ParallelRunner: index-ordered results, exception propagation, and the
// property the whole parallel-sweep design rests on — per-cell results
// (down to the trace digest) independent of the thread count.
#include "exp/runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "check/determinism.h"
#include "exp/scenarios.h"
#include "trace/conn_tracer.h"

namespace vegas::exp {
namespace {

using cc::AlgoSpec;

TEST(RunnerTest, MapReturnsResultsInIndexOrder) {
  for (const int threads : {1, 2, 4, 7}) {
    ParallelRunner runner(threads);
    const auto out = runner.map(100, [](int i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(RunnerTest, EmptyAndSingleItem) {
  ParallelRunner runner(4);
  EXPECT_TRUE(runner.map(0, [](int) { return 0; }).empty());
  const auto one = runner.map(1, [](int i) { return i + 41; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41);
}

TEST(RunnerTest, PropagatesFirstException) {
  ParallelRunner runner(3);
  EXPECT_THROW(runner.map(16,
                          [](int i) {
                            if (i == 5) throw std::runtime_error("cell 5");
                            return i;
                          }),
               std::runtime_error);
}

TEST(RunnerTest, ResolveThreadsFloorsAtOne) {
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_GE(resolve_threads(-7), 1);
}

// Runs a small one-on-one sweep at the given thread count and returns
// one trace digest per cell (each cell gets its own tracer — observers
// are driven concurrently).
std::vector<std::uint64_t> sweep_digests(int threads) {
  constexpr int kCells = 6;
  std::vector<std::unique_ptr<trace::ConnTracer>> tracers;
  std::vector<OneOnOneParams> cells;
  for (int i = 0; i < kCells; ++i) {
    tracers.push_back(std::make_unique<trace::ConnTracer>());
    OneOnOneParams p;
    p.large = i % 2 == 0 ? AlgoSpec::vegas(1, 3) : AlgoSpec::reno();
    p.small = AlgoSpec::reno();
    p.large_bytes = 200_KB;
    p.small_bytes = 50_KB;
    p.queue = 10 + static_cast<std::size_t>(i);
    p.seed = 42 + static_cast<std::uint64_t>(i);
    p.timeout_s = 120.0;
    p.observer = tracers.back().get();
    cells.push_back(p);
  }
  const auto results = run_one_on_one_sweep(cells, threads);
  EXPECT_EQ(results.size(), cells.size());
  std::vector<std::uint64_t> digests;
  for (const auto& t : tracers) {
    digests.push_back(check::trace_digest(t->buffer()));
  }
  return digests;
}

TEST(RunnerTest, SweepDigestsIndependentOfThreadCount) {
  const auto seq = sweep_digests(1);
  // Distinct cells must have produced distinct traces, or the digest
  // comparison below would be vacuous.
  for (std::size_t i = 1; i < seq.size(); ++i) EXPECT_NE(seq[0], seq[i]);
  EXPECT_EQ(sweep_digests(3), seq);
  EXPECT_EQ(sweep_digests(4), seq);
}

TEST(RunnerTest, SweepResultsIdenticalAcrossThreadCounts) {
  std::vector<WanParams> cells;
  for (int i = 0; i < 4; ++i) {
    WanParams p;
    p.algo = AlgoSpec::vegas(1, 3);
    p.bytes = 100_KB;
    p.seed = 7 + static_cast<std::uint64_t>(i);
    cells.push_back(p);
  }
  const auto seq = run_wan_sweep(cells, 1);
  const auto par = run_wan_sweep(cells, 4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].bytes_delivered, par[i].bytes_delivered);
    EXPECT_EQ(seq[i].sender_stats.bytes_retransmitted,
              par[i].sender_stats.bytes_retransmitted);
    EXPECT_EQ(seq[i].sender_stats.coarse_timeouts,
              par[i].sender_stats.coarse_timeouts);
    EXPECT_EQ(seq[i].end.ns(), par[i].end.ns());
  }
}

}  // namespace
}  // namespace vegas::exp
