// Scenario text for the benchmark's workloads, generated from the
// benchmark seed (README.md, "Workloads").
//
// Nothing here reads examples/scenarios/: the generators spell the
// scenarios out, so an edit to a shipped example cannot move the
// benchmark.  At kDefaultSeed every generated document compiles to the
// same cells as its shipped counterpart (megaflows.scn, table1.scn,
// table2.scn, ccmatrix.scn), so the digests pinned for those files
// apply; other seeds shift every scenario seed by seed_offset().
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 0;

/// Added to every scenario seed: 0 at kDefaultSeed, a multiple of 10000
/// otherwise, so no seed of one grid lands on another grid's seed.
std::uint64_t seed_offset(std::uint64_t bench_seed);

/// The congestion-control modules of the ccmatrix grid and of the
/// per-module `cc.<module>.*` metrics.  Fixed here, not read from the
/// registry, so adding a module cannot change the benchmark.
inline constexpr std::array<const char*, 11> kCcModules{
    "card", "cubic", "dual",  "new-aimd", "newreno", "relentless",
    "reno", "tahoe", "tris",  "vegas",    "yeah"};

/// Seed sets of Table 2 per column; set 0 is table2.scn's.
inline constexpr int kTable2SeedSets = 2;

struct ScenarioText {
  std::string name;  // the [scenario] name, the key of its pinned digests
  std::string text;
};

/// The 100k-flow fan-in cell of megaflows.scn: 16 fan groups of 6,250
/// Vegas flows plus a traced Reno probe, 8 s simulated.  `smoke` shrinks
/// it to 16 x 40 flows and 2 s for the benchmark's own tests.
ScenarioText fanin_text(std::uint64_t bench_seed, bool smoke);

/// Table 1 (four protocol pairs), Table 2 (Reno and Vegas-2,4 columns,
/// kTable2SeedSets sets of 19 seeds per queue each) and the 11 x 11
/// ccmatrix, in run order.  `smoke` keeps a few cells of each.
std::vector<ScenarioText> paper_grid_texts(std::uint64_t bench_seed,
                                           bool smoke);

}  // namespace perfbench
