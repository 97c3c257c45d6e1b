// Pinned trace digests as a Tier-1 gate.  Every traced flow of the
// benchmark's paper grid (Table 1, Table 2 in both seed sets, the 11 x 11
// cc matrix) and of the fan-in smoke probe runs through
// scenario::run_cell, and its digest must equal the pin in
// perfbench/pins.tsv under the key perfbench uses: scenario, cell label,
// flow.  The scenario texts come from perfbench/workloads.cc at the
// default seed, so this test and `perfbench --workload paper_grid` check
// the very same cells.
//
// The test only reads the pins.  `perfbench --write-pins` is the one way
// to re-pin (perfbench/README.md).  One case per family, so `ctest -j`
// runs them side by side.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "scenario/engine.h"
#include "workloads.h"

namespace vegas::scenario {
namespace {

using Pins = std::map<std::string, std::uint64_t>;

/// perfbench/pins.tsv: `scenario<TAB>label<TAB>flow<TAB>0xdigest` lines.
const Pins& pins() {
  static const Pins loaded = [] {
    Pins p;
    std::ifstream in(std::string(VEGAS_REPO_ROOT) + "/perfbench/pins.tsv");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t tab = line.rfind('\t');
      if (tab == std::string::npos) continue;
      p[line.substr(0, tab)] =
          std::strtoull(line.c_str() + tab + 1, nullptr, 16);
    }
    return p;
  }();
  return loaded;
}

std::string hex(std::uint64_t d) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

/// The key with its tabs shown, for failure messages.
std::string shown(std::string key) {
  for (std::size_t at = key.find('\t'); at != std::string::npos;
       at = key.find('\t', at)) {
    key.replace(at, 1, " | ");
  }
  return "[" + key + "]";
}

std::string scenario_of(const std::string& key) {
  return key.substr(0, key.find('\t'));
}

/// Runs every cell of `texts` and checks each traced digest against its
/// pin; every pin of those scenarios must also be produced by some cell.
void check_pins(const std::vector<perfbench::ScenarioText>& texts) {
  ASSERT_FALSE(pins().empty()) << "no pins read from perfbench/pins.tsv";
  ASSERT_FALSE(texts.empty());
  RunOptions ro;
  ro.threads = 1;
  ro.shards = 1;
  std::set<std::string> names;
  std::set<std::string> seen;
  for (const perfbench::ScenarioText& t : texts) {
    names.insert(t.name);
    const Scenario sc = Scenario::from_text(t.text, t.name);
    for (std::size_t i = 0; i < sc.cells(); ++i) {
      const CellResult r = run_cell(sc.cell(i), i, sc.label(i), ro);
      for (const FlowResult& fr : r.flows) {
        if (!fr.traced) continue;
        const std::string key = t.name + "\t" + r.label + "\t" + fr.name;
        seen.insert(key);
        const auto it = pins().find(key);
        if (it == pins().end()) {
          ADD_FAILURE() << shown(key) << " digest " << hex(fr.trace_digest)
                        << ", pinned (none)";
        } else if (it->second != fr.trace_digest) {
          ADD_FAILURE() << shown(key) << " digest " << hex(fr.trace_digest)
                        << ", pinned " << hex(it->second);
        }
      }
    }
  }
  for (const auto& [key, digest] : pins()) {
    if (names.contains(scenario_of(key)) && !seen.contains(key)) {
      ADD_FAILURE() << shown(key) << " pinned " << hex(digest)
                    << ", but no cell produced it";
    }
  }
}

using Family = bool (*)(const std::string& scenario);

bool is_table1(const std::string& s) { return s.starts_with("table1-"); }
bool is_table2_set0(const std::string& s) {
  return s.starts_with("table2-") && !s.ends_with("-s1");
}
bool is_table2_set1(const std::string& s) {
  return s.starts_with("table2-") && s.ends_with("-s1");
}
bool is_ccmatrix(const std::string& s) { return s == "cc-matrix"; }

std::vector<perfbench::ScenarioText> grid(Family family) {
  std::vector<perfbench::ScenarioText> out;
  for (perfbench::ScenarioText& t :
       perfbench::paper_grid_texts(perfbench::kDefaultSeed, false)) {
    if (family(t.name)) out.push_back(std::move(t));
  }
  return out;
}

TEST(PinsTest, FamiliesCoverEveryGridScenarioOnce) {
  for (const perfbench::ScenarioText& t :
       perfbench::paper_grid_texts(perfbench::kDefaultSeed, false)) {
    const int hits = is_table1(t.name) + is_table2_set0(t.name) +
                     is_table2_set1(t.name) + is_ccmatrix(t.name);
    EXPECT_EQ(hits, 1) << t.name;
  }
}

TEST(PinsTest, Table1) { check_pins(grid(is_table1)); }

TEST(PinsTest, Table2SeedSet0) { check_pins(grid(is_table2_set0)); }

TEST(PinsTest, Table2SeedSet1) { check_pins(grid(is_table2_set1)); }

TEST(PinsTest, CcMatrixAndFanInProbe) {
  std::vector<perfbench::ScenarioText> texts = grid(is_ccmatrix);
  texts.push_back(perfbench::fanin_text(perfbench::kDefaultSeed, true));
  check_pins(texts);
}

}  // namespace
}  // namespace vegas::scenario
