// Unit tests for the include-graph layering checker
// (tools/lint_layering.h): illegal edges, cycles, opt-out markers, and
// the DOT artifact, all on in-memory fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/lint_layering.h"

namespace vegas::lint {
namespace {

std::vector<Finding> of_rule(const LayeringResult& r, const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : r.findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

TEST(LayeringTest, LegalEdgesProduceNoFindings) {
  const std::vector<SourceFile> files = {
      {"src/common/types.h", "#pragma once\n"},
      {"src/sim/time.h", "#include \"common/types.h\"\n"},
      {"src/net/link.h", "#include \"sim/time.h\"\n#include \"obs/m.h\"\n"},
      {"src/obs/m.h", "#include \"common/types.h\"\n"},
      {"src/tcp/stack.h", "#include \"net/link.h\"\n"},
      {"src/cc/registry.h", "#include \"tcp/stack.h\"\n"},
      {"src/scenario/engine.h", "#include \"exp/runner.h\"\n"},
      {"src/exp/runner.h", "#include \"check/det.h\"\n"},
      {"src/check/det.h", "#include \"trace/buf.h\"\n"},
      {"src/trace/buf.h", "#include \"tcp/stack.h\"\n"},
  };
  const LayeringResult r = check_layering(files);
  EXPECT_TRUE(r.findings.empty())
      << r.findings.front().file << ": " << r.findings.front().detail;
}

TEST(LayeringTest, IllegalEdgeReportedWithFileAndLine) {
  const std::vector<SourceFile> files = {
      {"src/sim/timer.h",
       "#pragma once\n#include \"tcp/stack.h\"\n"},  // sim must not see tcp
      {"src/tcp/stack.h", "#pragma once\n"},
  };
  const LayeringResult r = check_layering(files);
  const auto illegal = of_rule(r, "layering");
  ASSERT_EQ(illegal.size(), 1u);
  EXPECT_EQ(illegal[0].file, "src/sim/timer.h");
  EXPECT_EQ(illegal[0].line, 2);
  EXPECT_NE(illegal[0].detail.find("'sim' may not depend on 'tcp'"),
            std::string::npos)
      << illegal[0].detail;
}

TEST(LayeringTest, ObsMayOnlySeeCommon) {
  const std::vector<SourceFile> files = {
      {"src/obs/sampler.h", "#include \"sim/time.h\"\n"},
      {"src/sim/time.h", "#pragma once\n"},
  };
  const LayeringResult r = check_layering(files);
  ASSERT_EQ(of_rule(r, "layering").size(), 1u);

  const std::vector<SourceFile> fixed = {
      {"src/obs/sampler.h", "#include \"common/time.h\"\n"},
      {"src/common/time.h", "#pragma once\n"},
  };
  EXPECT_TRUE(check_layering(fixed).findings.empty());
}

TEST(LayeringTest, MarkerOptsOutASingleVettedEdge) {
  const std::vector<SourceFile> files = {
      {"src/sim/x.h",
       "#include \"tcp/a.h\"  // lint: layering-ok\n#include \"tcp/b.h\"\n"},
      {"src/tcp/a.h", "#pragma once\n"},
      {"src/tcp/b.h", "#pragma once\n"},
  };
  const LayeringResult r = check_layering(files);
  const auto illegal = of_rule(r, "layering");
  ASSERT_EQ(illegal.size(), 1u);  // only the unmarked edge
  EXPECT_EQ(illegal[0].line, 2);
}

TEST(LayeringTest, IncludeCycleReportedWithChain) {
  const std::vector<SourceFile> files = {
      {"src/sim/a.h", "#include \"sim/b.h\"\n"},
      {"src/sim/b.h", "#include \"sim/c.h\"\n"},
      {"src/sim/c.h", "#include \"sim/a.h\"\n"},
  };
  const LayeringResult r = check_layering(files);
  const auto cycles = of_rule(r, "include-cycle");
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_NE(cycles[0].detail.find("sim/a.h -> sim/b.h -> sim/c.h -> sim/a.h"),
            std::string::npos)
      << cycles[0].detail;
}

TEST(LayeringTest, SelfIncludeIsACycle) {
  const std::vector<SourceFile> files = {
      {"src/net/x.h", "#include \"net/x.h\"\n"},
  };
  const auto cycles = of_rule(check_layering(files), "include-cycle");
  ASSERT_EQ(cycles.size(), 1u);
}

TEST(LayeringTest, AcyclicGraphHasNoCycleFindings) {
  const std::vector<SourceFile> files = {
      {"src/sim/a.h", "#include \"sim/b.h\"\n#include \"sim/c.h\"\n"},
      {"src/sim/b.h", "#include \"sim/c.h\"\n"},  // diamond, not a cycle
      {"src/sim/c.h", "#pragma once\n"},
  };
  EXPECT_TRUE(of_rule(check_layering(files), "include-cycle").empty());
}

TEST(LayeringTest, UnknownLayerIsReported) {
  const std::vector<SourceFile> files = {
      {"src/rogue/x.h", "#include \"common/y.h\"\n"},
      {"src/common/y.h", "#pragma once\n"},
  };
  const auto illegal = of_rule(check_layering(files), "layering");
  ASSERT_EQ(illegal.size(), 1u);
  EXPECT_NE(illegal[0].detail.find("not in the declared DAG"),
            std::string::npos);
}

TEST(LayeringTest, SystemIncludesAndCommentsIgnored) {
  const std::vector<SourceFile> files = {
      {"src/sim/a.h",
       "#include <vector>\n"
       "// #include \"tcp/fake.h\"\n"
       "/* #include \"core/fake.h\" */\n"
       "const char* s = \"#include \\\"exp/fake.h\\\"\";\n"},
  };
  EXPECT_TRUE(check_layering(files).findings.empty());
}

TEST(LayeringTest, DotArtifactListsLayerEdges) {
  const std::vector<SourceFile> files = {
      {"src/net/link.h", "#include \"sim/time.h\"\n"},
      {"src/sim/time.h", "#include \"common/types.h\"\n"},
      {"src/common/types.h", "#pragma once\n"},
  };
  const LayeringResult r = check_layering(files);
  EXPECT_NE(r.dot.find("digraph vegas_layers"), std::string::npos);
  EXPECT_NE(r.dot.find("\"net\" -> \"sim\""), std::string::npos);
  EXPECT_NE(r.dot.find("\"sim\" -> \"common\""), std::string::npos);
  // Legal edges are not highlighted.
  EXPECT_EQ(r.dot.find("color=red"), std::string::npos);
}

TEST(LayeringTest, DotHighlightsIllegalEdges) {
  const std::vector<SourceFile> files = {
      {"src/sim/x.h", "#include \"tcp/y.h\"\n"},
      {"src/tcp/y.h", "#pragma once\n"},
  };
  const LayeringResult r = check_layering(files);
  EXPECT_NE(r.dot.find("color=red"), std::string::npos);
}

TEST(LayeringTest, DeclaredDagIsItselfAcyclic) {
  // The allow-table is the architecture contract; prove it is a partial
  // order (no layer reachable from itself through allowed edges).
  const auto& allowed = layering_detail::allowed_deps();
  for (const auto& [layer, deps] : allowed) {
    // BFS over allowed edges, excluding the self-edge.
    std::vector<std::string> frontier;
    std::vector<std::string> seen;
    for (const auto& d : deps) {
      if (d != layer) frontier.push_back(d);
    }
    while (!frontier.empty()) {
      const std::string cur = frontier.back();
      frontier.pop_back();
      if (std::find(seen.begin(), seen.end(), cur) != seen.end()) continue;
      seen.push_back(cur);
      EXPECT_NE(cur, layer) << "layer DAG cycle through '" << layer << "'";
      const auto it = allowed.find(cur);
      if (it == allowed.end()) continue;
      for (const auto& d : it->second) {
        if (d != cur) frontier.push_back(d);
      }
    }
  }
}

}  // namespace
}  // namespace vegas::lint
