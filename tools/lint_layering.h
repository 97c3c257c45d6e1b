// Include-graph layering checker for vegas_lint.
//
// src/ is layered; the build has always honored the order by
// convention, and the coming sharded executor (ROADMAP) leans on it
// harder: shards own {sim,net,tcp,cc} state, the harness above fans
// out.  This checker makes the contract machine-checked:
//
//   - every `#include "..."` edge between src/ layers must be in the
//     declared DAG below (illegal edges reported with file:line);
//   - the file-level include graph must be acyclic (cycles reported as
//     the full chain);
//   - the layer graph is exported as a DOT artifact so CI diffs show
//     architectural drift at a glance.
//
// The declared layer DAG (also in DESIGN.md §7):
//
//   common          dependency-free value types, containers, rng facade
//   obs, stats      leaf services: metrics/profiling, statistics — may
//                   see common only (obs is embedded by every layer, so
//                   it must sit at the bottom; Time lives in common for
//                   exactly this reason)
//   sim             event loop, timers, simulated time   → common, obs
//   net             links, queues, routers, packets      → sim + below
//   tcp             transport                            → net + below
//   cc              CongOps module zoo and registry      → tcp + below
//   trace           trace buffer and analyzers           → tcp + below
//   traffic         tcplib-style workloads               → tcp + below
//   check           protocol-invariant observer — observes everything
//                   below the harness                    → traffic/trace/
//                                                          cc + below
//   exp             experiment harness, parallel runner  → check + below
//   scenario        declarative .scn engine              → exp + below
//   sweep           experiment service: result cache,
//                   claims, resumable grids (topmost)    → everything
//
// A deliberately-vetted edge can be silenced with `lint: layering-ok`
// on the include line; cycles cannot be silenced.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lint_rules.h"

namespace vegas::lint {

struct SourceFile {
  std::string path;      // repo-relative, forward slashes: "src/sim/x.h"
  std::string contents;
};

struct IncludeEdge {
  std::string from;    // include-form path of the including file
  std::string target;  // quoted include target as written
  int line = 0;
};

struct LayeringResult {
  std::vector<Finding> findings;
  std::string dot;  // layer-level digraph, GraphViz DOT
};

namespace layering_detail {

/// The declared DAG: layer -> layers it may include.  Every layer may
/// include itself; listing is explicit so the table reads as the
/// architecture document it is.
inline const std::map<std::string, std::set<std::string>>& allowed_deps() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"common", {"common"}},
      {"obs", {"obs", "common"}},
      {"stats", {"stats", "common"}},
      {"sim", {"sim", "common", "obs"}},
      {"net", {"net", "sim", "common", "obs"}},
      {"tcp", {"tcp", "net", "sim", "common", "obs"}},
      {"cc", {"cc", "tcp", "net", "sim", "common", "obs"}},
      {"trace", {"trace", "tcp", "net", "sim", "common", "obs"}},
      {"traffic", {"traffic", "tcp", "net", "sim", "common", "obs"}},
      {"check",
       {"check", "trace", "traffic", "cc", "tcp", "net", "sim", "stats",
        "common", "obs"}},
      {"exp",
       {"exp", "check", "trace", "traffic", "cc", "tcp", "net", "sim", "stats",
        "common", "obs"}},
      {"scenario",
       {"scenario", "exp", "check", "trace", "traffic", "cc", "tcp", "net",
        "sim", "stats", "common", "obs"}},
      {"sweep",
       {"sweep", "scenario", "exp", "check", "trace", "traffic", "cc", "tcp",
        "net", "sim", "stats", "common", "obs"}},
  };
  return kAllowed;
}

/// "src/sim/timer.h" -> "sim/timer.h"; unchanged if the
/// path does not start with src/.
inline std::string include_form(std::string_view path) {
  constexpr std::string_view kPrefix = "src/";
  if (path.substr(0, kPrefix.size()) == kPrefix) {
    return std::string(path.substr(kPrefix.size()));
  }
  return std::string(path);
}

/// Layer of an include-form path: the first component ("sim/x.h" ->
/// "sim").  Empty when there is no '/' (a same-directory include).
inline std::string layer_of(std::string_view include_path) {
  const std::size_t slash = include_path.find('/');
  return slash == std::string_view::npos
             ? std::string()
             : std::string(include_path.substr(0, slash));
}

/// Extracts the `#include "..."` targets of one file, with line
/// numbers, plus whether each carries the layering opt-out marker.
struct ParsedInclude {
  std::string target;
  int line = 0;
  bool opted_out = false;
};

inline std::vector<ParsedInclude> parse_includes(std::string_view contents) {
  std::vector<ParsedInclude> out;
  const std::vector<Token> toks = lex(contents);
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!detail::is_punct(toks[i], "#") ||
        !detail::is_ident(toks[i + 1], "include") ||
        toks[i + 2].kind != Tok::kString) {
      continue;
    }
    std::string_view text = toks[i + 2].text;  // quotes included
    if (text.size() < 2) continue;
    text.remove_prefix(1);
    text.remove_suffix(1);
    out.push_back({std::string(text), toks[i + 2].line,
                   line_has_marker(contents, toks[i + 2].pos,
                                   "lint: layering-ok")});
  }
  return out;
}

}  // namespace layering_detail

/// Checks the layering contract over `files` (the src/ tree; callers
/// may pass fixtures).  Produces findings (rules `layering` and
/// `include-cycle`) and the layer-graph DOT.
inline LayeringResult check_layering(const std::vector<SourceFile>& files) {
  namespace ld = layering_detail;
  LayeringResult result;

  // Parse every file once.
  std::map<std::string, std::vector<std::string>> graph;  // include-form adj
  std::map<std::string, std::string> file_of;  // include-form -> repo path
  std::vector<std::pair<std::string, ld::ParsedInclude>> edges;  // from,inc
  for (const SourceFile& f : files) {
    const std::string self = ld::include_form(f.path);
    file_of[self] = f.path;
    graph[self];  // ensure node exists
    for (const ld::ParsedInclude& inc : ld::parse_includes(f.contents)) {
      edges.emplace_back(self, inc);
      graph[self].push_back(inc.target);
    }
  }

  // Illegal layer edges + the layer-level graph for DOT.
  const auto& allowed = ld::allowed_deps();
  std::map<std::pair<std::string, std::string>, int> layer_edges;
  for (const auto& [from, inc] : edges) {
    const std::string from_layer = ld::layer_of(from);
    std::string to_layer = ld::layer_of(inc.target);
    if (to_layer.empty()) to_layer = from_layer;  // same-dir include
    if (from_layer.empty()) continue;             // not a layered file
    if (from_layer != to_layer) {
      ++layer_edges[{from_layer, to_layer}];
    }
    const auto it = allowed.find(from_layer);
    if (it == allowed.end()) {
      if (!inc.opted_out) {
        result.findings.push_back(
            {file_of[from], inc.line, "layering",
             "layer '" + from_layer +
                 "' is not in the declared DAG (tools/lint_layering.h); "
                 "add it with an explicit dependency list"});
      }
      continue;
    }
    if (it->second.count(to_layer) == 0 && !inc.opted_out) {
      std::string allowed_list;
      for (const std::string& a : it->second) {
        if (a == from_layer) continue;
        allowed_list += allowed_list.empty() ? a : ", " + a;
      }
      result.findings.push_back(
          {file_of[from], inc.line, "layering",
           "illegal include \"" + inc.target + "\": layer '" + from_layer +
               "' may not depend on '" + to_layer + "' (allowed: " +
               allowed_list + ")"});
    }
  }

  // File-level cycle detection: iterative three-color DFS, deterministic
  // order (graph is a std::map; adjacency in include order).
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;    // current DFS path, for reporting
  for (const auto& [start, unused_adj] : graph) {
    (void)unused_adj;
    if (color[start] != 0) continue;
    // Recursive DFS expressed iteratively: frames of (node, next-child).
    std::vector<std::pair<std::string, std::size_t>> frames;
    frames.emplace_back(start, 0);
    color[start] = 1;
    stack.push_back(start);
    static const std::vector<std::string> kNoAdj;
    while (!frames.empty()) {
      auto& [node, next] = frames.back();
      const auto adj_it = graph.find(node);
      const std::vector<std::string>& adj =
          adj_it != graph.end() ? adj_it->second : kNoAdj;
      if (next >= adj.size()) {
        color[node] = 2;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::string child = adj[next++];
      if (graph.find(child) == graph.end()) continue;  // header not scanned
      if (color[child] == 1) {
        // Found a cycle: the chain from child's position in the stack.
        std::string chain;
        const auto begin =
            std::find(stack.begin(), stack.end(), child);
        for (auto it = begin; it != stack.end(); ++it) chain += *it + " -> ";
        chain += child;
        result.findings.push_back({file_of[child], 1, "include-cycle",
                                   "include cycle: " + chain});
        continue;
      }
      if (color[child] == 0) {
        color[child] = 1;
        stack.push_back(child);
        frames.emplace_back(child, 0);
      }
    }
  }

  // Layer-level DOT, ranked bottom-up; edge labels are include counts.
  std::string dot =
      "// vegas_lint layering artifact — layer-level include graph of "
      "src/.\n"
      "// Regenerate: vegas_lint --root . --dot layering.dot src\n"
      "digraph vegas_layers {\n  rankdir=BT;\n  node [shape=box, "
      "fontname=\"Helvetica\"];\n";
  std::set<std::string> seen_layers;
  for (const auto& [edge, unused_count] : layer_edges) {
    (void)unused_count;
    seen_layers.insert(edge.first);
    seen_layers.insert(edge.second);
  }
  for (const std::string& l : seen_layers) {
    dot += "  \"" + l + "\";\n";
  }
  for (const auto& [edge, count] : layer_edges) {
    const auto it = allowed.find(edge.first);
    const bool legal = it != allowed.end() && it->second.count(edge.second) > 0;
    dot += "  \"" + edge.first + "\" -> \"" + edge.second + "\" [label=\"" +
           std::to_string(count) + "\"" +
           (legal ? "" : ", color=red, penwidth=2") + "];\n";
  }
  dot += "}\n";
  result.dot = dot;
  return result;
}

}  // namespace vegas::lint
