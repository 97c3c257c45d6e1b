// vegas_lint rule engine (header-only so tests can drive it directly).
//
// Rules are token-stream hooks over the lexer in tools/lint_lexer.h:
// each rule walks the lexed token vector of one file, so nothing ever
// matches inside a comment or a string literal, and qualified-name /
// template-argument questions are answered from real token structure
// instead of substring guesses.
//
// Every rule can be silenced on a single line with a comment marker of
// the form `lint: <rule>-ok` (e.g. `// lint: unordered-container-ok`).
// The marker covers exactly the line it is on — blanket opt-outs are
// deliberately impossible.
//
// Rule catalog (rationale lives in docs/STATIC_ANALYSIS.md):
//
//   raw-new / raw-delete   ownership is RAII everywhere here; a raw new
//                          or delete expression is a leak waiting for an
//                          early return (`= delete` declarations are
//                          fine).
//   assert                 ensure() (common/ensure.h) is the invariant
//                          check: always on, message-carrying.  assert()
//                          vanishes under NDEBUG — exactly when benches
//                          run.
//   wall-clock             src/ runs on simulated time only; any
//                          time()/chrono clock read breaks reproducible
//                          runs.  The ONE sanctioned wall-clock site is
//                          src/obs (obs::Profiler).
//   raw-rng                all randomness flows through the seeded,
//                          named rng::Stream facade (src/common/rng) so
//                          draws are reproducible and per-component
//                          isolated; rand()/std::random_device/direct
//                          <random> engines anywhere else in src/ are
//                          hidden nondeterminism.
//   std-function           src/sim and src/tcp sit on the timer-arm /
//                          packet-demux hot path: type-erased callbacks
//                          there are common::SmallFn, not std::function.
//   adhoc-stats            counter bundles in src/sim|src/net belong in
//                          obs::Counter cells bound to an obs::Registry.
//   unordered-container    std::unordered_{map,set,...} iterate in
//                          hash/rehash order, which varies with insert
//                          history and implementation — banned on sim
//                          paths where any iteration could leak order
//                          into event scheduling or output.
//   pointer-keyed          ordering a container by pointer value
//                          (std::map<T*, ...>, std::set<T*>,
//                          std::less<T*>) orders by allocator addresses:
//                          run-to-run nondeterministic by construction.
//   mutable-static         mutable function-local statics, thread_local
//                          and non-const static globals are hidden
//                          cross-run (and, for the coming sharded
//                          executor, cross-shard) state; sim-path state
//                          must live in objects owned by the run.
//   ref-capture            a blanket [&] capture handed to a deferred
//                          callback (schedule()/after()/timers) dangles
//                          the moment the enclosing frame returns before
//                          the event fires; deferred closures capture by
//                          value (or [this]).
//
// The determinism family (unordered-container, pointer-keyed,
// mutable-static) guards the contract the sharded parallel executor
// will be built on (ROADMAP "sharded deterministic simulation"): its
// zone is the sim-path layers src/{sim,net,tcp,cc,scenario,trace,
// traffic}.  src/obs is the sanctioned wall-clock site, src/exp hosts
// the (threaded) harness, src/check is an observer — those three are
// covered by the narrower rules that apply to them.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lint_lexer.h"

namespace vegas::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string detail;
};

/// Everything a rule hook sees: the file's path (repo-relative, forward
/// slashes — rules scope themselves by it), raw contents (for opt-out
/// marker lookup), and the lexed token stream.
struct RuleCtx {
  const std::string& path;
  std::string_view contents;
  const std::vector<Token>& toks;
};

namespace detail {

inline bool is_ident(const Token& t, std::string_view name) {
  return t.kind == Tok::kIdent && t.text == name;
}
inline bool is_punct(const Token& t, std::string_view p) {
  return t.kind == Tok::kPunct && t.text == p;
}

/// True when toks[i] is preceded by `std::`.
inline bool std_qualified(const std::vector<Token>& toks, std::size_t i) {
  return i >= 2 && is_punct(toks[i - 1], "::") && is_ident(toks[i - 2], "std");
}

inline bool in_any_dir(std::string_view path,
                       std::initializer_list<std::string_view> dirs) {
  for (const std::string_view d : dirs) {
    if (path.find(d) != std::string_view::npos) return true;
  }
  return false;
}

/// Appends a finding unless the line carries the rule's opt-out marker
/// (`lint: <rule>-ok`).
inline void add(const RuleCtx& ctx, std::vector<Finding>& out,
                const Token& at, const char* rule,
                const std::string& detail) {
  const std::string marker = std::string("lint: ") + rule + "-ok";
  if (line_has_marker(ctx.contents, at.pos, marker)) return;
  out.push_back(Finding{ctx.path, at.line, rule, detail});
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Rule zones.  Paths are repo-relative with forward slashes.

/// Wall-clock ban: all of src/ except src/obs (obs::Profiler is the one
/// sanctioned site; wall time there flows out of the simulation, never
/// back in).
inline bool wall_clock_zone(std::string_view path) {
  return path.find("src/") != std::string_view::npos &&
         path.find("src/obs/") == std::string_view::npos;
}

/// Raw-RNG ban: all of src/ except the rng facade itself.
inline bool raw_rng_zone(std::string_view path) {
  return path.find("src/") != std::string_view::npos &&
         path.find("src/common/rng") == std::string_view::npos;
}

/// Determinism family (unordered-container, pointer-keyed,
/// mutable-static): every layer on the simulation path.
inline bool determinism_zone(std::string_view path) {
  return detail::in_any_dir(
      path, {"src/sim/", "src/net/", "src/tcp/", "src/cc/",
             "src/scenario/", "src/trace/", "src/traffic/"});
}

/// Ref-capture hazard: all of src/ (deferred callbacks exist at every
/// layer; tests/bench manage lifetimes inside one stack frame).
inline bool ref_capture_zone(std::string_view path) {
  return path.find("src/") != std::string_view::npos;
}

/// Ad-hoc stats: the subsystems whose counters the metrics registry
/// already covers.
inline bool registry_zone(std::string_view path) {
  return detail::in_any_dir(path, {"src/sim/", "src/net/"});
}

/// std::function ban: timer arming (src/sim) and per-packet
/// demux/transmit (src/tcp), where callbacks must be common::SmallFn.
inline bool smallfn_zone(std::string_view path) {
  return detail::in_any_dir(path, {"src/sim/", "src/tcp/"});
}

/// Concurrency primitives: everything under src/ EXCEPT src/exp.  The
/// simulation proper is single-threaded-per-lane by construction — its
/// determinism proof rests on that — so threads, locks and atomics may
/// appear only in the executor layer (src/exp), which owns all
/// cross-thread machinery.  Anything else must either move there or be
/// justified with `lint: concurrency-ok`.
inline bool concurrency_zone(std::string_view path) {
  return path.find("src/") != std::string_view::npos &&
         !detail::in_any_dir(path, {"src/exp/"});
}

// ---------------------------------------------------------------------------
// Rule hooks.

inline void rule_raw_new(const RuleCtx& ctx, std::vector<Finding>& out) {
  int directive_line = 0;  // `#include <new>` names a header, not an expr
  for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
    const Token& t = ctx.toks[i];
    if (detail::is_punct(t, "#") &&
        (i == 0 || ctx.toks[i - 1].line != t.line)) {
      directive_line = t.line;
    }
    if (!detail::is_ident(t, "new") || t.line == directive_line) continue;
    if (i > 0 && detail::is_ident(ctx.toks[i - 1], "operator")) continue;
    detail::add(ctx, out, t, "raw-new",
                "raw new expression; use std::make_unique or a container");
  }
}

inline void rule_raw_delete(const RuleCtx& ctx, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
    if (!detail::is_ident(ctx.toks[i], "delete")) continue;
    if (i > 0 && detail::is_punct(ctx.toks[i - 1], "=")) continue;
    detail::add(ctx, out, ctx.toks[i], "raw-delete",
                "raw delete expression; ownership must be RAII-managed");
  }
}

inline void rule_assert(const RuleCtx& ctx, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
    const Token& t = ctx.toks[i];
    const bool call =
        detail::is_ident(t, "assert") && i + 1 < ctx.toks.size() &&
        (detail::is_punct(ctx.toks[i + 1], "(") ||
         detail::is_punct(ctx.toks[i + 1], "."));  // <assert.h>
    if (call || detail::is_ident(t, "cassert")) {
      detail::add(ctx, out, t, "assert",
                  "use vegas::ensure() (common/ensure.h), not assert()");
    }
  }
}

inline void rule_wall_clock(const RuleCtx& ctx, std::vector<Finding>& out) {
  if (!wall_clock_zone(ctx.path)) return;
  static constexpr std::string_view kClockIdents[] = {
      "gettimeofday", "clock_gettime", "system_clock", "steady_clock",
      "high_resolution_clock"};
  for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
    const Token& t = ctx.toks[i];
    if (t.kind != Tok::kIdent) continue;
    for (const std::string_view id : kClockIdents) {
      if (t.text == id) {
        detail::add(ctx, out, t, "wall-clock",
                    std::string(id) +
                        " under src/; use sim::Time (wall-clock profiling "
                        "lives in src/obs)");
      }
    }
    // The C library call `time(...)`: not a member (`.time()`), not a
    // qualified name (`sim::time` does not occur; `Time` never matches).
    if (t.text == "time" && i + 1 < ctx.toks.size() &&
        detail::is_punct(ctx.toks[i + 1], "(") &&
        (i == 0 || (!detail::is_punct(ctx.toks[i - 1], ".") &&
                    !detail::is_punct(ctx.toks[i - 1], "::")))) {
      detail::add(ctx, out, t, "wall-clock",
                  "time() under src/; use sim::Time (wall-clock profiling "
                  "lives in src/obs)");
    }
  }
}

inline void rule_raw_rng(const RuleCtx& ctx, std::vector<Finding>& out) {
  if (!raw_rng_zone(ctx.path)) return;
  static constexpr std::string_view kEngines[] = {
      "rand",          "srand",         "random_device",
      "mt19937",       "mt19937_64",    "minstd_rand",
      "minstd_rand0",  "ranlux24",      "ranlux48",
      "ranlux24_base", "ranlux48_base", "knuth_b",
      "default_random_engine"};
  for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
    const Token& t = ctx.toks[i];
    if (t.kind != Tok::kIdent) continue;
    for (const std::string_view id : kEngines) {
      if (t.text == id) {
        detail::add(ctx, out, t, "raw-rng",
                    std::string(id) +
                        " outside src/common/rng; draw from a named, seeded "
                        "rng::Stream instead");
      }
    }
    // #include <random> — direct engine access; the facade wraps it.
    if (t.text == "random" && i >= 2 && detail::is_punct(ctx.toks[i - 1], "<") &&
        detail::is_ident(ctx.toks[i - 2], "include")) {
      detail::add(ctx, out, t, "raw-rng",
                  "#include <random> outside src/common/rng; use the "
                  "rng::Stream facade");
    }
  }
}

inline void rule_std_function(const RuleCtx& ctx, std::vector<Finding>& out) {
  if (!smallfn_zone(ctx.path)) return;
  for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
    if (detail::is_ident(ctx.toks[i], "function") &&
        detail::std_qualified(ctx.toks, i)) {
      detail::add(ctx, out, ctx.toks[i - 2], "std-function",
                  "std::function on a src/sim|src/tcp hot path; use "
                  "common::SmallFn (or mark a control-path callback "
                  "`// lint: std-function-ok`)");
    }
  }
}

inline void rule_concurrency(const RuleCtx& ctx, std::vector<Finding>& out) {
  if (!concurrency_zone(ctx.path)) return;
  static constexpr const char* kPrimitives[] = {
      "thread",         "jthread",       "mutex",
      "shared_mutex",   "timed_mutex",   "recursive_mutex",
      "atomic",         "atomic_flag",   "condition_variable",
      "condition_variable_any"};
  for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
    const Token& t = ctx.toks[i];
    if (t.kind != Tok::kIdent) continue;
    for (const char* name : kPrimitives) {
      if (!detail::is_ident(t, name)) continue;
      // `std::thread t;` and friends — or the header pulling them in
      // (`#include <atomic>` lexes as `< atomic >`).
      const bool qualified = detail::std_qualified(ctx.toks, i);
      const bool bracketed = i > 0 && i + 1 < ctx.toks.size() &&
                             detail::is_punct(ctx.toks[i - 1], "<") &&
                             detail::is_punct(ctx.toks[i + 1], ">");
      if (qualified || bracketed) {
        detail::add(ctx, out, qualified ? ctx.toks[i - 2] : t, "concurrency",
                    "concurrency primitive outside src/exp; the sim core is "
                    "single-threaded per lane — move cross-thread machinery "
                    "to src/exp or mark `// lint: concurrency-ok`");
      }
      break;
    }
  }
}

inline void rule_adhoc_stats(const RuleCtx& ctx, std::vector<Finding>& out) {
  if (!registry_zone(ctx.path)) return;
  for (std::size_t i = 0; i + 1 < ctx.toks.size(); ++i) {
    if (!detail::is_ident(ctx.toks[i], "struct")) continue;
    const Token& name = ctx.toks[i + 1];
    if (name.kind != Tok::kIdent || name.text.size() < 5 ||
        name.text.substr(name.text.size() - 5) != "Stats") {
      continue;
    }
    // Definitions only: a forward declaration or `struct FooStats x;` is
    // someone consuming a type, not introducing one.
    if (i + 2 >= ctx.toks.size() ||
        (!detail::is_punct(ctx.toks[i + 2], "{") &&
         !detail::is_punct(ctx.toks[i + 2], ":"))) {
      continue;
    }
    detail::add(ctx, out, ctx.toks[i], "adhoc-stats",
                "ad-hoc " + std::string(name.text) +
                    " counter struct in src/sim|src/net; use obs::Counter "
                    "cells bound to an obs::Registry (docs/OBSERVABILITY.md), "
                    "or mark `// lint: adhoc-stats-ok`");
  }
}

inline void rule_unordered_container(const RuleCtx& ctx,
                                     std::vector<Finding>& out) {
  if (!determinism_zone(ctx.path)) return;
  static constexpr std::string_view kUnordered[] = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
    const Token& t = ctx.toks[i];
    if (t.kind != Tok::kIdent) continue;
    for (const std::string_view id : kUnordered) {
      if (t.text == id) {
        detail::add(ctx, out, t, "unordered-container",
                    "std::" + std::string(id) +
                        " on a sim path iterates in hash order "
                        "(nondeterministic); use common::FlatMap, a sorted "
                        "vector, or std::map/std::set");
      }
    }
  }
}

inline void rule_pointer_keyed(const RuleCtx& ctx, std::vector<Finding>& out) {
  if (!determinism_zone(ctx.path)) return;
  static constexpr std::string_view kOrdered[] = {"map", "set", "multimap",
                                                  "multiset", "less",
                                                  "greater"};
  for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
    const Token& t = ctx.toks[i];
    if (t.kind != Tok::kIdent || !detail::std_qualified(ctx.toks, i)) continue;
    bool ordered = false;
    for (const std::string_view id : kOrdered) ordered |= t.text == id;
    if (!ordered || i + 1 >= ctx.toks.size() ||
        !detail::is_punct(ctx.toks[i + 1], "<")) {
      continue;
    }
    // Scan the FIRST template argument (the key type — or, for
    // std::less/greater, the compared type); a `*` anywhere in it means
    // ordering by pointer value.
    int depth = 1;
    bool pointer = false;
    for (std::size_t j = i + 2; j < ctx.toks.size() && depth > 0; ++j) {
      const Token& u = ctx.toks[j];
      if (detail::is_punct(u, "<")) ++depth;
      else if (detail::is_punct(u, ">")) --depth;
      else if (detail::is_punct(u, ",") && depth == 1) break;
      else if (detail::is_punct(u, "*")) pointer = true;
      else if (detail::is_punct(u, ";") || detail::is_punct(u, "{")) break;
    }
    if (pointer) {
      detail::add(ctx, out, t, "pointer-keyed",
                  "std::" + std::string(t.text) +
                      " ordered by pointer value: iteration follows "
                      "allocator addresses (run-to-run nondeterministic); "
                      "key by a stable id instead");
    }
  }
}

inline void rule_mutable_static(const RuleCtx& ctx, std::vector<Finding>& out) {
  if (!determinism_zone(ctx.path)) return;
  for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
    const Token& t = ctx.toks[i];
    if (!detail::is_ident(t, "static") && !detail::is_ident(t, "thread_local"))
      continue;
    // Scan the declaration up to `;`, `=`, or `{`.  const/constexpr
    // anywhere before that makes it immutable; a `(` first means a
    // function declaration (pure code, not state).
    bool immutable = false;
    bool function = false;
    for (std::size_t j = i + 1; j < ctx.toks.size(); ++j) {
      const Token& u = ctx.toks[j];
      if (detail::is_ident(u, "const") || detail::is_ident(u, "constexpr") ||
          detail::is_ident(u, "constinit") || detail::is_ident(u, "consteval")) {
        immutable = true;
        break;
      }
      if (detail::is_punct(u, "(")) {
        function = true;
        break;
      }
      if (detail::is_punct(u, ";") || detail::is_punct(u, "=") ||
          detail::is_punct(u, "{")) {
        break;
      }
    }
    if (immutable || function) continue;
    detail::add(ctx, out, t, "mutable-static",
                std::string(t.text) +
                    " mutable state on a sim path; runs must not share "
                    "hidden state — own it in the run's objects (or mark "
                    "`// lint: mutable-static-ok` with a determinism "
                    "justification)");
  }
}

inline void rule_ref_capture(const RuleCtx& ctx, std::vector<Finding>& out) {
  if (!ref_capture_zone(ctx.path)) return;
  // Calls whose callable argument outlives the calling stack frame.
  static constexpr std::string_view kDeferred[] = {
      "schedule", "schedule_at", "schedule_timer", "after", "every"};
  std::vector<std::string_view> calls;  // innermost enclosing call names
  for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
    const Token& t = ctx.toks[i];
    if (detail::is_punct(t, "(")) {
      calls.push_back(i > 0 && ctx.toks[i - 1].kind == Tok::kIdent
                          ? ctx.toks[i - 1].text
                          : std::string_view());
    } else if (detail::is_punct(t, ")")) {
      if (!calls.empty()) calls.pop_back();
    } else if (detail::is_punct(t, "[") && i + 2 < ctx.toks.size() &&
               detail::is_punct(ctx.toks[i + 1], "&") &&
               (detail::is_punct(ctx.toks[i + 2], "]") ||
                detail::is_punct(ctx.toks[i + 2], ","))) {
      if (calls.empty()) continue;
      bool deferred = false;
      for (const std::string_view d : kDeferred) deferred |= calls.back() == d;
      if (deferred) {
        detail::add(ctx, out, t, "ref-capture",
                    "[&] capture in a deferred callback passed to " +
                        std::string(calls.back()) +
                        "(): the frame may be gone when it fires; capture "
                        "by value/[this] (or mark `// lint: ref-capture-ok` "
                        "if the captured scope provably outlives the run)");
      }
    }
  }
}

// ---------------------------------------------------------------------------

using RuleFn = void (*)(const RuleCtx&, std::vector<Finding>&);

struct Rule {
  const char* id;
  RuleFn fn;
};

/// Every registered rule, in reporting order.  (The layering and
/// include-cycle rules live in tools/lint_layering.h — they are
/// whole-graph, not per-file.)
inline const std::vector<Rule>& all_rules() {
  static const std::vector<Rule> kRules = {
      {"raw-new", rule_raw_new},
      {"raw-delete", rule_raw_delete},
      {"assert", rule_assert},
      {"wall-clock", rule_wall_clock},
      {"raw-rng", rule_raw_rng},
      {"std-function", rule_std_function},
      {"concurrency", rule_concurrency},
      {"adhoc-stats", rule_adhoc_stats},
      {"unordered-container", rule_unordered_container},
      {"pointer-keyed", rule_pointer_keyed},
      {"mutable-static", rule_mutable_static},
      {"ref-capture", rule_ref_capture},
  };
  return kRules;
}

/// Scans one file's contents with every rule.  `path` is repo-relative
/// with forward slashes; it scopes the path-scoped rules.
inline std::vector<Finding> scan_source(const std::string& path,
                                        std::string_view contents) {
  std::vector<Finding> findings;
  const std::vector<Token> toks = lex(contents);
  const RuleCtx ctx{path, contents, toks};
  for (const Rule& r : all_rules()) r.fn(ctx, findings);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return findings;
}

}  // namespace vegas::lint
