// Unit tests for the vegas_lint lexer (tools/lint_lexer.h) and rule
// engine (tools/lint_rules.h): every rule has positive, negative, zone,
// and opt-out-marker cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/lint_rules.h"

namespace vegas::lint {
namespace {

bool has_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::size_t count_rule(const std::vector<Finding>& fs,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------------
// Lexer.

std::vector<std::string> ident_texts(const std::string& src) {
  std::vector<std::string> out;
  for (const Token& t : lex(src)) {
    if (t.kind == Tok::kIdent) out.emplace_back(t.text);
  }
  return out;
}

TEST(LintLexerTest, TokenizesIdentifiersNumbersPunct) {
  const auto toks = lex("int x = 42 + 0x1f;");
  ASSERT_EQ(toks.size(), 7u);
  EXPECT_EQ(toks[0].kind, Tok::kIdent);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[2].kind, Tok::kPunct);
  EXPECT_EQ(toks[2].text, "=");
  EXPECT_EQ(toks[3].kind, Tok::kNumber);
  EXPECT_EQ(toks[3].text, "42");
  EXPECT_EQ(toks[5].kind, Tok::kNumber);
  EXPECT_EQ(toks[5].text, "0x1f");
}

TEST(LintLexerTest, CommentsNeverProduceTokens) {
  const auto ids = ident_texts(
      "int x; // new delete assert rand\n"
      "/* time(nullptr) unordered_map */ int y;\n");
  EXPECT_EQ(ids, (std::vector<std::string>{"int", "x", "int", "y"}));
}

TEST(LintLexerTest, StringAndCharContentsAreOpaque) {
  const auto toks = lex("auto s = \"new int[3]\"; char c = 'n';");
  for (const Token& t : toks) {
    if (t.kind == Tok::kIdent) {
      EXPECT_NE(t.text, "new");
    }
  }
  // The literals survive as single tokens, quotes included.
  const auto str = std::find_if(toks.begin(), toks.end(), [](const Token& t) {
    return t.kind == Tok::kString;
  });
  ASSERT_NE(str, toks.end());
  EXPECT_EQ(str->text, "\"new int[3]\"");
}

TEST(LintLexerTest, EscapedQuotesStayInsideTheLiteral) {
  const auto ids = ident_texts("auto b = \"\\\"new\\\"\"; int z;");
  EXPECT_EQ(ids, (std::vector<std::string>{"auto", "b", "int", "z"}));
}

TEST(LintLexerTest, RawStringsAreOneToken) {
  const auto ids = ident_texts(
      "auto a = R\"(new delete "
      "assert)\"; auto c = R\"x(rand() \")\" time())x\"; int z;\n");
  // The R prefixes lex as identifiers; banned words never do.
  for (const std::string& id : ids) {
    EXPECT_NE(id, "new");
    EXPECT_NE(id, "delete");
    EXPECT_NE(id, "rand");
    EXPECT_NE(id, "time");
  }
}

TEST(LintLexerTest, LineNumbersSurviveMultilineConstructs) {
  const auto toks = lex(
      "/* line1\n line2 */ int a;\n"      // a on line 2
      "auto s = R\"(x\ny)\";\nint b;\n");  // b on line 5
  const auto find = [&](std::string_view name) -> int {
    for (const Token& t : toks) {
      if (t.kind == Tok::kIdent && t.text == name) return t.line;
    }
    return -1;
  };
  EXPECT_EQ(find("a"), 2);
  EXPECT_EQ(find("b"), 5);
}

TEST(LintLexerTest, ScopeResolutionIsOneToken) {
  const auto toks = lex("std::function");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[1].kind, Tok::kPunct);
  EXPECT_EQ(toks[1].text, "::");
}

TEST(LintLexerTest, PpNumbersWithExponents) {
  const auto toks = lex("double d = 1.5e-3 + 2e+10;");
  ASSERT_EQ(toks.size(), 7u);
  EXPECT_EQ(toks[3].text, "1.5e-3");
  EXPECT_EQ(toks[5].text, "2e+10");
}

// ---------------------------------------------------------------------------
// Legacy rules (ported to the token stream — behaviour preserved).

TEST(LintRuleTest, RawNewAndDeleteFire) {
  const auto fs = scan_source(
      "src/net/x.cc", "int* p = new int(3);\ndelete p;\ndelete[] q;\n");
  EXPECT_TRUE(has_rule(fs, "raw-new"));
  EXPECT_TRUE(has_rule(fs, "raw-delete"));
  EXPECT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[1].line, 2);
}

TEST(LintRuleTest, NewHeaderAndOperatorNewAreAllowed) {
  EXPECT_TRUE(scan_source("src/tcp/x.h", "#include <new>\n").empty());
  EXPECT_TRUE(scan_source("src/tcp/x.h",
                          "void* operator new(std::size_t n);\n")
                  .empty());
}

TEST(LintRuleTest, DeletedFunctionsAreAllowed) {
  const auto fs = scan_source(
      "src/tcp/x.h",
      "struct S {\n  S(const S&) = delete;\n  S& operator=(const S&) =\n"
      "      delete;\n};\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintRuleTest, CommentedNewIsAllowed) {
  const auto fs = scan_source(
      "src/tcp/x.h", "// the receiver learns about new data\nint x;\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintRuleTest, AssertFires) {
  EXPECT_TRUE(has_rule(scan_source("src/a.cc", "assert(x > 0);\n"), "assert"));
  EXPECT_TRUE(has_rule(
      scan_source("src/a.cc", "#include <cassert>\nint x;\n"), "assert"));
  EXPECT_TRUE(has_rule(
      scan_source("src/a.cc", "#include <assert.h>\nint x;\n"), "assert"));
}

TEST(LintRuleTest, StaticAssertAndGtestMacrosAllowed) {
  const auto fs = scan_source(
      "tests/x.cc",
      "static_assert(sizeof(int) == 4);\nASSERT_TRUE(ok);\nEXPECT_EQ(a, b);\n"
      "ensure(x > 0, \"msg\");\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintRuleTest, WallClockBannedEverywhereUnderSrcExceptObs) {
  const std::string src =
      "auto t = time(nullptr);\n"
      "auto n = std::chrono::steady_clock::now();\n"
      "gettimeofday(&tv, nullptr);\n";
  EXPECT_EQ(count_rule(scan_source("src/sim/x.cc", src), "wall-clock"), 3u);
  EXPECT_EQ(count_rule(scan_source("src/cc/x.cc", src), "wall-clock"), 3u);
  EXPECT_EQ(count_rule(scan_source("src/exp/x.h", src), "wall-clock"), 3u);
  // src/obs is the one sanctioned wall-clock site (obs::Profiler)...
  EXPECT_TRUE(scan_source("src/obs/profile.h", src).empty());
  // ...and outside src/ the rule does not apply (tools, tests, bench).
  EXPECT_TRUE(scan_source("tools/x.cc", src).empty());
}

TEST(LintRuleTest, SimTimeSpellingsAllowed) {
  const std::string src =
      "sim::Time t = sim::Time::seconds(1);\n"
      "auto d = transmission_time(100, 2e5);\n"
      "auto x = q.time();\nuniform(0.0, 1.0);\n";
  EXPECT_TRUE(scan_source("src/sim/x.cc", src).empty());
}

TEST(LintRuleTest, StdFunctionOnlyInSmallFnZone) {
  const std::string src = "using Cb = std::function<void()>;\n";
  EXPECT_TRUE(has_rule(scan_source("src/sim/x.h", src), "std-function"));
  EXPECT_TRUE(has_rule(scan_source("src/tcp/x.h", src), "std-function"));
  // Outside the hot zone (and in tests) std::function is fine.
  EXPECT_TRUE(scan_source("src/net/x.h", src).empty());
  EXPECT_TRUE(scan_source("tests/x.cc", src).empty());
}

TEST(LintRuleTest, StdFunctionMarkerOptsOut) {
  // A control-path callback carries the marker on the same line...
  EXPECT_TRUE(scan_source("src/tcp/x.h",
                          "std::function<void(Connection&)> on_accept;"
                          "  // lint: std-function-ok\n")
                  .empty());
  // ...and the marker only covers its own line.
  const auto fs = scan_source(
      "src/tcp/x.h",
      "std::function<void()> a;  // lint: std-function-ok\n"
      "std::function<void()> b;\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "std-function");
  EXPECT_EQ(fs[0].line, 2);
}

TEST(LintRuleTest, StdFunctionSpellingsThatMustNotTrip) {
  // <functional> is one identifier; SmallFn and a bare `function` word
  // in an unqualified name are not the banned spelling.
  const std::string src =
      "#include <functional>\n"
      "using Cb = SmallFn<48>;\n"
      "void function();\n";
  EXPECT_TRUE(scan_source("src/sim/x.h", src).empty());
}

TEST(LintRuleTest, ConcurrencyBannedOutsideExp) {
  const std::string src =
      "#include <atomic>\n"
      "std::thread worker;\n"
      "std::mutex lock;\n"
      "std::atomic<int> counter;\n"
      "std::condition_variable cv;\n";
  const auto fs = scan_source("src/net/x.cc", src);
  ASSERT_EQ(fs.size(), 5u);
  for (const auto& f : fs) EXPECT_EQ(f.rule, "concurrency");
  // The executor layer owns cross-thread machinery; tests and bench are
  // outside the zone entirely.
  EXPECT_TRUE(scan_source("src/exp/x.cc", src).empty());
  EXPECT_TRUE(scan_source("tests/x.cc", src).empty());
  EXPECT_TRUE(scan_source("bench/x.cc", src).empty());
}

TEST(LintRuleTest, ConcurrencyMarkerOptsOut) {
  EXPECT_TRUE(scan_source("src/net/x.cc",
                          "std::atomic<int> uid;  // lint: concurrency-ok\n")
                  .empty());
  const auto fs = scan_source(
      "src/net/x.cc",
      "std::atomic<int> a;  // lint: concurrency-ok\n"
      "std::atomic<int> b;\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "concurrency");
  EXPECT_EQ(fs[0].line, 2);
}

TEST(LintRuleTest, ConcurrencySpellingsThatMustNotTrip) {
  // thread_local is one token; our own Thread-ish names and a comment
  // mention are not the banned spellings.
  const std::string src =
      "thread_local Lane* t_active = nullptr;\n"  // mutable-static's turf
      "// a mutex would be wrong here\n"
      "void thread();\n"
      "int atomic = 0;\n";
  EXPECT_FALSE(has_rule(scan_source("src/sim/x.h", src), "concurrency"));
}

TEST(LintRuleTest, AdhocStatsStructFiresInRegistryZone) {
  const std::string src =
      "struct WheelStats {\n  std::uint64_t fired = 0;\n};\n";
  EXPECT_TRUE(has_rule(scan_source("src/sim/x.h", src), "adhoc-stats"));
  EXPECT_TRUE(has_rule(scan_source("src/net/x.h", src), "adhoc-stats"));
  // Bare `struct Stats` (the old nested-struct spelling) counts too.
  EXPECT_TRUE(has_rule(
      scan_source("src/net/x.h", "struct Stats { int drops = 0; };\n"),
      "adhoc-stats"));
  // Outside src/sim|src/net the rule does not apply (tcp::SenderStats is
  // a protocol-result struct, not an event-loop counter bundle).
  EXPECT_TRUE(scan_source("src/tcp/x.h", src).empty());
}

TEST(LintRuleTest, AdhocStatsSpellingsThatMustNotTrip) {
  // Forward declarations and uses of a Stats type are consumption, not
  // introduction; non-Stats structs never match.
  const std::string src =
      "struct PoolStats;\n"
      "struct Metrics {\n  obs::Counter fired;\n};\n"
      "PacketPoolStats snap = packet_pool_stats();\n";
  EXPECT_TRUE(scan_source("src/net/x.h", src).empty());
}

TEST(LintRuleTest, AdhocStatsMarkerOptsOut) {
  EXPECT_TRUE(scan_source("src/net/x.h",
                          "struct PacketPoolStats {  // lint: adhoc-stats-ok\n"
                          "  std::uint64_t capacity = 0;\n};\n")
                  .empty());
  // The marker only covers its own struct's line.
  const auto fs = scan_source(
      "src/net/x.h",
      "struct AStats {  // lint: adhoc-stats-ok\n  int a;\n};\n"
      "struct BStats {\n  int b;\n};\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "adhoc-stats");
  EXPECT_EQ(fs[0].line, 4);
}

TEST(LintRuleTest, ReportsRepoRelativePathAndLine) {
  const auto fs = scan_source("src/net/y.cc", "int x;\nint* p = new int;\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].file, "src/net/y.cc");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[0].rule, "raw-new");
}

// ---------------------------------------------------------------------------
// Determinism family: unordered-container.

TEST(LintRuleTest, UnorderedContainersBannedOnSimPaths) {
  const std::string src =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "std::unordered_set<std::uint64_t> s;\n";
  for (const char* path :
       {"src/sim/x.h", "src/net/x.h", "src/tcp/x.h", "src/cc/x.h",
        "src/scenario/x.cc", "src/trace/x.cc", "src/traffic/x.h"}) {
    EXPECT_EQ(count_rule(scan_source(path, src), "unordered-container"), 3u)
        << path;
  }
  // Outside the determinism zone (harness, tools, tests) they are fine.
  EXPECT_TRUE(scan_source("src/exp/x.h", src).empty());
  EXPECT_TRUE(scan_source("tools/x.cc", src).empty());
  EXPECT_TRUE(scan_source("tests/x.cc", src).empty());
}

TEST(LintRuleTest, UnorderedMentionedInCommentIsFine) {
  EXPECT_TRUE(scan_source("src/sim/x.h",
                          "// the old unordered_set design is gone\nint x;\n")
                  .empty());
}

TEST(LintRuleTest, UnorderedMarkerOptsOut) {
  EXPECT_TRUE(
      scan_source("src/net/x.h",
                  "std::unordered_set<int> s;  "
                  "// iteration never escapes. lint: unordered-container-ok\n")
          .empty());
}

TEST(LintRuleTest, OrderedContainersAreFine) {
  EXPECT_TRUE(scan_source("src/net/x.h",
                          "std::map<int, int> m;\nstd::set<PortNum> s;\n"
                          "common::FlatMap<int> f;\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// Determinism family: pointer-keyed.

TEST(LintRuleTest, PointerKeyedMapAndSetFire) {
  EXPECT_TRUE(has_rule(
      scan_source("src/traffic/x.h",
                  "std::map<Conversation*, std::unique_ptr<Conversation>> m;\n"),
      "pointer-keyed"));
  EXPECT_TRUE(has_rule(
      scan_source("src/net/x.h", "std::set<Link*> links;\n"),
      "pointer-keyed"));
  EXPECT_TRUE(has_rule(
      scan_source("src/sim/x.h", "std::less<Event*> cmp;\n"),
      "pointer-keyed"));
}

TEST(LintRuleTest, PointerValuedMapIsFine) {
  // Pointer VALUES are fine; only pointer KEYS order the container.
  EXPECT_TRUE(scan_source("src/traffic/x.h",
                          "std::map<PortNum, Conversation*> pending;\n")
                  .empty());
  // Nested template in the key with no pointer: fine.
  EXPECT_TRUE(scan_source("src/sim/x.h",
                          "std::map<std::pair<int, int>, V> m;\n")
                  .empty());
}

TEST(LintRuleTest, PointerKeyedZoneAndMarker) {
  const std::string src = "std::map<T*, V> m;\n";
  EXPECT_TRUE(scan_source("src/exp/x.h", src).empty());  // outside zone
  EXPECT_TRUE(scan_source("src/net/x.h",
                          "std::map<T*, V> m;  // lint: pointer-keyed-ok\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// Determinism family: mutable-static.

TEST(LintRuleTest, MutableFunctionLocalStaticFires) {
  const auto fs = scan_source(
      "src/sim/x.cc", "int next_id() {\n  static int counter = 0;\n"
                      "  return ++counter;\n}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "mutable-static");
  EXPECT_EQ(fs[0].line, 2);
}

TEST(LintRuleTest, ThreadLocalFires) {
  EXPECT_TRUE(has_rule(
      scan_source("src/net/x.cc", "thread_local Pool t_pool;\n"),
      "mutable-static"));
}

TEST(LintRuleTest, ConstStaticsAndStaticFunctionsAreFine) {
  const std::string src =
      "static const std::set<std::string> kPlain{\"a\", \"b\"};\n"
      "static constexpr int kMax = 4;\n"
      "struct S {\n"
      "  static std::uint64_t conn_key(PortNum local, NodeId remote);\n"
      "  static Time max() { return Time::nanoseconds(1); }\n"
      "};\n"
      "static_assert(true);\n"
      "static void helper();\n";
  EXPECT_TRUE(scan_source("src/tcp/x.h", src).empty());
}

TEST(LintRuleTest, MutableStaticZoneAndMarker) {
  const std::string src = "static int counter = 0;\n";
  EXPECT_TRUE(scan_source("src/exp/x.cc", src).empty());  // outside zone
  EXPECT_TRUE(scan_source("tests/x.cc", src).empty());
  EXPECT_TRUE(
      scan_source("src/net/x.cc",
                  "thread_local Pool t_pool;  // lint: mutable-static-ok\n")
          .empty());
}

// ---------------------------------------------------------------------------
// raw-rng.

TEST(LintRuleTest, RawRngBannedOutsideTheFacade) {
  const std::string src =
      "#include <random>\n"
      "std::mt19937_64 eng(seed);\n"
      "int r = rand();\n"
      "std::random_device rd;\n";
  EXPECT_EQ(count_rule(scan_source("src/sim/x.cc", src), "raw-rng"), 4u);
  // obs is exempt from wall-clock, NOT from raw-rng.
  EXPECT_EQ(count_rule(scan_source("src/obs/x.cc", src), "raw-rng"), 4u);
  // The facade itself is the sanctioned home of the engine.
  EXPECT_TRUE(scan_source("src/common/rng.h", src).empty());
  EXPECT_TRUE(scan_source("src/common/rng.cc", src).empty());
  // Outside src/ the rule does not apply.
  EXPECT_TRUE(scan_source("tests/x.cc", src).empty());
}

TEST(LintRuleTest, RngStreamUseIsFine) {
  EXPECT_TRUE(scan_source("src/traffic/x.cc",
                          "rng::Stream arrivals(derive_seed(seed, \"a\"));\n"
                          "double d = arrivals.exponential(3.0);\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// ref-capture.

TEST(LintRuleTest, RefCaptureInScheduleFires) {
  const auto fs = scan_source(
      "src/net/x.cc",
      "void f(sim::Simulator& sim, int x) {\n"
      "  sim.schedule(delay, [&] { use(x); });\n"
      "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "ref-capture");
  EXPECT_EQ(fs[0].line, 2);
}

TEST(LintRuleTest, RefCaptureVariantsFire) {
  EXPECT_TRUE(has_rule(
      scan_source("src/sim/x.cc", "sim.schedule_at(t, [&, this] { go(); });\n"),
      "ref-capture"));
  EXPECT_TRUE(has_rule(
      scan_source("src/sim/x.cc",
                  "sim.schedule_timer(d, [&] { fire(); });\n"),
      "ref-capture"));
}

TEST(LintRuleTest, ValueAndThisCapturesAreFine) {
  const std::string src =
      "sim.schedule(tx, [this, held = std::move(p)]() mutable { f(); });\n"
      "sim.schedule(gap, [this] { spawn(); });\n"
      "sim.schedule(t, [p, id] { g(p, id); });\n";
  EXPECT_TRUE(scan_source("src/net/x.cc", src).empty());
}

TEST(LintRuleTest, RefCaptureOutsideDeferredCallsIsFine) {
  const std::string src =
      "auto scan = [&](const Series& s) { use(s); };\n"    // immediate
      "runner.map(cells, [&](int i) { return run(i); });\n"  // synchronous
      "std::sort(v.begin(), v.end(), [&](A a, A b) { return key(a) < "
      "key(b); });\n";
  EXPECT_TRUE(scan_source("src/exp/x.cc", src).empty());
}

TEST(LintRuleTest, ExplicitRefCapturesAreNotBlanket) {
  // [&x] names its captures; the rule targets blanket [&] only.
  EXPECT_TRUE(
      scan_source("src/sim/x.cc", "sim.schedule(t, [&x] { use(x); });\n")
          .empty());
}

TEST(LintRuleTest, RefCaptureMarkerOptsOut) {
  EXPECT_TRUE(scan_source("src/sim/x.cc",
                          "sim.schedule(t, [&] { g(); });  "
                          "// scope outlives run. lint: ref-capture-ok\n")
                  .empty());
}

TEST(LintRuleTest, RefCaptureOutsideSrcIsFine) {
  EXPECT_TRUE(
      scan_source("tests/x.cc", "sim.schedule(t, [&] { done = true; });\n")
          .empty());
}

// ---------------------------------------------------------------------------
// Cross-cutting: every rule honors its own `lint: <rule>-ok` marker.

TEST(LintRuleTest, UniformMarkerConvention) {
  const struct {
    const char* path;
    const char* line_without;
    const char* rule;
  } kCases[] = {
      {"src/net/x.cc", "int* p = new int;", "raw-new"},
      {"src/net/x.cc", "delete p;", "raw-delete"},
      {"src/net/x.cc", "assert(x);", "assert"},
      {"src/net/x.cc", "auto t = time(nullptr);", "wall-clock"},
      {"src/net/x.cc", "int r = rand();", "raw-rng"},
      {"src/sim/x.cc", "std::function<void()> f;", "std-function"},
      {"src/sim/x.cc", "struct FooStats { int a; };", "adhoc-stats"},
      {"src/sim/x.cc", "std::unordered_map<int, int> m;",
       "unordered-container"},
      {"src/sim/x.cc", "std::set<T*> s;", "pointer-keyed"},
      {"src/sim/x.cc", "static int n = 0;", "mutable-static"},
      {"src/sim/x.cc", "sim.schedule(t, [&] { f(); });", "ref-capture"},
  };
  for (const auto& c : kCases) {
    const auto without = scan_source(c.path, c.line_without);
    EXPECT_TRUE(has_rule(without, c.rule)) << c.rule;
    const std::string with = std::string(c.line_without) + "  // lint: " +
                             c.rule + "-ok\n";
    EXPECT_EQ(count_rule(scan_source(c.path, with), c.rule), 0u) << c.rule;
  }
}

}  // namespace
}  // namespace vegas::lint
