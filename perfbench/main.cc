// perfbench: the repository benchmark program (README.md next to this
// file).  One process runs one named workload:
//
//   perfbench --workload fanin_100k --seed 0 --seconds 25 --trace 0
//
// It repeats whole units of the workload until --seconds have passed,
// checks every cell's outputs, and prints, as its last stdout line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones (medians over units);
// with --trace 1 they are the per-layer ones, from units run with spans
// recorded through obs::Profiler, and the spans are written as a
// chrome://tracing file under .bench_out/.
//
// It calls the library directly — Scenario::from_text,
// run_cell, run_sweep, trace_digest, trace::Analyzer,
// packet_pool_stats — and times those calls from outside; spans inside
// the program are later work.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "check/determinism.h"
#include "net/packet.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "probes.h"
#include "scenario/engine.h"
#include "sweep/service.h"
#include "trace/analyzer.h"
#include "workloads.h"

namespace {

using namespace vegas;
using Clock = std::chrono::steady_clock;

// The sharded fan-in: 8 shards on 4 worker threads, the VM's core count.
constexpr int kShards = 8;
constexpr int kShardThreads = 4;

// Timed set-up passes per untraced run, after one warm-up pass.
constexpr int kSetupPasses = 7;

// Fewest plain/traced unit pairs in a traced run, for trace_overhead.
constexpr std::size_t kTracedPairs = 3;

const char* const kWorkloads[] = {"fanin_100k", "fanin_100k_sharded",
                                  "paper_grid"};

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 25;  // run_seconds in BENCHMARK.json
  bool trace = false;
  bool smoke = false;
  bool corrupt_pins = false;
  std::string write_pins;
};

// Relative to the repo root, where run.py starts perfbench.
constexpr const char* kPinsPath = "perfbench/pins.tsv";
constexpr const char* kOutDir = ".bench_out";

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

rusage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sums of TransferResult::sender_stats.  The library records a flow's
/// stats when it completes or resets, so flows still open at a timeout
/// add to `flows` and nothing else; `bytes_delivered` counts only the
/// flows with recorded stats, to pair with `bytes_sent`.
struct TcpTotals {
  std::uint64_t flows = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_retransmitted = 0;
  std::uint64_t coarse_timeouts = 0;
  std::uint64_t fine_retransmits = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t dup_acks = 0;
  std::uint64_t rtt_samples = 0;
  double bytes_sent = 0;
  double bytes_delivered = 0;

  void add(const traffic::TransferResult& t) {
    const tcp::SenderStats& s = t.sender_stats;
    ++flows;
    flows_completed += t.completed ? 1 : 0;
    segments_sent += s.segments_sent;
    segments_retransmitted += s.segments_retransmitted;
    coarse_timeouts += s.coarse_timeouts;
    fine_retransmits += s.fine_retransmits;
    fast_retransmits += s.fast_retransmits;
    dup_acks += s.dup_acks_received;
    rtt_samples += s.rtt_samples;
    bytes_sent += static_cast<double>(s.bytes_sent);
    if (s.segments_sent > 0) bytes_delivered += static_cast<double>(t.bytes_delivered);
  }
};

/// Everything one unit of a workload measured.
struct Unit {
  double wall_s = 0;
  double cpu_s = 0;
  double sys_s = 0;
  double sim_s = 0;
  double goodput_segments = 0;
  double load_s = 0;
  double cell_setup_s = 0;
  double run_s = 0;
  double collect_s = 0;
  std::uint64_t cells = 0;
  std::uint64_t failed = 0;

  scenario::SimCounters sim;
  std::uint64_t packets = 0;
  std::uint64_t pool_capacity = 0;
  std::uint64_t pool_outstanding_end = 0;

  TcpTotals tcp;
  std::map<std::string, TcpTotals> cc;

  std::uint64_t conv_started = 0;
  std::uint64_t conv_completed = 0;
  std::uint64_t conv_failed = 0;
  double bg_goodput_sum = 0;
  std::uint64_t bg_cells = 0;

  std::uint64_t trace_events = 0;
  std::uint64_t traced_flows = 0;
  std::uint64_t digest_set = 0xcbf29ce484222325ull;  // FNV-1a over digests
  std::optional<std::uint64_t> probe_digest;
  double digest_s = 0;
  double analyze_s = 0;

  bool sharded = false;
  std::uint64_t windows = 0;
  std::uint64_t cross_posts = 0;
  double lookahead_s = 0;
  double sharded_run_s = 0;
  double lane_imbalance = 0;

  double sweep_wall_s = 0;
  double run_cell_s = 0;  // run_cell calls alone, the work the sweep repeats
  double cached_rerun_s = 0;
  std::uint64_t sweep_objects = 0;
  std::uint64_t rerun_cells = 0;
  std::uint64_t rerun_hits = 0;

  std::uint64_t minor_faults = 0;
  std::uint64_t invol_ctx_switches = 0;
};

/// Metric name -> (value, unit).
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

/// A span from the benchmark's own code; a no-op when untraced.
class Span {
 public:
  Span(obs::Profiler* p, std::string name) {
    if (p != nullptr) scope_.emplace(*p, std::move(name));
  }

 private:
  std::optional<obs::Profiler::Scope> scope_;
};

class Bench {
 public:
  explicit Bench(Args args) : a_(std::move(args)) {}

  int run();

 private:
  bool check_pins() const { return a_.seed == perfbench::kDefaultSeed; }
  Unit run_unit();
  Unit fanin_unit(bool sharded);
  Unit paper_grid_unit();
  std::optional<double> setup_pass();
  void begin();
  void end(Unit& u);
  std::optional<scenario::CellResult> run_one(Unit& u,
                                              const scenario::Scenario& sc,
                                              std::size_t i,
                                              const scenario::RunOptions& ro);
  bool process_cell(Unit& u, const std::string& grid,
                    const scenario::ScenarioSpec& spec,
                    const scenario::CellResult& r, bool unsharded);
  bool load_pins();
  MetricMap layer_metrics(const Unit& u) const;
  void write_trace_file() const;
  void print_span_table() const;

  Args a_;
  std::map<std::string, std::uint64_t> pins_;
  std::map<std::string, std::uint64_t> observed_;  // for --write-pins
  obs::Profiler* prof_ = nullptr;                  // non-null while traced
  std::optional<obs::Profiler> profiler_;
  std::vector<obs::Profiler::Phase> inner_;  // engine phases, our clock
  Clock::time_point t0_;
  rusage ru0_{};
  std::uint64_t acquired0_ = 0;
};

bool Bench::load_pins() {
  std::ifstream in(kPinsPath);
  if (!in.good()) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.rfind('\t');
    if (tab == std::string::npos) continue;
    std::uint64_t d = std::strtoull(line.c_str() + tab + 1, nullptr, 16);
    if (a_.corrupt_pins) d ^= 1;
    pins_[line.substr(0, tab)] = d;
  }
  return !pins_.empty();
}

void Bench::begin() {
  t0_ = Clock::now();
  ru0_ = usage_now();
  acquired0_ = net::packet_pool_stats().acquired;
}

void Bench::end(Unit& u) {
  u.wall_s = secs_since(t0_);
  const rusage ru = usage_now();
  u.sys_s = tv_s(ru.ru_stime) - tv_s(ru0_.ru_stime);
  u.cpu_s = tv_s(ru.ru_utime) - tv_s(ru0_.ru_utime) + u.sys_s;
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt - ru0_.ru_minflt);
  u.invol_ctx_switches = static_cast<std::uint64_t>(ru.ru_nivcsw - ru0_.ru_nivcsw);
  const net::PacketPoolStats ps = net::packet_pool_stats();
  u.packets = ps.acquired - acquired0_;
  u.pool_capacity = ps.capacity;
  u.pool_outstanding_end = ps.outstanding();
}

std::optional<scenario::CellResult> Bench::run_one(
    Unit& u, const scenario::Scenario& sc, std::size_t i,
    const scenario::RunOptions& ro) {
  std::optional<scenario::CellResult> r;
  {
    const Span cell(prof_, "cell");
    const auto t0 = Clock::now();
    try {
      r = scenario::run_cell(sc.cell(i), i, sc.label(i), ro);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s cell %zu threw: %s\n",
                   sc.name().c_str(), i, e.what());
    }
    u.run_cell_s += secs_since(t0);
  }
  if (prof_ != nullptr && r.has_value()) {
    // The engine's setup/run/collect phases become children of the
    // cell span: shift them from the cell's clock onto ours.
    const double start = prof_->phases().back().start_us;
    for (const obs::Profiler::Phase& ph : r->phases) {
      inner_.push_back({ph.name, start + ph.start_us, ph.dur_us});
    }
  }
  return r;
}

bool Bench::process_cell(Unit& u, const std::string& grid,
                         const scenario::ScenarioSpec& spec,
                         const scenario::CellResult& r, bool unsharded) {
  bool ok = true;
  for (const obs::Profiler::Phase& ph : r.phases) {
    const double s = ph.dur_us * 1e-6;
    if (ph.name == "setup") u.cell_setup_s += s;
    if (ph.name == "run") {
      u.run_s += s;
      if (r.shard.has_value()) u.sharded_run_s += s;
    }
    if (ph.name == "collect") u.collect_s += s;
  }
  u.sim_s += r.sim_time_s;
  u.sim.events_executed += r.sim.events_executed;
  u.sim.timer_scheduled += r.sim.timer_scheduled;
  u.sim.timer_cancelled += r.sim.timer_cancelled;
  u.sim.timer_fired += r.sim.timer_fired;
  u.sim.timer_slot_allocs += r.sim.timer_slot_allocs;
  u.sim.timer_max_live = std::max(u.sim.timer_max_live, r.sim.timer_max_live);

  if (r.shard.has_value()) {
    const scenario::ShardRunInfo& si = *r.shard;
    u.sharded = true;
    u.windows += si.windows;
    u.cross_posts += si.cross_posts;
    u.lookahead_s = std::max(u.lookahead_s, si.lookahead_s);
    double sum = 0;
    double mx = 0;
    for (const std::uint64_t e : si.lane_events) {
      sum += static_cast<double>(e);
      mx = std::max(mx, static_cast<double>(e));
    }
    const double mean = si.lane_events.empty()
                            ? 0
                            : sum / static_cast<double>(si.lane_events.size());
    u.lane_imbalance = std::max(u.lane_imbalance, ratio(mx, mean));
  }

  const double mss = static_cast<double>(spec.tcp.mss);
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const scenario::FlowResult& fr = r.flows[i];
    const traffic::TransferResult& t = fr.transfer;
    u.tcp.add(t);
    u.cc[spec.flows[i].algo.name].add(t);
    u.goodput_segments += static_cast<double>(t.bytes_delivered) / mss;
    if (t.completed && t.bytes_delivered != t.bytes) {
      std::fprintf(stderr, "perfbench: %s [%s] %s delivered %llu of %llu bytes\n",
                   grid.c_str(), r.label.c_str(), fr.name.c_str(),
                   static_cast<unsigned long long>(t.bytes_delivered),
                   static_cast<unsigned long long>(t.bytes));
      ok = false;
    }
    if (!fr.traced) continue;
    ++u.traced_flows;
    u.trace_events += fr.trace.size();
    u.digest_set = check::fnv1a(&fr.trace_digest, sizeof(fr.trace_digest),
                                u.digest_set);
    if (fr.name == "probe") u.probe_digest = fr.trace_digest;

    std::uint64_t again = 0;
    {
      const Span s(prof_, "trace.digest");
      const auto t0 = Clock::now();
      again = check::trace_digest(fr.trace);
      u.digest_s += secs_since(t0);
    }
    if (again != fr.trace_digest) {
      std::fprintf(stderr, "perfbench: %s [%s] %s: trace digest not repeatable\n",
                   grid.c_str(), r.label.c_str(), fr.name.c_str());
      ok = false;
    }
    {
      const Span s(prof_, "trace.analyze");
      const auto t0 = Clock::now();
      const trace::Analyzer an(fr.trace);
      static_cast<void>(an.summary());
      static_cast<void>(an.sending_rate());
      static_cast<void>(an.ack_delays());
      u.analyze_s += secs_since(t0);
    }

    const std::string key = grid + "\t" + r.label + "\t" + fr.name;
    observed_[key] = fr.trace_digest;
    if (check_pins() && a_.write_pins.empty()) {
      const auto it = pins_.find(key);
      if (it == pins_.end() || it->second != fr.trace_digest) {
        std::fprintf(stderr, "perfbench: %s [%s] %s digest %s, pinned %s\n",
                     grid.c_str(), r.label.c_str(), fr.name.c_str(),
                     hex(fr.trace_digest).c_str(),
                     it == pins_.end() ? "(none)" : hex(it->second).c_str());
        ok = false;
      }
    }
  }

  for (const scenario::TrafficResult& tr : r.traffic) {
    u.conv_started += tr.stats.started;
    u.conv_completed += tr.stats.completed;
    u.conv_failed += tr.stats.failed;
  }
  if (!r.traffic.empty()) {
    u.bg_goodput_sum += r.background_goodput_Bps;
    ++u.bg_cells;
  }

  if (unsharded && net::packet_pool_stats().outstanding() != 0) {
    std::fprintf(stderr, "perfbench: %s [%s]: %llu packets outstanding\n",
                 grid.c_str(), r.label.c_str(),
                 static_cast<unsigned long long>(
                     net::packet_pool_stats().outstanding()));
    ok = false;
  }
  return ok;
}

Unit Bench::fanin_unit(bool sharded) {
  const perfbench::ScenarioText st = perfbench::fanin_text(a_.seed, a_.smoke);
  Unit u;
  begin();
  {
    const Span w(prof_, a_.workload);
    std::optional<scenario::Scenario> sc;
    {
      const Span s(prof_, "scenario.load");
      const auto t0 = Clock::now();
      sc = scenario::Scenario::from_text(st.text, st.name);
      u.load_s += secs_since(t0);
    }
    scenario::RunOptions ro;
    ro.threads = sharded ? kShardThreads : 1;
    ro.shards = sharded ? kShards : 1;
    for (std::size_t i = 0; i < sc->cells(); ++i) {
      ++u.cells;
      const std::optional<scenario::CellResult> r = run_one(u, *sc, i, ro);
      if (!r.has_value() || !process_cell(u, st.name, sc->cell(i), *r, !sharded)) {
        ++u.failed;
      }
    }
  }
  end(u);
  return u;
}

Unit Bench::paper_grid_unit() {
  const std::vector<perfbench::ScenarioText> texts =
      perfbench::paper_grid_texts(a_.seed, a_.smoke);
  const std::string store_dir =
      std::string(kOutDir) + "/store-" + std::to_string(static_cast<long>(::getpid()));
  Unit u;
  begin();
  {
    const Span w(prof_, a_.workload);
    std::vector<scenario::Scenario> scs;
    {
      const Span s(prof_, "scenario.load");
      const auto t0 = Clock::now();
      for (const perfbench::ScenarioText& t : texts) {
        scs.push_back(scenario::Scenario::from_text(t.text, t.name));
      }
      u.load_s += secs_since(t0);
    }

    // Pass A: every cell through run_cell on this thread, checked one by
    // one.  `bad` marks failed cells; `digests` keeps each cell's traced
    // digests for the sweep records of pass B.
    std::vector<std::vector<char>> bad(scs.size());
    std::vector<std::vector<std::vector<std::uint64_t>>> digests(scs.size());
    scenario::RunOptions ro;
    ro.threads = 1;
    ro.shards = 1;
    for (std::size_t g = 0; g < scs.size(); ++g) {
      bad[g].assign(scs[g].cells(), 0);
      digests[g].resize(scs[g].cells());
      for (std::size_t i = 0; i < scs[g].cells(); ++i) {
        const std::optional<scenario::CellResult> r = run_one(u, scs[g], i, ro);
        if (!r.has_value() ||
            !process_cell(u, texts[g].name, scs[g].cell(i), *r, true)) {
          bad[g][i] = 1;
        }
        if (r.has_value()) {
          for (const scenario::FlowResult& fr : r->flows) {
            if (fr.traced) digests[g][i].push_back(fr.trace_digest);
          }
        }
      }
    }

    // Pass B: the same grids through the sweep service into a fresh
    // store, then a second run_sweep over the warm store, which must
    // compute nothing and return a byte-identical summary.
    std::filesystem::remove_all(store_dir);
    const sweep::ResultStore store(store_dir);
    sweep::SweepOptions so;
    so.threads = 1;
    so.shards = 1;
    std::vector<sweep::SweepReport> reports;
    {
      const Span s(prof_, "sweep.run_sweep");
      const auto t0 = Clock::now();
      for (std::size_t g = 0; g < scs.size(); ++g) {
        reports.push_back(sweep::run_sweep(scs[g], texts[g].name, store, so));
        if (net::packet_pool_stats().outstanding() != 0) {
          std::fprintf(stderr, "perfbench: %s: packets outstanding after run_sweep\n",
                       texts[g].name.c_str());
          bad[g].assign(bad[g].size(), 1);
        }
      }
      u.sweep_wall_s = secs_since(t0);
    }
    for (std::size_t g = 0; g < scs.size(); ++g) {
      const sweep::SweepReport& rep = reports[g];
      u.sweep_objects += rep.computed;
      if (!rep.complete || rep.computed != scs[g].cells() || rep.cache_hits != 0) {
        std::fprintf(stderr, "perfbench: %s: fresh sweep computed %zu of %zu\n",
                     texts[g].name.c_str(), rep.computed, scs[g].cells());
        bad[g].assign(bad[g].size(), 1);
        continue;
      }
      for (std::size_t i = 0; i < rep.records.size(); ++i) {
        const sweep::CellRecord& rec = rep.records[i];
        const double mss = static_cast<double>(scs[g].cell(i).tcp.mss);
        u.sim_s += rec.sim_time_s;
        std::vector<std::uint64_t> ds;
        for (const sweep::FlowRecord& f : rec.flows) {
          u.goodput_segments += static_cast<double>(f.bytes_delivered) / mss;
          if (f.traced) ds.push_back(f.trace_digest);
        }
        if (ds != digests[g][i]) {
          std::fprintf(stderr, "perfbench: %s [%s]: sweep record digests differ "
                       "from run_cell\n", texts[g].name.c_str(), rec.label.c_str());
          bad[g][i] = 1;
        }
      }
    }
    {
      const Span s(prof_, "sweep.cached_rerun");
      const auto t0 = Clock::now();
      for (std::size_t g = 0; g < scs.size(); ++g) {
        const sweep::SweepReport again =
            sweep::run_sweep(scs[g], texts[g].name, store, so);
        u.rerun_cells += again.cells;
        u.rerun_hits += again.cache_hits;
        const bool same = again.complete && reports[g].complete &&
                          sweep::summary_json(again) ==
                              sweep::summary_json(reports[g]);
        if (again.computed != 0 || !same) {
          std::fprintf(stderr, "perfbench: %s: cached re-run computed %zu cells, "
                       "summary %s\n", texts[g].name.c_str(), again.computed,
                       same ? "identical" : "differs");
          bad[g].assign(bad[g].size(), 1);
        }
      }
      u.cached_rerun_s = secs_since(t0);
    }
    std::filesystem::remove_all(store_dir);
    for (const std::vector<char>& b : bad) {
      u.cells += b.size();
      u.failed += static_cast<std::uint64_t>(std::count(b.begin(), b.end(), 1));
    }
  }
  end(u);
  return u;
}

Unit Bench::run_unit() {
  if (a_.workload == "paper_grid") return paper_grid_unit();
  return fanin_unit(a_.workload == "fanin_100k_sharded");
}

/// One set-up pass: `Scenario::from_text` of every grid plus each cell's
/// `setup` phase, the cells run for 1 ms of simulated time.  Returns its
/// set-up seconds, as a unit counts them, or nullopt if anything threw.
std::optional<double> Bench::setup_pass() {
  const bool sharded = a_.workload == "fanin_100k_sharded";
  const std::vector<perfbench::ScenarioText> texts =
      a_.workload == "paper_grid"
          ? perfbench::paper_grid_texts(a_.seed, a_.smoke)
          : std::vector<perfbench::ScenarioText>{
                perfbench::fanin_text(a_.seed, a_.smoke)};
  scenario::RunOptions ro;
  ro.threads = sharded ? kShardThreads : 1;
  ro.shards = sharded ? kShards : 1;
  double s = 0;
  try {
    for (const perfbench::ScenarioText& t : texts) {
      const auto t0 = Clock::now();
      const scenario::Scenario sc = scenario::Scenario::from_text(t.text, t.name);
      s += secs_since(t0);
      for (std::size_t i = 0; i < sc.cells(); ++i) {
        scenario::ScenarioSpec spec = sc.cell(i);
        spec.stop = scenario::ScenarioSpec::Stop::kTimeout;
        spec.timeout_s = 1e-3;
        for (const obs::Profiler::Phase& ph :
             scenario::run_cell(spec, i, sc.label(i), ro).phases) {
          if (ph.name == "setup") s += ph.dur_us * 1e-6;
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up pass threw: %s\n", e.what());
    return std::nullopt;
  }
  return s;
}

MetricMap Bench::layer_metrics(const Unit& u) const {
  MetricMap m;
  const auto put = [&m](const std::string& name, double v, const char* unit) {
    m[name] = {v, unit};
  };
  const auto cnt = [&put](const std::string& name, std::uint64_t v) {
    put(name, static_cast<double>(v), "count");
  };
  put("scenario.load_s", u.load_s, "s");
  put("scenario.setup_s", u.cell_setup_s, "s");
  put("scenario.run_s", u.run_s, "s");
  put("scenario.collect_s", u.collect_s, "s");
  cnt("scenario.cells", u.cells);
  put("scenario.run_ns_per_event",
      ratio(u.run_s * 1e9, static_cast<double>(u.sim.events_executed)), "ns");
  put("scenario.run_ns_per_packet",
      ratio(u.run_s * 1e9, static_cast<double>(u.packets)), "ns");

  cnt("sim.events", u.sim.events_executed);
  cnt("sim.timers_scheduled", u.sim.timer_scheduled);
  cnt("sim.timers_cancelled", u.sim.timer_cancelled);
  cnt("sim.timers_fired", u.sim.timer_fired);
  put("sim.timer_fire_ratio",
      ratio(static_cast<double>(u.sim.timer_fired),
            static_cast<double>(u.sim.timer_scheduled)),
      "ratio");
  cnt("sim.timers_max_live", u.sim.timer_max_live);
  cnt("sim.timer_slot_allocs", u.sim.timer_slot_allocs);

  cnt("net.packets", u.packets);
  cnt("net.pool_capacity", u.pool_capacity);
  cnt("net.pool_outstanding_end", u.pool_outstanding_end);

  const TcpTotals& t = u.tcp;
  cnt("tcp.segments_sent", t.segments_sent);
  cnt("tcp.segments_retransmitted", t.segments_retransmitted);
  put("tcp.retransmit_ratio",
      ratio(static_cast<double>(t.segments_retransmitted),
            static_cast<double>(t.segments_sent)),
      "ratio");
  cnt("tcp.coarse_timeouts", t.coarse_timeouts);
  cnt("tcp.fine_retransmits", t.fine_retransmits);
  cnt("tcp.fast_retransmits", t.fast_retransmits);
  cnt("tcp.dup_acks", t.dup_acks);
  cnt("tcp.rtt_samples", t.rtt_samples);
  put("tcp.flows_completed_ratio",
      ratio(static_cast<double>(t.flows_completed), static_cast<double>(t.flows)),
      "ratio");
  put("tcp.useful_byte_ratio", ratio(t.bytes_delivered, t.bytes_sent), "ratio");

  for (const char* mod : perfbench::kCcModules) {
    const auto it = u.cc.find(mod);
    const TcpTotals c = it == u.cc.end() ? TcpTotals{} : it->second;
    cnt(std::string("cc.") + mod + ".segments_sent", c.segments_sent);
    put(std::string("cc.") + mod + ".retransmit_ratio",
        ratio(static_cast<double>(c.segments_retransmitted),
              static_cast<double>(c.segments_sent)),
        "ratio");
  }

  cnt("traffic.conversations_started", u.conv_started);
  cnt("traffic.conversations_completed", u.conv_completed);
  cnt("traffic.conversations_failed", u.conv_failed);
  put("traffic.background_goodput_Bps",
      ratio(u.bg_goodput_sum, static_cast<double>(u.bg_cells)), "B/s");

  cnt("trace.events", u.trace_events);
  put("trace.digest_s", u.digest_s, "s");
  put("trace.analyze_s", u.analyze_s, "s");

  // exp.*: 0 when no shard executor ran (the unsharded workloads).
  const int threads = u.sharded ? kShardThreads : 1;
  cnt("exp.windows", u.windows);
  cnt("exp.cross_posts", u.cross_posts);
  put("exp.lookahead_s", u.lookahead_s, "s");
  put("exp.run_ns_per_window",
      ratio(u.sharded_run_s * 1e9, static_cast<double>(u.windows)), "ns");
  put("exp.lane_imbalance", u.lane_imbalance, "ratio");
  put("exp.cpu_utilization",
      u.sharded ? ratio(u.cpu_s, u.wall_s * threads) : 0, "ratio");

  // sweep.*: 0 outside paper_grid.  The overhead is run_sweep's wall
  // time beyond the run_cell calls of pass A, which compute the same cells.
  put("sweep.overhead_s", u.sweep_objects > 0 ? u.sweep_wall_s - u.run_cell_s : 0,
      "s");
  cnt("sweep.objects", u.sweep_objects);
  put("sweep.cached_rerun_s", u.cached_rerun_s, "s");
  put("sweep.cache_hit_ratio",
      ratio(static_cast<double>(u.rerun_hits), static_cast<double>(u.rerun_cells)),
      "ratio");

  cnt("proc.minor_faults", u.minor_faults);
  put("proc.sys_s", u.sys_s, "s");
  cnt("proc.invol_ctx_switches", u.invol_ctx_switches);
  return m;
}

/// Spans with their self time (duration minus the part their direct
/// children cover), aggregated by name.
void Bench::print_span_table() const {
  struct Node {
    const obs::Profiler::Phase* ph;
    double child_us = 0;
  };
  std::vector<obs::Profiler::Phase> all = prof_->phases();
  all.insert(all.end(), inner_.begin(), inner_.end());
  std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
    return x.start_us != y.start_us ? x.start_us < y.start_us : x.dur_us > y.dur_us;
  });
  std::vector<Node> nodes;
  nodes.reserve(all.size());
  std::vector<std::size_t> stack;
  for (const obs::Profiler::Phase& ph : all) {
    while (!stack.empty()) {
      const obs::Profiler::Phase& top = *nodes[stack.back()].ph;
      if (ph.start_us + ph.dur_us <= top.start_us + top.dur_us + 0.5) break;
      stack.pop_back();
    }
    if (!stack.empty()) nodes[stack.back()].child_us += ph.dur_us;
    nodes.push_back({&ph});
    stack.push_back(nodes.size() - 1);
  }
  struct Agg {
    std::uint64_t n = 0;
    double total_us = 0;
    double self_us = 0;
    std::size_t first = 0;
  };
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Agg& a = by_name[nodes[i].ph->name];
    if (a.n == 0) a.first = i;
    ++a.n;
    a.total_us += nodes[i].ph->dur_us;
    a.self_us += std::max(0.0, nodes[i].ph->dur_us - nodes[i].child_us);
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& x, const auto& y) { return x.second.first < y.second.first; });
  double self_sum = 0;
  for (const auto& r : rows) self_sum += r.second.self_us;
  std::printf("\nspans (traced units)        count      total_s       self_s  self%%\n");
  for (const auto& [name, a] : rows) {
    std::printf("  %-22s %10llu %12.4f %12.4f %6.1f\n", name.c_str(),
                static_cast<unsigned long long>(a.n), a.total_us * 1e-6,
                a.self_us * 1e-6, 100.0 * ratio(a.self_us, self_sum));
  }
}

void Bench::write_trace_file() const {
  std::vector<obs::Profiler::Phase> all = prof_->phases();
  all.insert(all.end(), inner_.begin(), inner_.end());
  const std::string path = std::string(kOutDir) + "/" + a_.workload + ".trace.json";
  std::ofstream out(path, std::ios::trunc);
  out << obs::chrome_trace({{"perfbench " + a_.workload, std::move(all)}}) << '\n';
  std::printf("wrote %s\n", path.c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
    out += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Bench::run() {
  if (check_pins() && a_.write_pins.empty() && !load_pins()) {
    std::fprintf(stderr, "perfbench: no pinned digests in %s\n", kPinsPath);
    return 2;
  }
  std::filesystem::create_directories(kOutDir);

  // An untimed set-up pass first: a process's first set-up of the
  // fan-in cell takes twice as long as later ones (fresh heap pages),
  // and no timed set-up should pay that.
  if (a_.write_pins.empty()) static_cast<void>(setup_pass());

  // Untraced units; with --trace 1 each is followed by a traced unit
  // for the per-layer metrics, so both kinds share the same periods of
  // the machine's load, for at least kTracedPairs pairs.
  std::vector<Unit> plain;
  std::vector<Unit> traced;
  if (a_.trace) profiler_.emplace();
  const auto one = [&](std::vector<Unit>& out, obs::Profiler* p) {
    prof_ = p;
    out.push_back(run_unit());
    prof_ = nullptr;
    const Unit& u = out.back();
    std::printf("unit %zu%s: wall %.3f s, setup %.3f s, sim %.1f s, events %llu, "
                "cells %llu, failed %llu\n",
                plain.size() + traced.size(), p != nullptr ? " (traced)" : "",
                u.wall_s, u.load_s + u.cell_setup_s, u.sim_s,
                static_cast<unsigned long long>(u.sim.events_executed),
                static_cast<unsigned long long>(u.cells),
                static_cast<unsigned long long>(u.failed));
    std::fflush(stdout);
  };
  const auto t0 = Clock::now();
  do {
    one(plain, nullptr);
    if (a_.trace) one(traced, &*profiler_);
  } while ((secs_since(t0) < a_.seconds ||
            (a_.trace && traced.size() < kTracedPairs)) &&
           a_.write_pins.empty());
  if (a_.trace) prof_ = &*profiler_;

  // `setup_s` is the median of set-up passes after the units, whose
  // runs have grown the heap as a grid's earlier cells do for its later
  // ones.  A pass that threw is left out; the units count its cells as
  // failed.
  std::vector<double> setups;
  for (int i = 0; i < kSetupPasses && !a_.trace && a_.write_pins.empty(); ++i) {
    const std::optional<double> s = setup_pass();
    if (s.has_value()) setups.push_back(*s);
  }

  if (!a_.write_pins.empty()) {
    std::ofstream out(a_.write_pins, std::ios::trunc);
    for (const auto& [key, d] : observed_) out << key << '\t' << hex(d) << '\n';
    std::printf("wrote %zu digests to %s\n", observed_.size(), a_.write_pins.c_str());
    return 0;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::optional<std::uint64_t> probe = plain.front().probe_digest;
  std::vector<const Unit*> all;
  for (const Unit& u : plain) all.push_back(&u);
  for (const Unit& u : traced) all.push_back(&u);
  for (const Unit* u : all) {
    attempted += u->cells;
    failed += u->failed;
    if (u->probe_digest != probe) {
      std::fprintf(stderr, "perfbench: probe digest changed between units\n");
      ++failed;
    }
  }

  const rusage ru = usage_now();
  const Unit& last = plain.back();
  std::printf("digests: %llu traced flows, digest set %s",
              static_cast<unsigned long long>(last.traced_flows),
              hex(last.digest_set).c_str());
  if (probe.has_value()) std::printf(", fan-in probe %s", hex(*probe).c_str());
  std::printf(" (seed %llu%s)\n", static_cast<unsigned long long>(a_.seed),
              check_pins() ? ", checked against pins" : "");
  std::printf("info {\"units\": %zu, \"invol_ctx_switches\": %ld, "
              "\"minor_faults\": %ld, \"peak_rss_MB\": %.1f}\n",
              plain.size() + traced.size(), ru.ru_nivcsw, ru.ru_minflt,
              static_cast<double>(ru.ru_maxrss) / 1024.0);

  MetricMap metrics;
  if (!a_.trace) {
    const auto med = [&plain](const std::function<double(const Unit&)>& f) {
      std::vector<double> v;
      for (const Unit& u : plain) v.push_back(f(u));
      return median(v);
    };
    metrics["wall_s_per_sim_s"] = {
        med([](const Unit& u) { return ratio(u.wall_s, u.sim_s); }), "s/s"};
    metrics["cpu_s_per_sim_s"] = {
        med([](const Unit& u) { return ratio(u.cpu_s, u.sim_s); }), "s/s"};
    metrics["goodput_segments_per_wall_s"] = {
        med([](const Unit& u) { return ratio(u.goodput_segments, u.wall_s); }),
        "segments/s"};
    metrics["setup_s"] = {median(setups), "s"};
    metrics["peak_rss_MB"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"};
  } else {
    // Per-layer metrics: per-metric medians over the traced units.
    std::map<std::string, std::vector<double>> values;
    for (const Unit& u : traced) {
      for (const auto& [name, vu] : layer_metrics(u)) {
        values[name].push_back(vu.first);
        metrics[name] = vu;
      }
    }
    for (auto& [name, vu] : metrics) vu.first = median(values[name]);

    // Each traced unit against the plain unit just before it.
    std::vector<double> pairs;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      pairs.push_back(ratio(traced[i].wall_s, plain[i].wall_s) - 1);
    }
    metrics["trace_overhead"] = {median(pairs), "ratio"};

    // A probe that lost work has no time; it counts as a failure.
    const Unit& u = traced.back();
    const auto put_probe = [&](const char* name, std::optional<double> ns) {
      if (!ns.has_value()) {
        std::fprintf(stderr, "perfbench: probe %s lost work\n", name);
        ++failed;
      }
      metrics[name] = {ns.value_or(0), "ns"};
    };
    put_probe("sim.probe.timer_restart_ns",
              perfbench::probe_timer_restart_ns(u.sim.timer_max_live));
    put_probe("sim.probe.schedule_pop_ns",
              perfbench::probe_schedule_pop_ns(u.sim.timer_max_live + u.pool_capacity));
    put_probe("net.probe.link_ns_per_packet",
              perfbench::probe_link_ns_per_packet(u.packets));

    std::printf("\nper-layer metrics (%s, medians over %zu traced units)\n",
                a_.workload.c_str(), traced.size());
    for (const auto& [name, vu] : metrics) {
      std::printf("  %-36s %16.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
    }
    print_span_table();
    write_trace_file();
  }
  print_result(failed == 0 && attempted > 0, attempted, failed, metrics);
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload {fanin_100k|fanin_100k_sharded|"
               "paper_grid} [--seed N] [--seconds S] [--trace 0|1]\n"
               "       [--smoke] [--corrupt-pins] [--write-pins FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + f).c_str());
      return argv[++i];
    };
    if (f == "--workload") {
      a.workload = val();
    } else if (f == "--seed") {
      a.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (f == "--seconds") {
      a.seconds = std::strtod(val().c_str(), nullptr);
    } else if (f == "--trace") {
      a.trace = val() != "0";
    } else if (f == "--smoke") {
      a.smoke = true;
    } else if (f == "--corrupt-pins") {
      a.corrupt_pins = true;
    } else if (f == "--write-pins") {
      a.write_pins = val();
    } else {
      usage(("unknown flag " + f).c_str());
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
      std::end(kWorkloads)) {
    usage(("unknown workload '" + a.workload + "'").c_str());
  }
  try {
    return Bench(std::move(a)).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
