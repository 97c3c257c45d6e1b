// Head-to-head congestion-control matrix: every registered module
// paired against every other on the shared ccmatrix.scn dumbbell
// (11 x 11 = 121 cells with the stock registry).  Per cell it reports
// each flow's throughput, retransmission rate, and Karn-filtered ACK
// delay (mean / p95 from the flow's trace), plus the cell's Jain
// fairness index; per-module aggregates are routed through an
// obs::Registry so the JSON summary block uses the same exporter as
// every other bench.  Output lands in BENCH_cc_matrix.json (override
// with VEGAS_BENCH_JSON) and is schema-checked in CI by
// tools/validate_cc_matrix.py.
//
// Flags:
//   --quick   restrict both axes to {reno, vegas, cubic} (9 cells) —
//             the CI smoke configuration
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cc/registry.h"
#include "common/json.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "scenario/engine.h"
#include "stats/summary.h"
#include "trace/analyzer.h"

using namespace vegas;

namespace {

struct FlowOut {
  std::string module;      // canonical registry name, e.g. "new-aimd"
  std::string algorithm;   // display label, e.g. "NewAIMD"
  bool completed = false;
  double throughput_kBps = 0;
  double retx_rate = 0;      // retransmitted / sent bytes
  double delay_mean_ms = 0;  // Karn-filtered per-segment ACK delay
  double delay_p95_ms = 0;
  std::size_t delay_samples = 0;
};

struct CellOut {
  std::size_t index = 0;
  std::string label;
  std::uint64_t seed = 0;
  double sim_time_s = 0;
  double fairness_jain = 1.0;
  FlowOut a, b;
};

FlowOut reduce_flow(const std::string& module,
                    const scenario::FlowResult& f) {
  FlowOut out;
  out.module = module;
  out.algorithm = f.algorithm;
  out.completed = f.transfer.completed;
  out.throughput_kBps = f.transfer.throughput_Bps() / 1024.0;
  const auto& st = f.transfer.sender_stats;
  out.retx_rate = static_cast<double>(st.bytes_retransmitted) /
                  static_cast<double>(std::max<ByteCount>(st.bytes_sent, 1));
  std::vector<double> delays_ms;
  for (const trace::Point& p : trace::Analyzer(f.trace).ack_delays()) {
    delays_ms.push_back(p.value * 1000.0);
  }
  out.delay_samples = delays_ms.size();
  if (!delays_ms.empty()) {
    double sum = 0;
    for (const double d : delays_ms) sum += d;
    out.delay_mean_ms = sum / static_cast<double>(delays_ms.size());
    out.delay_p95_ms = stats::percentile(delays_ms, 95.0);
  }
  return out;
}

CellOut run_one_cell(const scenario::Scenario& sc, std::size_t i) {
  const scenario::ScenarioSpec& spec = sc.cell(i);
  const scenario::CellResult r = scenario::run_cell(spec, i, sc.label(i));
  CellOut out;
  out.index = i;
  out.label = r.label;
  out.seed = r.seed;
  out.sim_time_s = r.sim_time_s;
  out.fairness_jain = r.fairness_jain;
  out.a = reduce_flow(spec.flows[0].algo.name, r.flows[0]);
  out.b = reduce_flow(spec.flows[1].algo.name, r.flows[1]);
  return out;
}

/// Per-module aggregates over every appearance in the matrix (each
/// module shows up once as flow "a" and once as flow "b" against every
/// opponent, so all means weight opponents equally).
struct ModuleAgg {
  stats::Running throughput_kBps;
  stats::Running retx_rate;
  stats::Running delay_mean_ms;
  stats::Running jain;
  std::uint64_t incomplete = 0;
};

void write_flow_json(json::Writer& w, const FlowOut& f) {
  w.begin_object();
  w.field("module", f.module);
  w.field("algorithm", f.algorithm);
  w.field("completed", f.completed);
  w.field("throughput_kBps", f.throughput_kBps);
  w.field("retx_rate", f.retx_rate);
  w.key("delay_ms");
  w.begin_object();
  w.field("mean", f.delay_mean_ms);
  w.field("p95", f.delay_p95_ms);
  w.field("samples", static_cast<std::uint64_t>(f.delay_samples));
  w.end_object();
  w.end_object();
}

void write_json_file(const std::string& scenario_name, bool quick,
                     const std::vector<std::string>& module_names,
                     const std::vector<CellOut>& cells,
                     const obs::Summary& summary) {
  json::Writer w;
  w.begin_object();
  w.field("experiment", "cc_matrix");
  w.field("scenario", scenario_name);
  w.field("quick", quick);
  w.key("modules");
  w.begin_array();
  for (const std::string& m : module_names) w.value(m);
  w.end_array();
  w.key("cells");
  w.begin_array();
  for (const CellOut& c : cells) {
    w.begin_object();
    w.field("index", static_cast<std::uint64_t>(c.index));
    w.field("label", c.label);
    w.field("seed", c.seed);
    w.field("sim_time_s", c.sim_time_s);
    w.field("fairness_jain", c.fairness_jain);
    w.key("flows");
    w.begin_object();
    w.key("a");
    write_flow_json(w, c.a);
    w.key("b");
    write_flow_json(w, c.b);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("summary");
  w.begin_object();
  obs::write_summary(w, summary);
  w.end_object();
  w.end_object();

  const char* path = std::getenv("VEGAS_BENCH_JSON");
  if (path == nullptr || *path == '\0') path = "BENCH_cc_matrix.json";
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fwrite(w.str().data(), 1, w.str().size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("CC matrix",
                "Head-to-head (variant x variant) congestion-control matrix");
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (known: --quick)\n", arg.c_str());
      return 2;
    }
  }

  const scenario::Scenario sc = scenario::Scenario::load(
      VEGAS_REPO_ROOT "/examples/scenarios/ccmatrix.scn");

  // The scenario's sweep axes must cover the whole registry — a module
  // added without extending ccmatrix.scn silently vanishing from the
  // matrix would defeat the point of the bench.
  std::set<std::string> swept;
  for (std::size_t i = 0; i < sc.cells(); ++i) {
    swept.insert(sc.cell(i).flows[0].algo.name);
    swept.insert(sc.cell(i).flows[1].algo.name);
  }
  std::vector<std::string> module_names;
  for (const tcp::CongOps* ops : cc::modules()) {
    module_names.emplace_back(ops->name);
    if (swept.find(module_names.back()) == swept.end()) {
      std::fprintf(stderr,
                   "registered module '%s' is missing from the "
                   "ccmatrix.scn sweep axes — add it to both lists\n",
                   ops->name);
      return 1;
    }
  }

  // --quick: CI smoke over a 3x3 corner of the matrix.
  const std::set<std::string> quick_set = {"reno", "vegas", "cubic"};
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < sc.cells(); ++i) {
    if (quick && (quick_set.count(sc.cell(i).flows[0].algo.name) == 0 ||
                  quick_set.count(sc.cell(i).flows[1].algo.name) == 0)) {
      continue;
    }
    selected.push_back(i);
  }
  std::printf("%zu of %zu cells selected%s\n", selected.size(), sc.cells(),
              quick ? " (--quick)" : "");

  const std::vector<CellOut> cells =
      bench::sweep(selected.size(), [&](std::size_t k) {
        return run_one_cell(sc, selected[k]);
      });

  // Per-module aggregates, routed through obs so the summary block uses
  // the standard exporter.  Metric cells live in deques (stable
  // addresses) declared before the registry that points at them.
  std::map<std::string, ModuleAgg> agg;
  obs::Histogram delay_hist({25, 50, 100, 150, 200, 300, 400, 600, 800,
                             1200, 1600, 2400, 3200});
  obs::Counter cells_run;
  obs::Counter flows_incomplete;
  for (const CellOut& c : cells) {
    cells_run.inc();
    for (const FlowOut* f : {&c.a, &c.b}) {
      ModuleAgg& m = agg[f->module];
      m.throughput_kBps.add(f->throughput_kBps);
      m.retx_rate.add(f->retx_rate);
      m.jain.add(c.fairness_jain);
      if (f->delay_samples > 0) {
        m.delay_mean_ms.add(f->delay_mean_ms);
        delay_hist.observe(f->delay_mean_ms);
      }
      if (!f->completed) {
        ++m.incomplete;
        flows_incomplete.inc();
      }
    }
  }
  std::deque<obs::Gauge> gauges;
  std::deque<obs::Counter> counters;
  obs::Registry reg;
  reg.bind_counter("cc_matrix.cells", cells_run);
  reg.bind_counter("cc_matrix.flows_incomplete", flows_incomplete);
  const auto gauge = [&](const std::string& name, double v) {
    gauges.emplace_back().set(v);
    reg.bind_gauge(name, gauges.back());
  };
  for (const auto& [name, m] : agg) {
    const std::string prefix = "cc_matrix." + name + ".";
    gauge(prefix + "throughput_kBps_mean", m.throughput_kBps.mean());
    gauge(prefix + "retx_rate_mean", m.retx_rate.mean());
    gauge(prefix + "delay_mean_ms", m.delay_mean_ms.mean());
    gauge(prefix + "fairness_jain_mean", m.jain.mean());
    counters.emplace_back().inc(m.incomplete);
    reg.bind_counter(prefix + "incomplete", counters.back());
  }
  reg.bind_histogram("cc_matrix.flow_delay_mean_ms", delay_hist);
  const obs::Summary summary = obs::summarize(reg);

  exp::Table table({"module", "thr kB/s", "retx rate", "delay ms", "jain",
                    "incomplete"},
                   12);
  for (const auto& [name, m] : agg) {
    char thr[32], retx[32], delay[32], jain[32];
    std::snprintf(thr, sizeof(thr), "%.2f", m.throughput_kBps.mean());
    std::snprintf(retx, sizeof(retx), "%.4f", m.retx_rate.mean());
    std::snprintf(delay, sizeof(delay), "%.1f", m.delay_mean_ms.mean());
    std::snprintf(jain, sizeof(jain), "%.3f", m.jain.mean());
    table.add_row({name, thr, retx, delay, jain,
                   std::to_string(m.incomplete)});
  }
  table.print();

  write_json_file(sc.name(), quick, module_names, cells, summary);

  if (flows_incomplete.value() > 0) {
    std::fprintf(stderr, "%llu flows did not complete before timeout\n",
                 static_cast<unsigned long long>(flows_incomplete.value()));
    return 1;
  }
  return 0;
}
