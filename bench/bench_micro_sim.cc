// Micro-benchmarks of the simulator substrate itself: event-chain
// throughput through the timing wheel, timer churn, and
// packets-per-second through a loaded link — the numbers that bound
// every experiment's wall time.
//
// A plain binary (no google-benchmark) so the exact same timing loops
// could be compiled against the pre-PR substrate to produce
// BENCH_micro_sim.baseline.json.  Prints a human table and writes a
// machine-readable JSON report (VEGAS_BENCH_JSON overrides the path)
// containing the baseline, the current numbers, the speedups, and the
// steady-state allocation counters that back the "zero allocation"
// claim.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "net/link.h"
#include "net/packet.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "sim/simulator.h"
#include "sim/timer.h"

using namespace vegas;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Steady-state allocation counters: callbacks boxed by the wheel, and
// packet-pool growth after the link workload's first (warm-up) round.
// All of them must be zero for the "zero allocations in steady state"
// claim to hold.
struct SteadyState {
  std::uint64_t boxed_actions = 0;
  std::uint64_t pool_capacity_growth = 0;
};

SteadyState g_steady;

struct Hop {
  sim::Simulator* s;
  long* remaining;
  void operator()() const {
    if (--*remaining > 0) {
      s->schedule(sim::Time::microseconds(1), Hop{s, remaining});
    }
  }
};

double wl_event_chain(long total) {
  sim::Simulator s;
  long remaining = total;
  const auto t0 = Clock::now();
  s.schedule(sim::Time::microseconds(1), Hop{&s, &remaining});
  s.run();
  const double el = secs_since(t0);
  g_steady.boxed_actions += s.wheel_metrics().boxed_actions;
  return static_cast<double>(s.events_executed()) / el;
}

// Same chain, but with every simulator counter bound into an obs
// registry first (registered, never sampled).  Binding records cell
// pointers only, so this must run within noise of wl_event_chain — the
// report carries the measured overhead percentage to prove it.
double wl_event_chain_registered(long total) {
  sim::Simulator s;
  obs::Registry reg;
  s.register_metrics(reg);
  long remaining = total;
  const auto t0 = Clock::now();
  s.schedule(sim::Time::microseconds(1), Hop{&s, &remaining});
  s.run();
  const double el = secs_since(t0);
  g_steady.boxed_actions += s.wheel_metrics().boxed_actions;
  return static_cast<double>(s.events_executed()) / el;
}

double wl_timer_churn(long total) {
  sim::Simulator s;
  sim::Timer t(s, [] {});
  const auto t0 = Clock::now();
  for (long i = 0; i < total; ++i) {
    t.restart(sim::Time::milliseconds(1));
    t.stop();
  }
  g_steady.boxed_actions += s.wheel_metrics().boxed_actions;
  return static_cast<double>(total) / secs_since(t0);
}

class CountingSink : public net::Node {
 public:
  CountingSink() : Node(0, "sink") {}
  void receive(net::PacketPtr p) override {
    count += p->uid != 0 ? 1 : 0;
  }
  std::uint64_t count = 0;
};

double wl_link_throughput(int rounds) {
  std::uint64_t total = 0;
  std::uint64_t warm_capacity = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    sim::Simulator sim;
    CountingSink sink;
    net::LinkConfig cfg{1e9, sim::Time::milliseconds(1), 64};
    net::Link link(sim, "l", cfg, sink);
    for (int burst = 0; burst < 200; ++burst) {
      for (int i = 0; i < 50; ++i) {
        auto p = net::make_packet();
        p->payload_bytes = 1024;
        link.send(std::move(p));
      }
      sim.run();
    }
    total += sink.count;
    if (r == 0) warm_capacity = net::packet_pool_stats().capacity;
  }
  const double el = secs_since(t0);
  if (rounds > 1) {
    g_steady.pool_capacity_growth +=
        net::packet_pool_stats().capacity - warm_capacity;
  }
  return static_cast<double>(total) / el;
}

// --- baseline + JSON plumbing ---------------------------------------

struct Metric {
  const char* key;
  double current = 0;
  double baseline = 0;  // 0 when the baseline file was not found
};

// Pulls `"key": <number>` out of a flat JSON object without a JSON
// library: find the quoted key, skip to the ':', strtod the rest.
double scan_json_number(const std::string& text, const char* key) {
  const std::string quoted = std::string("\"") + key + "\"";
  const std::size_t at = text.find(quoted);
  if (at == std::string::npos) return 0;
  const std::size_t colon = text.find(':', at + quoted.size());
  if (colon == std::string::npos) return 0;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

std::string read_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

std::string load_baseline() {
  if (const char* env = std::getenv("VEGAS_BENCH_BASELINE")) {
    return read_file(env);
  }
  // The bench is usually launched either from the repo root or from
  // inside build/bench/.
  for (const char* path : {"BENCH_micro_sim.baseline.json",
                           "../BENCH_micro_sim.baseline.json",
                           "../../BENCH_micro_sim.baseline.json"}) {
    std::string text = read_file(path);
    if (!text.empty()) return text;
  }
  return {};
}

void write_json(const std::vector<Metric>& metrics, double scale,
                bool have_baseline, const obs::Profiler& prof,
                double overhead_pct) {
  const char* path = std::getenv("VEGAS_BENCH_JSON");
  if (path == nullptr || *path == '\0') path = "BENCH_micro_sim.json";
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"scale\": %g,\n  \"metrics\": {\n", scale);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(f, "    \"%s\": {\"baseline\": %.6g, \"current\": %.6g",
                 m.key, m.baseline, m.current);
    if (have_baseline && m.baseline > 0) {
      std::fprintf(f, ", \"speedup\": %.3f", m.current / m.baseline);
    }
    std::fprintf(f, "}%s\n", i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f,
               "  },\n"
               "  \"steady_state\": {\n"
               "    \"boxed_actions\": %llu,\n"
               "    \"packet_pool_capacity_growth_after_warmup\": %llu,\n"
               "    \"packet_pool_outstanding_at_end\": %llu\n"
               "  },\n",
               static_cast<unsigned long long>(g_steady.boxed_actions),
               static_cast<unsigned long long>(g_steady.pool_capacity_growth),
               static_cast<unsigned long long>(
                   net::packet_pool_stats().outstanding()));
  // obs run-summary block (EXPERIMENTS.md documents the schema): wall
  // time per bench phase from the profiler, plus the registered-but-
  // unsampled overhead measurement.
  std::fprintf(f, "  \"obs\": {\n    \"metrics_overhead_pct\": %.3f,\n"
               "    \"phases_wall_us\": {\n", overhead_pct);
  const auto totals = prof.totals_us();
  for (std::size_t i = 0; i < totals.size(); ++i) {
    std::fprintf(f, "      \"%s\": %.1f%s\n", totals[i].first.c_str(),
                 totals[i].second, i + 1 < totals.size() ? "," : "");
  }
  std::fprintf(f, "    }\n  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  bench::header("Micro", "Simulator substrate hot-path throughput");
  const double scale = bench::run_scale();
  const int rounds5 = bench::scaled(5);
  const long chain = std::max(10000L, static_cast<long>(1000000 * scale));

  obs::Profiler prof;
  double timer_churn = 0, link_tput = 0;
  // The overhead check: best-of-3 interleaved runs of the identical
  // chain, bare vs. with the full simulator counter set bound into a
  // registry.  Acceptance wants the registered loop within 2%.
  double chain_bare = 0, chain_registered = 0;
  for (int i = 0; i < 3; ++i) {
    {
      auto p = prof.scope("event_chain");
      chain_bare = std::max(chain_bare, wl_event_chain(chain));
    }
    {
      auto p = prof.scope("event_chain_registered");
      chain_registered =
          std::max(chain_registered, wl_event_chain_registered(chain));
    }
  }
  const double overhead_pct =
      chain_bare > 0 ? (chain_bare - chain_registered) / chain_bare * 100 : 0;
  {
    auto p = prof.scope("timer_churn");
    timer_churn = wl_timer_churn(chain);
  }
  {
    auto p = prof.scope("link_throughput");
    link_tput = wl_link_throughput(rounds5);
  }

  std::vector<Metric> metrics{
      {"simulator_event_chain_events_per_sec", chain_bare},
      {"simulator_event_chain_registered_events_per_sec", chain_registered},
      {"timer_restart_churn_ops_per_sec", timer_churn},
      {"link_packet_throughput_packets_per_sec", link_tput},
  };

  const std::string baseline = load_baseline();
  if (baseline.empty()) {
    bench::note("(BENCH_micro_sim.baseline.json not found; speedups "
                "omitted — set VEGAS_BENCH_BASELINE to point at it)");
  }
  for (Metric& m : metrics) {
    m.baseline = baseline.empty() ? 0 : scan_json_number(baseline, m.key);
  }

  exp::Table table({"metric", "baseline/s", "current/s", "speedup"}, 14);
  for (const Metric& m : metrics) {
    char cur[32], base[32], speed[32];
    std::snprintf(cur, sizeof(cur), "%.3g", m.current);
    if (m.baseline > 0) {
      std::snprintf(base, sizeof(base), "%.3g", m.baseline);
      std::snprintf(speed, sizeof(speed), "%.2fx", m.current / m.baseline);
    } else {
      std::snprintf(base, sizeof(base), "-");
      std::snprintf(speed, sizeof(speed), "-");
    }
    table.add_row({m.key, base, cur, speed});
  }
  table.print();

  std::printf("\nsteady-state allocations (all must be 0): "
              "boxed_actions=%llu pool_growth=%llu outstanding=%llu\n",
              static_cast<unsigned long long>(g_steady.boxed_actions),
              static_cast<unsigned long long>(g_steady.pool_capacity_growth),
              static_cast<unsigned long long>(
                  net::packet_pool_stats().outstanding()));
  std::printf("metrics-registered-but-unsampled overhead: %.2f%% "
              "(bare %.3g ev/s vs registered %.3g ev/s)\n",
              overhead_pct, chain_bare, chain_registered);

  write_json(metrics, scale, !baseline.empty(), prof, overhead_pct);
  return 0;
}
