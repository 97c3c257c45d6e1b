// vegas-sim: scriptable experiment runner.
//
// Every subcommand declares its flags in a tools::FlagSet, which
// generates `vegas-sim <cmd> --help` and rejects unknown flags.  Run
// `vegas-sim --help` for the subcommand list; `--json` on any
// subcommand emits machine-readable results on stdout.
//
// Examples:
//   vegas-sim solo --algo vegas --json | jq .throughput_kBps
//   vegas-sim solo --algo reno --pcap reno.pcap && tcpdump -r reno.pcap
//   vegas-sim run examples/scenarios/table1.scn --json
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "cc/registry.h"
#include "common/json.h"
#include "exp/scenarios.h"
#include "exp/world.h"
#include "scenario/engine.h"
#include "sweep/service.h"
#include "tools/flags.h"
#include "trace/pcap.h"
#include "traffic/bulk.h"

using namespace vegas;
using tools::Flags;
using tools::FlagSet;

namespace {

FlagSet& algo_flags(FlagSet& fs, const std::string& key = "algo",
                    const std::string& what = "congestion control") {
  return fs
      .arg(key, "<name>", "vegas",
           what + ": any registered module ('vegas-sim algos' lists them)")
      .arg("alpha", "N", "2", "Vegas lower threshold (buffers)")
      .arg("beta", "N", "4", "Vegas upper threshold (buffers)")
      .arg("gamma", "N", "1", "Vegas slow-start exit threshold");
}

FlagSet solo_flags() {
  FlagSet fs("vegas-sim", "solo",
             "One bulk transfer over an otherwise idle Figure-5 dumbbell.");
  algo_flags(fs)
      .arg("bytes-kb", "N", "1024", "transfer size in KB")
      .arg("queue", "N", "10", "bottleneck queue capacity (packets)")
      .arg("delay-ms", "N", "30", "one-way bottleneck propagation delay")
      .arg("bw-kbps", "N", "200", "bottleneck bandwidth in KB/s")
      .arg("seed", "N", "1", "world seed")
      .arg("timeout", "S", "600", "simulated seconds to run at most")
      .arg("pcap", "<file>", "", "capture the bottleneck to a pcap file")
      .toggle("sack", "enable RFC 2018 selective ACKs")
      .toggle("paced-ss", "Vegas paced slow start")
      .toggle("bw-check", "Vegas slow-start bandwidth check")
      .toggle("json", "emit JSON on stdout");
  return fs;
}

FlagSet background_flags() {
  FlagSet fs("vegas-sim", "background",
             "Table 2/3: a measured 1 MB transfer against tcplib "
             "background conversations.");
  algo_flags(fs)
      .arg("bytes-kb", "N", "1024", "transfer size in KB")
      .arg("queue", "N", "10", "bottleneck queue capacity (packets)")
      .arg("seed", "N", "1", "world seed")
      .arg("interarrival", "S", "0.4", "mean conversation interarrival")
      .toggle("two-way", "also run tcplib on the reverse path (4.3)")
      .toggle("sack", "selective ACKs on the measured transfer")
      .toggle("json", "emit JSON on stdout");
  return fs;
}

FlagSet wan_flags() {
  FlagSet fs("vegas-sim", "wan",
             "Tables 4/5: one transfer across the 17-hop WAN chain with "
             "tcplib cross traffic.");
  algo_flags(fs)
      .arg("bytes-kb", "N", "1024", "transfer size in KB")
      .arg("seed", "N", "1", "world seed")
      .arg("cross-interarrival", "S", "2", "cross-conversation interarrival")
      .toggle("json", "emit JSON on stdout");
  return fs;
}

FlagSet fairness_flags() {
  FlagSet fs("vegas-sim", "fairness",
             "4.3: N same-engine connections sharing one bottleneck; "
             "reports Jain's index.");
  algo_flags(fs)
      .arg("conns", "N", "4", "number of connections")
      .arg("bytes-kb", "N", "2048", "transfer size per connection in KB")
      .arg("queue", "N", "20", "bottleneck queue capacity (packets)")
      .arg("seed", "N", "1", "world seed")
      .toggle("unequal", "give half the connections twice the delay")
      .toggle("json", "emit JSON on stdout");
  return fs;
}

FlagSet one_on_one_flags() {
  FlagSet fs("vegas-sim", "one-on-one",
             "Table 1: a 1 MB transfer vs a later 300 KB transfer.");
  FlagSet& with_algos = algo_flags(fs, "large-algo", "1 MB transfer engine");
  with_algos
      .arg("small-algo", "<name>", "vegas", "300 KB transfer engine")
      .arg("queue", "N", "15", "bottleneck queue capacity (packets)")
      .arg("delay", "S", "1", "small-transfer start delay (0..2.5 in paper)")
      .arg("seed", "N", "1", "world seed")
      .toggle("json", "emit JSON on stdout");
  return fs;
}

FlagSet run_flags() {
  FlagSet fs("vegas-sim", "run",
             "Run a declarative scenario file: expands its sweep grid and "
             "fans the cells out in parallel (docs/SCENARIOS.md).",
             "<file.scn>");
  fs.arg("threads", "N", "0",
         "worker threads (0 = VEGAS_THREADS, then hardware)")
      .arg("pcap-dir", "<dir>", "", "dump cell<i>.pcap of each bottleneck")
      .arg("trace-dir", "<dir>", "",
           "dump cell<i>-<flow>.trace for traced flows")
      .arg("metrics", "<file>", "",
           "write the JSONL metrics time series here (forces sampling on)")
      .arg("metrics-interval", "S", "0",
           "sampling cadence in sim seconds (overrides [metrics] interval_s)")
      .arg("chrome-trace", "<file>", "",
           "write per-cell wall-clock phases as a chrome://tracing file")
      .arg("shards", "N", "0",
           "shard each cell for parallel execution (0 = scenario's "
           "[sharding] after VEGAS_SHARDS, 1 = force single-threaded)")
      .toggle("dry-run", "expand and validate the grid without simulating")
      .toggle("json", "emit JSON on stdout");
  return fs;
}

FlagSet algos_flags() {
  FlagSet fs("vegas-sim", "algos",
             "List the registered congestion-control modules.");
  fs.toggle("json", "emit JSON on stdout");
  return fs;
}

int cmd_algos(const Flags& flags) {
  const std::vector<const tcp::CongOps*> mods = cc::modules();
  if (flags.get_bool("json")) {
    json::Writer w;
    w.begin_object();
    w.field("experiment", "algos");
    w.key("modules");
    w.begin_array();
    for (const tcp::CongOps* m : mods) {
      w.begin_object();
      w.field("name", m->name);
      w.field("label", m->label);
      if (m->alt != nullptr) w.field("alt", m->alt);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    for (const tcp::CongOps* m : mods) {
      std::printf("%-11s %s%s%s%s\n", m->name, m->label,
                  m->alt != nullptr ? "  (alias: " : "",
                  m->alt != nullptr ? m->alt : "",
                  m->alt != nullptr ? ")" : "");
    }
  }
  return 0;
}

int usage(std::FILE* out, int code) {
  std::fprintf(out, "usage: vegas-sim <subcommand> [flags]\n\nsubcommands:\n");
  for (const FlagSet& fs :
       {run_flags(), solo_flags(), background_flags(), wan_flags(),
        fairness_flags(), one_on_one_flags(), algos_flags()}) {
    std::fprintf(out, "  %-11s %s\n", fs.command().c_str(),
                 fs.description().c_str());
  }
  std::fprintf(out, "  %-11s %s\n", "sweep",
               "cached, resumable, multi-process grids: run / status / "
               "diff (docs/SWEEPS.md)");
  std::fprintf(out, "\n'vegas-sim <subcommand> --help' lists that "
                    "subcommand's flags.\n");
  return code;
}

cc::AlgoSpec algo_from(const Flags& flags, const char* key = "algo") {
  const std::string name = flags.get_string(key, "vegas");
  const tcp::CongOps* ops = cc::find(name);
  if (ops == nullptr) {
    std::fprintf(stderr, "unknown algorithm '%s'; did you mean '%s'? "
                         "('vegas-sim algos' lists all modules)\n",
                 name.c_str(), cc::closest(name).c_str());
    std::exit(2);
  }
  cc::AlgoSpec spec = cc::AlgoSpec::named(std::string(ops->name));
  spec.alpha = flags.get_double("alpha", 2.0);
  spec.beta = flags.get_double("beta", 4.0);
  spec.gamma = flags.get_double("gamma", 1.0);
  return spec;
}

void emit_transfer(const traffic::TransferResult& r, bool json_out,
                   const char* what) {
  if (json_out) {
    json::Writer w;
    w.begin_object();
    w.field("experiment", what);
    w.field("algorithm", r.algorithm);
    w.field("completed", r.completed);
    w.field("bytes", static_cast<std::int64_t>(r.bytes));
    w.field("bytes_delivered", static_cast<std::int64_t>(r.bytes_delivered));
    w.field("duration_s", r.duration_s());
    w.field("throughput_kBps", r.throughput_Bps() / 1024.0);
    w.field("retransmitted_kb",
            static_cast<double>(r.sender_stats.bytes_retransmitted) / 1024.0);
    w.field("coarse_timeouts", r.sender_stats.coarse_timeouts);
    w.field("fast_retransmits", r.sender_stats.fast_retransmits);
    w.field("fine_retransmits", r.sender_stats.fine_retransmits);
    w.field("sack_retransmits", r.sender_stats.sack_retransmits);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("%s %s: %s, %.1f KB/s, %.1f KB retransmitted, "
                "%llu coarse timeouts\n",
                what, r.algorithm.c_str(),
                r.completed ? "completed" : "INCOMPLETE",
                r.throughput_Bps() / 1024.0,
                r.sender_stats.bytes_retransmitted / 1024.0,
                static_cast<unsigned long long>(
                    r.sender_stats.coarse_timeouts));
  }
}

int cmd_solo(const Flags& flags) {
  net::DumbbellConfig topo;
  topo.pairs = 1;
  topo.bottleneck_queue =
      static_cast<std::size_t>(flags.get_int("queue", 10));
  topo.bottleneck_delay =
      sim::Time::milliseconds(flags.get_int("delay-ms", 30));
  topo.bottleneck_bandwidth = kbps_to_rate(flags.get_double("bw-kbps", 200));
  exp::DumbbellWorld world(topo, tcp::TcpConfig{},
                           static_cast<std::uint64_t>(flags.get_int("seed", 1)));

  std::unique_ptr<trace::PcapWriter> pcap;
  if (const auto path = flags.get("pcap")) {
    pcap = std::make_unique<trace::PcapWriter>(*path);
    world.topo().bottleneck_fwd->set_tap(
        [&pcap](sim::Time t, const net::Packet& p) { pcap->capture(t, p); });
  }

  tcp::TcpConfig tcp_cfg;
  tcp_cfg.sack_enabled = flags.get_bool("sack");
  tcp_cfg.vegas_paced_slow_start = flags.get_bool("paced-ss");
  tcp_cfg.vegas_ss_bandwidth_check = flags.get_bool("bw-check");
  const cc::AlgoSpec algo = algo_from(flags);
  algo.apply(tcp_cfg);

  traffic::BulkTransfer::Config cfg;
  cfg.bytes = flags.get_int("bytes-kb", 1024) * 1024;
  cfg.port = 5001;
  cfg.tcp = tcp_cfg;
  cfg.cc = &algo.ops();
  traffic::BulkTransfer t(world.left(0), world.right(0), cfg);
  world.sim().run_until(sim::Time::seconds(flags.get_double("timeout", 600)));

  emit_transfer(t.result(), flags.get_bool("json"), "solo");
  if (pcap != nullptr && !flags.get_bool("json")) {
    std::printf("pcap: %llu packets captured\n",
                static_cast<unsigned long long>(pcap->packets_written()));
  }
  return t.done() ? 0 : 1;
}

int cmd_background(const Flags& flags) {
  exp::BackgroundParams p;
  p.transfer = algo_from(flags);
  p.bytes = flags.get_int("bytes-kb", 1024) * 1024;
  p.queue = static_cast<std::size_t>(flags.get_int("queue", 10));
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  p.mean_interarrival_s = flags.get_double("interarrival", 0.4);
  p.two_way = flags.get_bool("two-way");
  p.transfer_sack = flags.get_bool("sack");
  const auto r = exp::run_background(p);
  emit_transfer(r.transfer, flags.get_bool("json"), "background");
  if (!flags.get_bool("json")) {
    std::printf("background goodput: %.1f KB/s over the first %.0f s\n",
                r.background_goodput_Bps / 1024.0, exp::kBackgroundHorizonS);
  }
  return r.transfer.completed ? 0 : 1;
}

int cmd_wan(const Flags& flags) {
  exp::WanParams p;
  p.algo = algo_from(flags);
  p.bytes = flags.get_int("bytes-kb", 1024) * 1024;
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  p.cross_interarrival_s = flags.get_double("cross-interarrival", 2.0);
  const auto r = exp::run_wan(p);
  emit_transfer(r, flags.get_bool("json"), "wan");
  return r.completed ? 0 : 1;
}

int cmd_fairness(const Flags& flags) {
  exp::FairnessParams p;
  p.connections = static_cast<int>(flags.get_int("conns", 4));
  p.algo = algo_from(flags);
  p.bytes_each = flags.get_int("bytes-kb", 2048) * 1024;
  p.unequal_delay = flags.get_bool("unequal");
  p.queue = static_cast<std::size_t>(flags.get_int("queue", 20));
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto r = exp::run_fairness(p);
  if (flags.get_bool("json")) {
    json::Writer w;
    w.begin_object();
    w.field("experiment", "fairness");
    w.field("connections", static_cast<std::int64_t>(p.connections));
    w.field("jain_index", r.jain);
    w.field("all_completed", r.all_completed);
    w.field("coarse_timeouts", r.coarse_timeouts);
    w.key("throughput_kBps");
    w.begin_array();
    for (const double t : r.throughput_kBps) w.value(t);
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("fairness %s x%d%s: Jain=%.3f, %llu coarse timeouts%s\n",
                p.algo.label().c_str(), p.connections,
                p.unequal_delay ? " (unequal delay)" : "", r.jain,
                static_cast<unsigned long long>(r.coarse_timeouts),
                r.all_completed ? "" : " [INCOMPLETE]");
    for (std::size_t i = 0; i < r.throughput_kBps.size(); ++i) {
      std::printf("  conn %zu: %.1f KB/s\n", i, r.throughput_kBps[i]);
    }
  }
  return r.all_completed ? 0 : 1;
}

int cmd_one_on_one(const Flags& flags) {
  exp::OneOnOneParams p;
  p.small = algo_from(flags, "small-algo");
  p.large = algo_from(flags, "large-algo");
  p.queue = static_cast<std::size_t>(flags.get_int("queue", 15));
  p.small_delay_s = flags.get_double("delay", 1.0);
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto r = exp::run_one_on_one(p);
  if (flags.get_bool("json")) {
    json::Writer w;
    w.begin_object();
    w.field("experiment", "one-on-one");
    w.key("small");
    w.begin_object();
    w.field("algorithm", r.small.algorithm);
    w.field("throughput_kBps", r.small.throughput_Bps() / 1024.0);
    w.field("retransmitted_kb",
            static_cast<double>(r.small.sender_stats.bytes_retransmitted) /
                1024.0);
    w.end_object();
    w.key("large");
    w.begin_object();
    w.field("algorithm", r.large.algorithm);
    w.field("throughput_kBps", r.large.throughput_Bps() / 1024.0);
    w.field("retransmitted_kb",
            static_cast<double>(r.large.sender_stats.bytes_retransmitted) /
                1024.0);
    w.end_object();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    emit_transfer(r.small, false, "small(300KB)");
    emit_transfer(r.large, false, "large(1MB)");
  }
  return (r.small.completed && r.large.completed) ? 0 : 1;
}

// ----------------------------------------------------------------- run

std::string hex_digest(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

void emit_run_json(const std::string& path, const scenario::Scenario& sc,
                   const std::vector<scenario::CellResult>& results,
                   const std::vector<exp::ParallelRunner::WorkerStats>& workers) {
  json::Writer w;
  w.begin_object();
  w.field("experiment", "run");
  w.field("file", path);
  w.field("scenario", sc.name());
  w.field("cells", static_cast<std::int64_t>(results.size()));
  w.key("workers");
  w.begin_array();
  for (const auto& ws : workers) {
    w.begin_object();
    w.field("cells", static_cast<std::int64_t>(ws.cells));
    w.field("busy_ms", ws.busy_us / 1000.0);
    w.end_object();
  }
  w.end_array();
  w.key("results");
  w.begin_array();
  for (const scenario::CellResult& r : results) {
    w.begin_object();
    w.field("cell", static_cast<std::int64_t>(r.index));
    w.field("label", r.label);
    w.field("seed", r.seed);
    w.field("sim_time_s", r.sim_time_s);
    w.field("fairness_jain", r.fairness_jain);
    w.field("background_goodput_kBps", r.background_goodput_Bps / 1024.0);
    if (r.shard.has_value()) {
      w.key("shard");
      w.begin_object();
      w.field("shards", static_cast<std::int64_t>(r.shard->shards));
      w.field("threads", static_cast<std::int64_t>(r.shard->threads));
      w.field("lookahead_s", r.shard->lookahead_s);
      w.field("windows", r.shard->windows);
      w.field("cross_posts", r.shard->cross_posts);
      w.key("lane_events");
      w.begin_array();
      for (const std::uint64_t e : r.shard->lane_events) w.value(e);
      w.end_array();
      w.end_object();
    }
    w.key("flows");
    w.begin_array();
    for (const scenario::FlowResult& f : r.flows) {
      const traffic::TransferResult& t = f.transfer;
      w.begin_object();
      w.field("name", f.name);
      w.field("algorithm", t.algorithm.empty() ? f.algorithm : t.algorithm);
      w.field("completed", t.completed);
      w.field("bytes", static_cast<std::int64_t>(t.bytes));
      w.field("bytes_delivered", static_cast<std::int64_t>(t.bytes_delivered));
      w.field("duration_s", t.duration_s());
      w.field("throughput_kBps", t.throughput_Bps() / 1024.0);
      w.field("retransmitted_kb",
              static_cast<double>(t.sender_stats.bytes_retransmitted) /
                  1024.0);
      w.field("coarse_timeouts", t.sender_stats.coarse_timeouts);
      w.field("fast_retransmits", t.sender_stats.fast_retransmits);
      w.field("fine_retransmits", t.sender_stats.fine_retransmits);
      w.field("sack_retransmits", t.sender_stats.sack_retransmits);
      if (f.traced) {
        w.field("trace_digest", hex_digest(f.trace_digest));
        w.field("trace_events", static_cast<std::int64_t>(f.trace.size()));
      }
      w.end_object();
    }
    w.end_array();
    w.key("traffic");
    w.begin_array();
    for (const scenario::TrafficResult& t : r.traffic) {
      w.begin_object();
      w.field("name", t.name);
      w.field("conversations_started", t.stats.started);
      w.field("conversations_completed", t.stats.completed);
      w.field("conversations_failed", t.stats.failed);
      w.field("scripted_kb",
              static_cast<double>(t.stats.bytes_scripted) / 1024.0);
      w.end_object();
    }
    w.end_array();
    if (r.metrics_on) {
      w.key("metrics");
      w.begin_object();
      w.field("interval_s", r.metrics_interval_s);
      w.field("samples", static_cast<std::int64_t>(r.series.rows.size()));
      w.key("summary");
      w.begin_object();
      obs::write_summary(w, r.summary);
      w.end_object();
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

void emit_run_text(const std::string& path, const scenario::Scenario& sc,
                   const std::vector<scenario::CellResult>& results) {
  std::printf("scenario \"%s\" (%s): %zu cell%s\n", sc.name().c_str(),
              path.c_str(), results.size(), results.size() == 1 ? "" : "s");
  for (const scenario::CellResult& r : results) {
    std::printf("cell %zu%s%s%s  seed=%llu  t=%.1fs", r.index,
                r.label.empty() ? "" : " [", r.label.c_str(),
                r.label.empty() ? "" : "]",
                static_cast<unsigned long long>(r.seed), r.sim_time_s);
    if (r.flows.size() >= 2) std::printf("  jain=%.3f", r.fairness_jain);
    if (r.background_goodput_Bps > 0) {
      std::printf("  bg-goodput=%.1f KB/s", r.background_goodput_Bps / 1024.0);
    }
    if (r.shard.has_value()) {
      std::printf("  shards=%d threads=%d windows=%llu cross=%llu",
                  r.shard->shards, r.shard->threads,
                  static_cast<unsigned long long>(r.shard->windows),
                  static_cast<unsigned long long>(r.shard->cross_posts));
    }
    std::printf("\n");
    for (const scenario::FlowResult& f : r.flows) {
      const traffic::TransferResult& t = f.transfer;
      std::printf("  flow %-10s %-10s %s  %7.1f KB/s  retx %.1f KB",
                  f.name.c_str(), f.algorithm.c_str(),
                  t.completed ? "done      " : "INCOMPLETE",
                  t.throughput_Bps() / 1024.0,
                  static_cast<double>(t.sender_stats.bytes_retransmitted) /
                      1024.0);
      if (f.traced) std::printf("  digest %s", hex_digest(f.trace_digest).c_str());
      std::printf("\n");
    }
    for (const scenario::TrafficResult& t : r.traffic) {
      std::printf("  traffic %s: %llu conversations (%llu done)\n",
                  t.name.c_str(),
                  static_cast<unsigned long long>(t.stats.started),
                  static_cast<unsigned long long>(t.stats.completed));
    }
  }
}

int cmd_run(const Flags& flags, const FlagSet& fs) {
  if (flags.positional().empty()) {
    std::fprintf(stderr, "vegas-sim run: missing scenario file operand\n\n");
    fs.print_help(stderr);
    return 2;
  }
  const std::string path = flags.positional().front();
  scenario::Scenario sc;
  try {
    sc = scenario::Scenario::load(path);
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const bool json_out = flags.get_bool("json");
  if (flags.get_bool("dry-run")) {
    if (json_out) {
      json::Writer w;
      w.begin_object();
      w.field("experiment", "run");
      w.field("file", path);
      w.field("scenario", sc.name());
      w.field("dry_run", true);
      w.field("cells", static_cast<std::int64_t>(sc.cells()));
      w.key("grid");
      w.begin_array();
      for (std::size_t i = 0; i < sc.cells(); ++i) {
        w.begin_object();
        w.field("cell", static_cast<std::int64_t>(i));
        w.field("label", sc.label(i));
        w.field("seed", sc.cell(i).seed);
        w.end_object();
      }
      w.end_array();
      w.end_object();
      std::printf("%s\n", w.str().c_str());
    } else {
      std::printf("scenario \"%s\" (%s): %zu cells, all valid\n",
                  sc.name().c_str(), path.c_str(), sc.cells());
      for (std::size_t i = 0; i < sc.cells(); ++i) {
        std::printf("cell %zu [%s] seed=%llu\n", i, sc.label(i).c_str(),
                    static_cast<unsigned long long>(sc.cell(i).seed));
      }
    }
    return 0;
  }

  scenario::RunOptions opts;
  opts.threads = static_cast<int>(flags.get_int("threads", 0));
  opts.pcap_dir = flags.get_string("pcap-dir", "");
  opts.trace_dir = flags.get_string("trace-dir", "");
  opts.metrics_path = flags.get_string("metrics", "");
  opts.chrome_trace_path = flags.get_string("chrome-trace", "");
  opts.shards = static_cast<int>(flags.get_int("shards", 0));
  opts.metrics_interval_s = flags.get_double("metrics-interval", 0);
  try {
    for (const std::string& dir : {opts.pcap_dir, opts.trace_dir}) {
      if (!dir.empty()) std::filesystem::create_directories(dir);
    }
    std::vector<exp::ParallelRunner::WorkerStats> workers;
    const auto results = scenario::run(sc, opts, &workers);
    if (json_out) {
      emit_run_json(path, sc, results, workers);
    } else {
      emit_run_text(path, sc, results);
      if (!opts.metrics_path.empty()) {
        std::printf("metrics: %s\n", opts.metrics_path.c_str());
      }
      if (!opts.chrome_trace_path.empty()) {
        std::printf("chrome trace: %s\n", opts.chrome_trace_path.c_str());
      }
    }
    for (const scenario::CellResult& r : results) {
      for (const scenario::FlowResult& f : r.flows) {
        if (!f.transfer.completed) return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vegas-sim run: %s\n", e.what());
    return 1;
  }
}

// --------------------------------------------------------------- sweep

FlagSet sweep_run_flags() {
  FlagSet fs("vegas-sim", "sweep run",
             "Drain a scenario grid through the content-addressed result "
             "store: cache hits skip simulation, claim files share the "
             "work across processes, kills resume (docs/SWEEPS.md).",
             "<file.scn>");
  fs.arg("store", "<dir>", "sweep-store", "result store directory")
      .arg("threads", "N", "0",
           "worker threads per process (0 = VEGAS_THREADS, then hardware)")
      .arg("shards", "N", "0",
           "per-cell shard request, baked into the cell key (0 = the "
           "scenario's [sharding] governs)")
      .arg("workers", "N", "1",
           "cooperating processes (forked) draining this grid")
      .arg("max-cells", "N", "0",
           "stop this process after computing N cells; the sweep stays "
           "resumable (0 = no limit)")
      .arg("poll-ms", "N", "50",
           "wait between polls for cells other workers hold")
      .arg("poll-limit", "N", "0", "give up after N polls (0 = wait forever)")
      .toggle("no-reclaim", "leave stale claims alone (debugging)")
      .toggle("json",
              "emit the deterministic summary JSON on stdout (bit-identical "
              "for a fixed scenario + key context)");
  return fs;
}

FlagSet sweep_status_flags() {
  FlagSet fs("vegas-sim", "sweep status",
             "Progress of every grid manifest in a result store.");
  fs.arg("store", "<dir>", "sweep-store", "result store directory")
      .toggle("json", "emit JSON on stdout");
  return fs;
}

FlagSet sweep_diff_flags() {
  FlagSet fs("vegas-sim", "sweep diff",
             "Compare a scenario's two most recent grids — or its latest "
             "grid in two stores — cell by cell: trace digests, "
             "completion flips, throughput deltas.",
             "<file.scn | scenario-name>");
  fs.arg("store", "<dir>", "sweep-store",
         "store holding side B (the newer run)")
      .arg("against", "<dir>", "",
           "store holding side A, the baseline (default: the previous "
           "grid of the same scenario in --store)")
      .arg("tolerance-pct", "P", "0.5",
           "throughput change below this is noise, not a metric change")
      .toggle("json", "emit JSON on stdout");
  return fs;
}

int cmd_sweep_run(const Flags& flags, const FlagSet& fs) {
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "vegas-sim sweep run: missing scenario file operand\n\n");
    fs.print_help(stderr);
    return 2;
  }
  const std::string path = flags.positional().front();
  scenario::Scenario sc;
  try {
    sc = scenario::Scenario::load(path);
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const sweep::ResultStore store(flags.get_string("store", "sweep-store"));
  sweep::SweepOptions opts;
  opts.threads = static_cast<int>(flags.get_int("threads", 0));
  opts.shards = static_cast<int>(flags.get_int("shards", 0));
  opts.workers = static_cast<int>(flags.get_int("workers", 1));
  opts.max_cells = static_cast<std::size_t>(flags.get_int("max-cells", 0));
  opts.poll_ms = static_cast<int>(flags.get_int("poll-ms", 50));
  opts.poll_limit = static_cast<std::size_t>(flags.get_int("poll-limit", 0));
  opts.reclaim_stale = !flags.get_bool("no-reclaim");
  try {
    const sweep::SweepReport report = sweep::run_sweep(sc, path, store, opts);
    if (!report.complete) {
      std::fprintf(stderr,
                   "sweep incomplete: this process saw %zu cache hits and "
                   "computed %zu of %zu cells; re-run to resume:\n  "
                   "vegas-sim sweep run %s --store %s\n",
                   report.cache_hits, report.computed, report.cells,
                   path.c_str(), store.dir().c_str());
      return 3;
    }
    if (flags.get_bool("json")) {
      // Exactly summary_json(), no decoration: stdout is the
      // deterministic artifact CI and tests compare bit-for-bit.
      std::fputs(sweep::summary_json(report).c_str(), stdout);
    } else {
      std::printf("sweep \"%s\" (%s): %zu cells  grid %s\n",
                  report.scenario.c_str(), path.c_str(), report.cells,
                  report.grid_key.c_str());
      std::printf(
          "  %zu cache hit%s, %zu computed here, %zu by other workers, "
          "%zu stale claim%s reclaimed\n",
          report.cache_hits, report.cache_hits == 1 ? "" : "s",
          report.computed, report.computed_elsewhere, report.reclaimed,
          report.reclaimed == 1 ? "" : "s");
      for (const sweep::CellRecord& rec : report.records) {
        std::printf("  cell %llu [%s] t=%.1fs",
                    static_cast<unsigned long long>(rec.cell),
                    rec.label.c_str(), rec.sim_time_s);
        for (const sweep::FlowRecord& f : rec.flows) {
          std::printf("  %s=%.1fKB/s%s", f.name.c_str(),
                      f.throughput_Bps / 1024.0,
                      f.completed ? "" : "(INCOMPLETE)");
        }
        std::printf("\n");
      }
      std::printf("store: %s\n", store.dir().c_str());
    }
    for (const sweep::CellRecord& rec : report.records) {
      for (const sweep::FlowRecord& f : rec.flows) {
        if (!f.completed) return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vegas-sim sweep run: %s\n", e.what());
    return 1;
  }
}

int cmd_sweep_status(const Flags& flags, const FlagSet& fs) {
  (void)fs;
  const sweep::ResultStore store(flags.get_string("store", "sweep-store"));
  const std::vector<sweep::GridStatus> grids = sweep::grid_status(store);
  if (flags.get_bool("json")) {
    json::Writer w;
    w.begin_object();
    w.field("experiment", "sweep-status");
    w.field("store", store.dir());
    w.key("grids");
    w.begin_array();
    for (const sweep::GridStatus& g : grids) {
      w.begin_object();
      w.field("grid_key", g.manifest.grid_key);
      w.field("scenario", g.manifest.scenario);
      w.field("file", g.manifest.file);
      w.field("shards", static_cast<std::int64_t>(g.manifest.shards));
      w.field("cells", static_cast<std::uint64_t>(g.manifest.cells.size()));
      w.field("done", static_cast<std::uint64_t>(g.done));
      w.field("claimed", static_cast<std::uint64_t>(g.claimed));
      w.field("stale", static_cast<std::uint64_t>(g.stale));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else if (grids.empty()) {
    std::printf("store %s: no grids\n", store.dir().c_str());
  } else {
    for (const sweep::GridStatus& g : grids) {
      std::printf("grid %s  \"%s\" (%s): %zu/%zu done",
                  g.manifest.grid_key.c_str(), g.manifest.scenario.c_str(),
                  g.manifest.file.c_str(), g.done, g.manifest.cells.size());
      if (g.claimed > 0) std::printf(", %zu in flight", g.claimed);
      if (g.stale > 0) std::printf(", %zu stale claims", g.stale);
      std::printf("\n");
    }
  }
  return 0;
}

int cmd_sweep_diff(const Flags& flags, const FlagSet& fs) {
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "vegas-sim sweep diff: missing scenario operand\n\n");
    fs.print_help(stderr);
    return 2;
  }
  std::string name = flags.positional().front();
  if (name.size() > 4 && name.substr(name.size() - 4) == ".scn") {
    try {
      name = scenario::Scenario::load(name).name();
    } catch (const scenario::ScenarioError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  const sweep::ResultStore store_b(flags.get_string("store", "sweep-store"));
  const std::string against = flags.get_string("against", "");
  const sweep::ResultStore store_a(against.empty() ? store_b.dir() : against);

  const std::vector<sweep::GridManifest> in_b = store_b.manifests_for(name);
  if (in_b.empty()) {
    std::fprintf(stderr,
                 "vegas-sim sweep diff: no grid for scenario \"%s\" in %s\n",
                 name.c_str(), store_b.dir().c_str());
    return 2;
  }
  const sweep::GridManifest b = in_b.back();
  sweep::GridManifest a;
  if (!against.empty()) {
    const std::vector<sweep::GridManifest> in_a = store_a.manifests_for(name);
    if (in_a.empty()) {
      std::fprintf(
          stderr, "vegas-sim sweep diff: no grid for scenario \"%s\" in %s\n",
          name.c_str(), store_a.dir().c_str());
      return 2;
    }
    a = in_a.back();
  } else if (in_b.size() >= 2) {
    a = in_b[in_b.size() - 2];
  } else {
    std::fprintf(stderr,
                 "vegas-sim sweep diff: only one grid for scenario \"%s\" in "
                 "%s; give a baseline with --against <dir>\n",
                 name.c_str(), store_b.dir().c_str());
    return 2;
  }

  const double tol = flags.get_double("tolerance-pct", 0.5);
  const sweep::DiffReport d = sweep::diff_grids(store_a, a, store_b, b, tol);
  const bool changed = !d.changed.empty() || d.only_a > 0 || d.only_b > 0;
  if (flags.get_bool("json")) {
    json::Writer w;
    w.begin_object();
    w.field("experiment", "sweep-diff");
    w.field("scenario", d.scenario);
    w.field("grid_a", d.grid_a);
    w.field("grid_b", d.grid_b);
    w.field("tolerance_pct", tol);
    w.field("matched", static_cast<std::uint64_t>(d.matched));
    w.field("only_a", static_cast<std::uint64_t>(d.only_a));
    w.field("only_b", static_cast<std::uint64_t>(d.only_b));
    w.field("digest_changes", static_cast<std::uint64_t>(d.digest_changes));
    w.field("metric_changes", static_cast<std::uint64_t>(d.metric_changes));
    w.field("changed_cells", static_cast<std::uint64_t>(d.changed.size()));
    w.key("changed");
    w.begin_array();
    for (const sweep::CellDiff& c : d.changed) {
      w.begin_object();
      w.field("cell", c.cell);
      w.field("label", c.label);
      w.field("digest_changed", c.digest_changed);
      w.field("completion_changed", c.completion_changed);
      w.field("throughput_delta_pct", c.max_throughput_delta_pct);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("sweep diff \"%s\"\n  A %s\n  B %s\n", d.scenario.c_str(),
                d.grid_a.c_str(), d.grid_b.c_str());
    std::printf("  %zu matched, %zu only in A, %zu only in B; %zu digest "
                "change%s, %zu metric change%s (tolerance %.2f%%)\n",
                d.matched, d.only_a, d.only_b, d.digest_changes,
                d.digest_changes == 1 ? "" : "s", d.metric_changes,
                d.metric_changes == 1 ? "" : "s", tol);
    for (const sweep::CellDiff& c : d.changed) {
      std::printf("  cell %llu [%s]%s%s",
                  static_cast<unsigned long long>(c.cell), c.label.c_str(),
                  c.digest_changed ? "  digest changed" : "",
                  c.completion_changed ? "  completion flipped" : "");
      if (c.max_throughput_delta_pct != 0) {
        std::printf("  throughput %+.2f%%", c.max_throughput_delta_pct);
      }
      std::printf("\n");
    }
    std::printf("%s\n", changed ? "CHANGED" : "identical");
  }
  return changed ? 1 : 0;
}

int sweep_usage(std::FILE* out, int code) {
  std::fprintf(out, "usage: vegas-sim sweep <verb> [flags]\n\nverbs:\n");
  for (const FlagSet& fs :
       {sweep_run_flags(), sweep_status_flags(), sweep_diff_flags()}) {
    std::fprintf(out, "  %-13s %s\n", fs.command().c_str(),
                 fs.description().c_str());
  }
  std::fprintf(out, "\n'vegas-sim sweep <verb> --help' lists that verb's "
                    "flags; docs/SWEEPS.md has the full story.\n");
  return code;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 3) return sweep_usage(stderr, 2);
  const std::string verb = argv[2];
  if (verb == "help" || verb == "--help" || verb == "-h") {
    return sweep_usage(stdout, 0);
  }
  const Flags flags(argc, argv, 3);
  struct Verb {
    const char* name;
    FlagSet fs;
    int (*fn)(const Flags&, const FlagSet&);
  };
  const Verb table[] = {
      {"run", sweep_run_flags(), cmd_sweep_run},
      {"status", sweep_status_flags(), cmd_sweep_status},
      {"diff", sweep_diff_flags(), cmd_sweep_diff},
  };
  for (const Verb& v : table) {
    if (verb != v.name) continue;
    int code = 0;
    if (!v.fs.accept(flags, &code)) return code;
    return v.fn(flags, v.fs);
  }
  std::fprintf(stderr, "vegas-sim sweep: unknown verb '%s'\n\n", verb.c_str());
  return sweep_usage(stderr, 2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr, 2);
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    return usage(stdout, 0);
  }
  const Flags flags(argc, argv, 2);
  struct Dispatch {
    FlagSet fs;
    int (*fn)(const Flags&);
  };
  const Dispatch table[] = {
      {solo_flags(), cmd_solo},         {background_flags(), cmd_background},
      {wan_flags(), cmd_wan},           {fairness_flags(), cmd_fairness},
      {one_on_one_flags(), cmd_one_on_one},
      {algos_flags(), cmd_algos},
  };
  for (const Dispatch& d : table) {
    if (cmd != d.fs.command()) continue;
    int code = 0;
    if (!d.fs.accept(flags, &code)) return code;
    return d.fn(flags);
  }
  if (cmd == "run") {
    const FlagSet fs = run_flags();
    int code = 0;
    if (!fs.accept(flags, &code)) return code;
    return cmd_run(flags, fs);
  }
  if (cmd == "sweep") return cmd_sweep(argc, argv);
  std::fprintf(stderr, "vegas-sim: unknown subcommand '%s'\n\n", cmd.c_str());
  return usage(stderr, 2);
}
