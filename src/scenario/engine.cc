#include "scenario/engine.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include <cstdlib>

#include "check/determinism.h"
#include "common/ensure.h"
#include "common/rng.h"
#include "exp/runner.h"
#include "exp/shard_exec.h"
#include "exp/world.h"
#include "net/monitor.h"
#include "net/packet.h"
#include "net/red.h"
#include "obs/registry.h"
#include "scenario/partition.h"
#include "sim/timer.h"
#include "stats/fairness.h"
#include "trace/conn_tracer.h"
#include "trace/pcap.h"
#include "traffic/cross.h"

namespace vegas::scenario {

namespace {

/// One cell's simulated world: topology + a TCP stack per referenced
/// endpoint, addressable by the reference names the schema validated.
///
/// Construction mirrors the canned runners so shared scenarios digest
/// identically: dumbbells go through exp::DumbbellWorld (stack seeds
/// "stack-l<i>"/"stack-r<i>"), WAN chains through exp::WanWorld with
/// cross stacks seeded "xstack-a<i>"/"xstack-b<i>" exactly as
/// exp::run_wan creates them.
class CellWorld {
 public:
  explicit CellWorld(const ScenarioSpec& spec) {
    switch (spec.topology.kind) {
      case TopologySpec::Kind::kDumbbell:
        build_dumbbell(spec);
        break;
      case TopologySpec::Kind::kWanChain:
        build_wan(spec);
        break;
      case TopologySpec::Kind::kParkingLot:
        build_parking_lot(spec);
        break;
      case TopologySpec::Kind::kGraph:
        build_graph(spec);
        break;
    }
  }

  sim::Simulator& sim() {
    if (dumbbell_ != nullptr) return dumbbell_->sim();
    if (wan_ != nullptr) return wan_->sim();
    return *own_sim_;
  }

  tcp::Stack& stack(const std::string& ref) {
    const auto it = stack_by_ref_.find(ref);
    vegas::ensure(it != stack_by_ref_.end(),
                  "scenario engine: unresolved endpoint (compile() missed it)");
    return *it->second;
  }

  net::Host& host(const std::string& ref) {
    const auto it = host_by_ref_.find(ref);
    vegas::ensure(it != host_by_ref_.end(),
                  "scenario engine: unresolved host (compile() missed it)");
    return *it->second;
  }

  /// The bottleneck link RED and pcap taps attach to; null for
  /// topologies that do not expose one (parking lot).
  net::Link* primary_link() { return primary_; }

  /// Router->host delivery link for a dumbbell endpoint (goodput
  /// metering); null elsewhere.
  net::Link* ingress_link(const std::string& ref) {
    const auto it = ingress_.find(ref);
    return it == ingress_.end() ? nullptr : it->second;
  }

  /// The underlying Network (every topology family builds one) — the
  /// shard partitioner's input.
  net::Network& network() {
    if (dumbbell_ != nullptr) return dumbbell_->topo().net;
    if (wan_ != nullptr) return wan_->topo().net;
    if (lot_ != nullptr) return lot_->net;
    return *graph_;
  }

 private:
  void build_dumbbell(const ScenarioSpec& spec) {
    dumbbell_ = std::make_unique<exp::DumbbellWorld>(spec.topology.dumbbell,
                                                     spec.tcp, spec.seed);
    net::Dumbbell& topo = dumbbell_->topo();
    for (int i = 0; i < spec.topology.dumbbell.pairs; ++i) {
      const std::string l = "left" + std::to_string(i);
      const std::string r = "right" + std::to_string(i);
      const auto idx = static_cast<std::size_t>(i);
      stack_by_ref_[l] = &dumbbell_->left(i);
      stack_by_ref_[r] = &dumbbell_->right(i);
      host_by_ref_[l] = topo.left[idx];
      host_by_ref_[r] = topo.right[idx];
      ingress_[l] = topo.left_access[idx].reverse;
      ingress_[r] = topo.right_access[idx].reverse;
    }
    primary_ = topo.bottleneck_fwd;
  }

  void build_wan(const ScenarioSpec& spec) {
    net::WanChainConfig cfg = spec.topology.wan;
    cfg.seed = rng::derive_seed(spec.seed, "wan-topo");
    wan_ = std::make_unique<exp::WanWorld>(cfg, spec.tcp, spec.seed);
    net::WanChain& topo = wan_->topo();
    stack_by_ref_["src"] = &wan_->src();
    stack_by_ref_["dst"] = &wan_->dst();
    host_by_ref_["src"] = topo.src;
    host_by_ref_["dst"] = topo.dst;
    int idx = 0;
    for (const auto& pair : topo.cross) {
      const std::string tag = "cross" + std::to_string(idx);
      add_stack(wan_->sim(), *pair.a, spec,
                rng::derive_seed(spec.seed, "xstack-a" + std::to_string(idx)),
                tag + ".a");
      add_stack(wan_->sim(), *pair.b, spec,
                rng::derive_seed(spec.seed, "xstack-b" + std::to_string(idx)),
                tag + ".b");
      ++idx;
    }
    primary_ = topo.narrow_fwd;
  }

  void build_parking_lot(const ScenarioSpec& spec) {
    own_sim_ = std::make_unique<sim::Simulator>();
    lot_ = net::build_parking_lot(*own_sim_, spec.topology.parking_lot);
    add_stack(*own_sim_, *lot_->long_src, spec,
              rng::derive_seed(spec.seed, "stack-long_src"), "long_src");
    add_stack(*own_sim_, *lot_->long_dst, spec,
              rng::derive_seed(spec.seed, "stack-long_dst"), "long_dst");
    int idx = 0;
    for (const auto& pair : lot_->cross) {
      const std::string tag = "cross" + std::to_string(idx);
      add_stack(*own_sim_, *pair.src, spec,
                rng::derive_seed(spec.seed, "stack-" + tag + ".src"),
                tag + ".src");
      add_stack(*own_sim_, *pair.dst, spec,
                rng::derive_seed(spec.seed, "stack-" + tag + ".dst"),
                tag + ".dst");
      ++idx;
    }
  }

  void build_graph(const ScenarioSpec& spec) {
    own_sim_ = std::make_unique<sim::Simulator>();
    graph_ = std::make_unique<net::Network>(*own_sim_);
    std::map<std::string, net::Node*> nodes;
    for (const auto& n : spec.topology.nodes) {
      if (n.router) {
        nodes[n.name] = &graph_->add_router(n.name);
      } else {
        net::Host& h = graph_->add_host(n.name);
        nodes[n.name] = &h;
        host_by_ref_[n.name] = &h;
      }
    }
    for (const auto& l : spec.topology.links) {
      const auto duplex = graph_->connect(*nodes[l.a], *nodes[l.b], l.cfg);
      if (primary_ == nullptr) primary_ = duplex.forward;
    }
    graph_->compute_routes();
    for (const auto& n : spec.topology.nodes) {
      if (n.router) continue;
      add_stack(*own_sim_, *host_by_ref_[n.name], spec,
                rng::derive_seed(spec.seed, "stack-" + n.name), n.name);
    }
  }

  void add_stack(sim::Simulator& sim, net::Host& h, const ScenarioSpec& spec,
                 std::uint64_t seed, const std::string& ref) {
    stacks_.push_back(std::make_unique<tcp::Stack>(sim, h, spec.tcp, seed));
    stack_by_ref_[ref] = stacks_.back().get();
    host_by_ref_[ref] = &h;
  }

  // Declaration order is destruction-order-critical: the simulator (or
  // the world owning one) must outlive the stacks referencing it.
  std::unique_ptr<sim::Simulator> own_sim_;
  std::unique_ptr<exp::DumbbellWorld> dumbbell_;
  std::unique_ptr<exp::WanWorld> wan_;
  std::unique_ptr<net::ParkingLot> lot_;
  std::unique_ptr<net::Network> graph_;
  std::vector<std::unique_ptr<tcp::Stack>> stacks_;
  std::map<std::string, tcp::Stack*> stack_by_ref_;
  std::map<std::string, net::Host*> host_by_ref_;
  std::map<std::string, net::Link*> ingress_;
  net::Link* primary_ = nullptr;
};

/// Goodput meters on the delivery links of metered traffic endpoints.
struct Meters {
  net::RateMeter server_in;
  net::RateMeter client_in;
};

/// Shard count for this cell: explicit RunOptions beat the VEGAS_SHARDS
/// env override, which beats the scenario's [sharding] section.
int resolve_shards(const RunOptions& opts, const ScenarioSpec& spec) {
  if (opts.shards != 0) return opts.shards;
  if (const char* env = std::getenv("VEGAS_SHARDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return spec.sharding.shards;
}

std::size_t bottleneck_capacity(const ScenarioSpec& spec) {
  switch (spec.topology.kind) {
    case TopologySpec::Kind::kDumbbell:
      return spec.topology.dumbbell.bottleneck_queue;
    case TopologySpec::Kind::kWanChain:
      return spec.topology.wan.queue_packets;
    case TopologySpec::Kind::kParkingLot:
      return spec.topology.parking_lot.segment_queue;
    case TopologySpec::Kind::kGraph:
      return spec.topology.links.empty()
                 ? 0
                 : spec.topology.links.front().cfg.queue_packets;
  }
  return 0;
}

}  // namespace

Scenario Scenario::load(const std::string& path) {
  return from_doc(parse_file(path));
}

Scenario Scenario::from_text(std::string_view text, std::string file) {
  return from_doc(parse(text, std::move(file)));
}

Scenario Scenario::from_doc(Document doc) {
  Scenario sc;
  sc.doc_ = std::move(doc);
  sc.grid_ = read_sweep(sc.doc_);
  if (const Section* s = sc.doc_.find("scenario")) {
    if (const Value* v = s->find("name")) {
      if (v->kind == Value::Kind::kString) sc.name_ = v->str;
    }
  }
  const std::size_t n = sc.grid_.cells();
  sc.specs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sc.specs_.push_back(compile(cell_document(sc.doc_, sc.grid_, i)));
  }
  return sc;
}

CellResult run_cell(const ScenarioSpec& spec, std::size_t index,
                    const std::string& label, const RunOptions& opts) {
  obs::Profiler prof;

  // Everything the setup phase builds outlives the scoped profiler
  // blocks, so the containers are declared here and filled inside the
  // "setup" scope.  Declaration order is destruction-order-critical: the
  // sampler timer must die before the world whose simulator it rides on
  // (reverse declaration order guarantees it); the per-lane packet
  // pools must OUTLIVE the world (teardown releases lane packets into
  // them), and the shard executor must die FIRST, so its worker
  // threads are joined while everything they touched is still alive.
  std::deque<net::PacketPool> shard_pools;
  std::unique_ptr<CellWorld> world_p;
  std::optional<trace::PcapWriter> pcap;
  std::deque<Meters> meters;
  std::vector<std::unique_ptr<traffic::TrafficSource>> sources;
  std::vector<std::unique_ptr<traffic::DatagramSink>> sinks;
  std::vector<std::unique_ptr<traffic::CrossTrafficSource>> crosses;
  std::deque<trace::ConnTracer> tracers;
  std::vector<std::unique_ptr<traffic::BulkTransfer>> transfers;
  obs::Registry reg;
  std::optional<obs::Sampler> sampler;
  std::optional<sim::PeriodicTimer> sample_timer;
  ShardPlan plan;
  std::unique_ptr<exp::ShardExecutor> shard_exec;

  const bool metrics_on = spec.metrics.enabled || !opts.metrics_path.empty();
  const double interval_s = opts.metrics_interval_s > 0
                                ? opts.metrics_interval_s
                                : spec.metrics.interval_s;

  {
  const auto setup_phase = prof.scope("setup");
  world_p = std::make_unique<CellWorld>(spec);
  CellWorld& world = *world_p;
  sim::Simulator& sim = world.sim();

  // Shard plan + executor, before anything schedules an event
  // (set_lanes requires a pristine simulator; topology construction
  // schedules nothing).  Metrics sampling rides a single PeriodicTimer
  // that cannot be split across lanes, so a sampled cell always runs
  // unsharded — compile() rejects [sharding]+[metrics], and a --metrics
  // override wins here for the same reason.
  const int shard_request = metrics_on ? 1 : resolve_shards(opts, spec);
  if (shard_request > 1) {
    net::Network& topo_net = world.network();
    PartitionInput pin;
    pin.want_shards = std::min(shard_request, sim::Simulator::kMaxLanes);
    for (const TrafficSpec& t : spec.traffic) {
      pin.colocate.push_back(
          {world.host(t.client).id(), world.host(t.server).id()});
    }
    for (const CrossSpec& c : spec.cross) {
      pin.colocate.push_back({world.host(c.src).id(), world.host(c.dst).id()});
    }
    for (const FlowSpec& f : spec.flows) {
      pin.flows.push_back({world.host(f.src).id(), world.host(f.dst).id()});
    }
    plan = partition_network(topo_net, pin);
    if (plan.shards > 1) {
      sim.set_lanes(plan.shards);
      for (int s = 0; s < plan.shards; ++s) shard_pools.emplace_back();
      shard_exec = std::make_unique<exp::ShardExecutor>(
          sim, exp::resolve_threads(opts.threads), plan.lookahead);
      for (int s = 0; s < plan.shards; ++s) {
        shard_exec->set_lane_pool(s, &shard_pools[static_cast<std::size_t>(s)]);
      }
      // Boundary conduits, in Network edge-creation order (the
      // executor's registration-order determinism contract).
      sim::Simulator* simp = &sim;
      for (const net::Network::EdgeRef& e : topo_net.edges()) {
        const int src_s = plan.node_shard[e.src];
        const int dst_s = plan.node_shard[e.dst];
        if (src_s == dst_s) continue;
        net::Node* peer = &e.link->peer();
        e.link->set_cross_delivery(shard_exec->add_boundary(
            src_s, dst_s, [simp, dst_s, peer](sim::Time at, net::PacketPtr p) {
              simp->lane_schedule_at(dst_s, at,
                                     [peer, pp = std::move(p)]() mutable {
                                       peer->receive(std::move(pp));
                                     });
            }));
      }
    }
  }
  // Routes every construction-time event below (traffic starts, SYN
  // kickoffs) into the lane that owns its endpoint.  Lane 0 (a no-op
  // scope) when unsharded.
  const auto lane_of = [&](const std::string& ref) {
    return plan.shards > 1
               ? plan.node_shard[world.host(ref).id()]
               : 0;
  };

  // Queue discipline first: RED must be in place before any traffic.
  if (spec.queue.red) {
    net::Link* link = world.primary_link();
    vegas::ensure(link != nullptr,
                  "scenario engine: RED requested on a topology without a "
                  "bottleneck link (compile() should have rejected it)");
    net::RedConfig rc = spec.queue.red_cfg;
    rc.capacity_packets = bottleneck_capacity(spec);
    rc.seed = rng::derive_seed(spec.seed, "red");
    link->set_queue(std::make_unique<net::RedQueue>(rc));
  }

  // Optional pcap tap on the bottleneck (passive: serialization events
  // are observed, never altered).
  if (!opts.pcap_dir.empty() && world.primary_link() != nullptr) {
    pcap.emplace(opts.pcap_dir + "/cell" + std::to_string(index) + ".pcap");
    world.primary_link()->set_tap(
        [&pcap](sim::Time t, const net::Packet& p) { pcap->capture(t, p); });
  }

  // Goodput meters on the delivery links of metered traffic endpoints
  // (exp::run_background's instrument, generalised per [[traffic]]).
  for (const TrafficSpec& t : spec.traffic) {
    if (!t.meter_goodput) continue;
    net::Link* s_in = world.ingress_link(t.server);
    net::Link* c_in = world.ingress_link(t.client);
    if (s_in == nullptr || c_in == nullptr) continue;
    meters.emplace_back();
    s_in->set_rate_meter(&meters.back().server_in);
    c_in->set_rate_meter(&meters.back().client_in);
  }

  // Traffic sources, file order, started on construction (as the canned
  // runners do).  Seeds derive from the source's NAME, so a [[traffic]]
  // named "background" draws the same arrival sequence as
  // exp::run_background.
  for (const TrafficSpec& t : spec.traffic) {
    traffic::TrafficConfig tc;
    tc.mean_interarrival_s = t.mean_interarrival_s;
    tc.listen_port = t.listen_port;
    tc.seed = rng::derive_seed(spec.seed, t.name);
    tc.cc = &t.algo.ops();
    tc.tcp = spec.tcp;
    t.algo.apply(*tc.tcp);
    tc.workload = t.workload;
    // Conversation endpoints are colocated by the partitioner; their
    // arrival events belong to that shared lane.
    sim::Simulator::LaneScope scope(sim, lane_of(t.client));
    sources.push_back(std::make_unique<traffic::TrafficSource>(
        world.stack(t.client), world.stack(t.server), tc));
    sources.back()->start();
  }

  // Uncontrolled datagram cross-traffic.
  for (const CrossSpec& c : spec.cross) {
    traffic::CrossTrafficConfig cc = c.cfg;
    cc.seed = rng::derive_seed(spec.seed, c.name);
    sim::Simulator::LaneScope scope(sim, lane_of(c.src));
    sinks.push_back(std::make_unique<traffic::DatagramSink>(world.host(c.dst)));
    crosses.push_back(std::make_unique<traffic::CrossTrafficSource>(
        sim, world.host(c.src), world.host(c.dst), cc));
    crosses.back()->start();
  }

  // Pre-size each stack's demux table and FlowHot slab for the flows it
  // will carry (client side opens the connection, server side accepts
  // it), so a 100k-flow cell never rehashes or grows slabs mid-run.
  // Purely a capacity hint — digests are identical without it.
  {
    std::map<std::string, std::size_t> flows_per_stack;
    for (const FlowSpec& f : spec.flows) {
      ++flows_per_stack[f.src];
      ++flows_per_stack[f.dst];
    }
    for (const auto& [ref, n] : flows_per_stack) {
      world.stack(ref).reserve_flows(n);
    }
  }

  // Measured flows, file order.
  for (const FlowSpec& f : spec.flows) {
    traffic::BulkTransfer::Config bt;
    bt.bytes = f.bytes;
    bt.port = f.port;
    bt.cc = &f.algo.ops();
    bt.start_delay = sim::Time::seconds(f.start_s);
    if (f.trace) {
      tracers.emplace_back();
      bt.observer = &tracers.back();
    }
    tcp::TcpConfig tuned = spec.tcp;  // the defaults both stacks share
    if (f.sack) tuned.sack_enabled = true;
    if (f.paced_slow_start) tuned.vegas_paced_slow_start = true;
    if (f.send_buffer.has_value()) tuned.send_buffer = *f.send_buffer;
    f.algo.apply(tuned);
    bt.tcp = tuned;
    // The kickoff (SYN after start_delay) fires on the sender's lane;
    // the receiver side only reacts to arriving packets, which land in
    // its own lane by construction.
    sim::Simulator::LaneScope scope(sim, lane_of(f.src));
    transfers.push_back(std::make_unique<traffic::BulkTransfer>(
        world.stack(f.src), world.stack(f.dst), bt));
  }

  // Metrics registry last, so every probe target (links, flows) exists.
  // Sampling is passive — the sampler timer interleaves with protocol
  // events but probes only read, so trace digests stay bit-identical
  // with metrics on or off (tests/obs_test.cc enforces this).
  if (metrics_on) {
    sim.register_metrics(reg);
    if (net::Link* link = world.primary_link()) {
      link->register_metrics(reg, "link.bottleneck");
    }
    for (std::size_t i = 0; i < spec.flows.size(); ++i) {
      transfers[i]->register_metrics(reg, "flow." + spec.flows[i].name);
    }
    reg.probe("packet_pool.outstanding", [] {
      return static_cast<double>(net::packet_pool_stats().outstanding());
    });
    reg.probe("packet_pool.capacity", [] {
      return static_cast<double>(net::packet_pool_stats().capacity);
    });
    const sim::Time interval = sim::Time::seconds(interval_s);
    sampler.emplace(reg, interval);
    obs::Sampler* sp = &*sampler;
    sim::Simulator* simp = &sim;
    sample_timer.emplace(sim, [sp, simp] { sp->sample(simp->now()); });
    sample_timer->start(interval);
  }
  }  // setup phase

  CellWorld& world = *world_p;
  sim::Simulator& sim = world.sim();

  {
  const auto run_phase = prof.scope("run");
  const auto advance_to = [&](sim::Time deadline) {
    if (shard_exec != nullptr) {
      shard_exec->run_until(deadline);
    } else {
      sim.run_until(deadline);
    }
  };
  if (spec.stop == ScenarioSpec::Stop::kTimeout) {
    advance_to(sim::Time::seconds(spec.timeout_s));
  } else {
    // 10 s slices so unused timeout is never simulated; stop once every
    // flow finished AND the goodput horizon elapsed (run_background's
    // loop, with the horizon a scenario knob).  Sharded runs align every
    // lane clock to the slice deadline, so sim.now() (lane 0) is the
    // global time here either way.
    while (sim.now() < sim::Time::seconds(spec.timeout_s)) {
      advance_to(sim.now() + sim::Time::seconds(10.0));
      bool all_done = true;
      for (const auto& t : transfers) all_done = all_done && t->done();
      if (all_done && sim.now().to_seconds() >= spec.goodput_horizon_s) break;
    }
  }
  }  // run phase

  CellResult r;
  {
  const auto collect_phase = prof.scope("collect");
  r.index = index;
  r.label = label;
  r.seed = spec.seed;
  r.sim_time_s = sim.now().to_seconds();
  r.sim.events_executed = sim.events_executed();
  // Timer counters: lane 0's wheel for the single-lane path, summed
  // across lanes (max of max_live) when sharded.
  for (int l = 0; l < sim.lanes(); ++l) {
    const sim::TimingWheel::Metrics& tw = sim.lane_wheel_metrics(l);
    r.sim.timer_scheduled += tw.scheduled;
    r.sim.timer_cancelled += tw.cancelled;
    r.sim.timer_fired += tw.fired;
    r.sim.timer_slot_allocs += tw.slot_allocs;
    r.sim.timer_max_live = std::max(r.sim.timer_max_live, tw.max_live.value());
  }
  if (shard_exec != nullptr) {
    ShardRunInfo si;
    si.shards = plan.shards;
    si.threads = shard_exec->threads();
    si.lookahead_s = plan.lookahead.to_seconds();
    si.windows = shard_exec->windows();
    si.cross_posts = shard_exec->cross_posts();
    for (int l = 0; l < sim.lanes(); ++l) {
      si.lane_events.push_back(sim.lane_events_executed(l));
    }
    r.shard = std::move(si);
  }

  std::vector<double> throughputs;
  std::size_t tracer_i = 0;
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    FlowResult fr;
    fr.name = spec.flows[i].name;
    fr.algorithm = spec.flows[i].algo.label();
    fr.transfer = transfers[i]->result();
    if (spec.flows[i].trace) {
      trace::TraceBuffer& buf = tracers[tracer_i++].buffer();
      fr.traced = true;
      fr.trace_digest = check::trace_digest(buf);
      fr.trace = std::move(buf);
    }
    throughputs.push_back(fr.transfer.throughput_Bps() / 1024.0);
    r.flows.push_back(std::move(fr));
  }
  if (throughputs.size() >= 2) {
    r.fairness_jain = stats::jain_fairness(throughputs);
  }
  for (std::size_t i = 0; i < spec.traffic.size(); ++i) {
    r.traffic.push_back({spec.traffic[i].name, sources[i]->stats()});
  }

  const double horizon = std::min(spec.goodput_horizon_s, r.sim_time_s);
  if (horizon > 0 && !meters.empty()) {
    double delivered = 0;
    for (const Meters& m : meters) {
      for (const net::RateMeter* meter : {&m.server_in, &m.client_in}) {
        const auto rates = meter->rates();
        const double bin_s = meter->bin().to_seconds();
        for (std::size_t i = 0; i < rates.size(); ++i) {
          const double bin_t = bin_s * static_cast<double>(i);
          if (bin_t < horizon) delivered += rates[i] * bin_s;
        }
      }
    }
    r.background_goodput_Bps = delivered / horizon;
  }

  if (!opts.trace_dir.empty()) {
    for (const FlowResult& fr : r.flows) {
      if (!fr.traced) continue;
      fr.trace.save(opts.trace_dir + "/cell" + std::to_string(index) + "-" +
                    fr.name + ".trace");
    }
  }

  if (metrics_on) {
    r.metrics_on = true;
    r.metrics_interval_s = interval_s;
    r.series = sampler->series();
    r.summary = obs::summarize(reg);
  }
  }  // collect phase

  r.phases = prof.phases();
  return r;
}

namespace {

/// Combined JSONL time series across cells: a header line describing the
/// columns, then every cell's sample lines.  A sweep that changes the
/// flow layout changes the column set, so a fresh header is emitted
/// whenever the columns differ from the previous header (readers treat a
/// header line as a column reset).
void write_metrics_jsonl(const std::string& path,
                         const std::vector<CellResult>& results) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    throw std::runtime_error("cannot open metrics output file: " + path);
  }
  const std::vector<std::string>* header_cols = nullptr;
  for (const CellResult& r : results) {
    if (!r.metrics_on) continue;
    if (header_cols == nullptr || *header_cols != r.series.columns) {
      out << obs::series_header_line(r.series, r.metrics_interval_s) << '\n';
      header_cols = &r.series.columns;
    }
    out << obs::series_sample_lines(r.series, static_cast<int>(r.index));
  }
}

void write_chrome_trace(const std::string& path,
                        const std::vector<CellResult>& results) {
  std::vector<obs::ChromeThread> threads;
  threads.reserve(results.size());
  for (const CellResult& r : results) {
    std::string name = "cell" + std::to_string(r.index);
    if (!r.label.empty()) name += " " + r.label;
    threads.push_back({std::move(name), r.phases});
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    throw std::runtime_error("cannot open chrome trace output file: " + path);
  }
  out << obs::chrome_trace(threads) << '\n';
}

}  // namespace

std::vector<CellResult> run(
    const Scenario& sc, const RunOptions& opts,
    std::vector<exp::ParallelRunner::WorkerStats>* worker_stats) {
  exp::ParallelRunner runner(opts.threads);
  std::vector<CellResult> results = runner.map(sc.cells(), [&](int i) {
    const auto idx = static_cast<std::size_t>(i);
    return run_cell(sc.cell(idx), idx, sc.label(idx), opts);
  });
  if (worker_stats != nullptr) *worker_stats = runner.worker_stats();
  if (!opts.metrics_path.empty()) write_metrics_jsonl(opts.metrics_path, results);
  if (!opts.chrome_trace_path.empty()) {
    write_chrome_trace(opts.chrome_trace_path, results);
  }
  return results;
}

}  // namespace vegas::scenario
