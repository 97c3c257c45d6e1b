#include "scenario/spec.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "cc/registry.h"
#include "sim/simulator.h"

namespace vegas::scenario {

namespace {

[[noreturn]] void fail(const std::string& file, int line, int col,
                       const std::string& message) {
  throw ScenarioError(Diagnostic{file, line, col, message});
}

[[noreturn]] void fail_at(const std::string& file, const Value& v,
                          const std::string& message) {
  fail(file, v.line, v.col, message);
}

/// Typed, tracked access to one section's entries.  Every key a getter
/// touches is recorded; finish() rejects anything left over, so typos
/// like `bottelneck_queue` fail loudly with their location instead of
/// silently keeping a default.
class Reader {
 public:
  Reader(const std::string& file, const Section& sec)
      : file_(file), sec_(sec) {}

  bool has(const std::string& key) {
    used_.insert(key);
    return sec_.find(key) != nullptr;
  }

  const Value* raw(const std::string& key) {
    used_.insert(key);
    return sec_.find(key);
  }

  std::string string(const std::string& key, const std::string& fallback) {
    const Value* v = raw(key);
    if (v == nullptr) return fallback;
    if (v->kind != Value::Kind::kString) type_error(key, *v, "a string");
    return v->str;
  }

  std::string require_string(const std::string& key) {
    const Value* v = raw(key);
    if (v == nullptr) {
      fail(file_, sec_.line, sec_.col,
           "[" + sec_.name + "] is missing required key '" + key + "'");
    }
    if (v->kind != Value::Kind::kString) type_error(key, *v, "a string");
    return v->str;
  }

  double number(const std::string& key, double fallback) {
    const Value* v = raw(key);
    if (v == nullptr) return fallback;
    if (v->kind != Value::Kind::kNumber) type_error(key, *v, "a number");
    return v->num;
  }

  std::int64_t integer(const std::string& key, std::int64_t fallback) {
    const Value* v = raw(key);
    if (v == nullptr) return fallback;
    if (v->kind != Value::Kind::kNumber || v->num != std::floor(v->num)) {
      type_error(key, *v, "an integer");
    }
    return static_cast<std::int64_t>(v->num);
  }

  std::uint64_t unsigned_integer(const std::string& key,
                                 std::uint64_t fallback) {
    const Value* v = raw(key);
    if (v == nullptr) return fallback;
    if (v->kind != Value::Kind::kNumber || v->num != std::floor(v->num) ||
        v->num < 0) {
      type_error(key, *v, "a non-negative integer");
    }
    return static_cast<std::uint64_t>(v->num);
  }

  bool boolean(const std::string& key, bool fallback) {
    const Value* v = raw(key);
    if (v == nullptr) return fallback;
    if (v->kind != Value::Kind::kBool) type_error(key, *v, "a boolean");
    return v->boolean;
  }

  ByteCount bytes(const std::string& key, ByteCount fallback) {
    const Value* v = raw(key);
    if (v == nullptr) return fallback;
    return parse_bytes(*v, file_);
  }

  ByteCount require_bytes(const std::string& key) {
    const Value* v = raw(key);
    if (v == nullptr) {
      fail(file_, sec_.line, sec_.col,
           "[" + sec_.name + "] is missing required key '" + key + "'");
    }
    return parse_bytes(*v, file_);
  }

  /// Rejects any entry no getter asked about.
  void finish() {
    for (const Entry& e : sec_.entries) {
      if (used_.count(e.key) == 0) {
        fail(file_, e.line, e.col,
             "unknown key '" + e.key + "' in [" + sec_.name + "]");
      }
    }
  }

  const Section& section() const { return sec_; }
  const std::string& file() const { return file_; }

 private:
  [[noreturn]] void type_error(const std::string& key, const Value& v,
                               const char* want) {
    fail_at(file_, v,
            "'" + key + "' must be " + want + ", got " + v.kind_name());
  }

  const std::string& file_;
  const Section& sec_;
  std::set<std::string> used_;
};

cc::AlgoSpec read_algo(Reader& r) {
  cc::AlgoSpec spec;
  const std::string proto = r.string("protocol", "reno");
  const tcp::CongOps* ops = cc::find(proto);  // case-insensitive
  if (ops == nullptr) {
    const Value* v = r.raw("protocol");
    std::string message = "unknown protocol '" + proto + "'";
    const std::string hint = cc::closest(proto);
    if (!hint.empty()) message += "; did you mean '" + hint + "'?";
    message += " (known:";
    for (const tcp::CongOps* m : cc::modules()) {
      message += std::string(" ") + m->name;
    }
    message += ")";
    fail(r.file(), v != nullptr ? v->line : r.section().line,
         v != nullptr ? v->col : r.section().col, message);
  }
  spec.name = ops->name;  // canonical spelling
  spec.alpha = r.number("alpha", spec.alpha);
  spec.beta = r.number("beta", spec.beta);
  spec.gamma = r.number("gamma", spec.gamma);
  spec.fine_decrease = r.number("fine_decrease", spec.fine_decrease);
  return spec;
}

sim::Time ms(double v) { return sim::Time::seconds(v / 1e3); }
sim::Time us(double v) { return sim::Time::seconds(v / 1e6); }

TopologySpec read_topology(const std::string& file, const Document& doc) {
  TopologySpec topo;
  const Section* sec = doc.find("topology");
  if (sec == nullptr) {
    fail(file, 1, 1, "scenario has no [topology] section");
  }
  Reader r(file, *sec);
  const std::string kind = r.string("kind", "dumbbell");
  if (kind == "dumbbell") {
    topo.kind = TopologySpec::Kind::kDumbbell;
    net::DumbbellConfig& d = topo.dumbbell;
    d.pairs = static_cast<int>(r.integer("pairs", d.pairs));
    d.bottleneck_queue = static_cast<std::size_t>(
        r.unsigned_integer("bottleneck_queue", d.bottleneck_queue));
    if (r.has("bottleneck_kbps")) {
      d.bottleneck_bandwidth = kbps_to_rate(r.number("bottleneck_kbps", 0));
    }
    if (r.has("bottleneck_delay_ms")) {
      d.bottleneck_delay = ms(r.number("bottleneck_delay_ms", 0));
    }
    if (r.has("access_mbps")) {
      d.access_bandwidth = mbps_to_rate(r.number("access_mbps", 0));
    }
    if (r.has("access_delay_us")) {
      d.access_delay = us(r.number("access_delay_us", 0));
    }
    d.access_queue = static_cast<std::size_t>(
        r.unsigned_integer("access_queue", d.access_queue));
    if (r.has("extra_delay_second_half_ms")) {
      d.extra_delay_second_half =
          ms(r.number("extra_delay_second_half_ms", 0));
    }
    if (d.pairs < 1) {
      fail(file, sec->line, sec->col, "dumbbell needs pairs >= 1");
    }
  } else if (kind == "parking-lot") {
    topo.kind = TopologySpec::Kind::kParkingLot;
    net::ParkingLotConfig& p = topo.parking_lot;
    p.segments = static_cast<int>(r.integer("segments", p.segments));
    if (r.has("segment_kbps")) {
      p.segment_bandwidth = kbps_to_rate(r.number("segment_kbps", 0));
    }
    if (r.has("segment_delay_ms")) {
      p.segment_delay = ms(r.number("segment_delay_ms", 0));
    }
    p.segment_queue = static_cast<std::size_t>(
        r.unsigned_integer("segment_queue", p.segment_queue));
    if (r.has("access_mbps")) {
      p.access_bandwidth = mbps_to_rate(r.number("access_mbps", 0));
    }
    if (r.has("access_delay_us")) {
      p.access_delay = us(r.number("access_delay_us", 0));
    }
    if (p.segments < 2) {
      fail(file, sec->line, sec->col, "parking-lot needs segments >= 2");
    }
  } else if (kind == "wan-chain") {
    topo.kind = TopologySpec::Kind::kWanChain;
    net::WanChainConfig& w = topo.wan;
    w.hops = static_cast<int>(r.integer("hops", w.hops));
    if (r.has("fast_kbps")) {
      w.fast_bandwidth = kbps_to_rate(r.number("fast_kbps", 0));
    }
    if (r.has("narrow_kbps")) {
      w.narrow_bandwidth = kbps_to_rate(r.number("narrow_kbps", 0));
    }
    w.narrow_hop = static_cast<int>(r.integer("narrow_hop", w.narrow_hop));
    if (r.has("min_hop_delay_ms")) {
      w.min_hop_delay = ms(r.number("min_hop_delay_ms", 0));
    }
    if (r.has("max_hop_delay_ms")) {
      w.max_hop_delay = ms(r.number("max_hop_delay_ms", 0));
    }
    w.queue_packets = static_cast<std::size_t>(
        r.unsigned_integer("queue_packets", w.queue_packets));
    w.cross_every = static_cast<int>(r.integer("cross_every", w.cross_every));
    w.cross_at_narrow = r.boolean("cross_at_narrow", w.cross_at_narrow);
    if (w.hops < 2) {
      fail(file, sec->line, sec->col, "wan-chain needs hops >= 2");
    }
    if (w.narrow_hop < 0 || w.narrow_hop >= w.hops) {
      fail(file, sec->line, sec->col,
           "wan-chain narrow_hop must be in [0, hops)");
    }
  } else if (kind == "graph") {
    topo.kind = TopologySpec::Kind::kGraph;
  } else {
    const Value* v = sec->find("kind");
    fail(file, v != nullptr ? v->line : sec->line,
         v != nullptr ? v->col : sec->col,
         "unknown topology kind '" + kind +
             "' (dumbbell, parking-lot, wan-chain, graph)");
  }
  r.finish();

  // Graph nodes and links live in their own array sections.
  const auto nodes = doc.all("node");
  const auto links = doc.all("link");
  if (topo.kind != TopologySpec::Kind::kGraph &&
      (!nodes.empty() || !links.empty())) {
    const Section* extra = nodes.empty() ? links.front() : nodes.front();
    fail(file, extra->line, extra->col,
         "[[" + extra->name + "]] sections are only valid with kind = \"graph\"");
  }
  if (topo.kind == TopologySpec::Kind::kGraph) {
    std::set<std::string> names;
    for (const Section* ns : nodes) {
      Reader nr(file, *ns);
      TopologySpec::GraphNode node;
      node.name = nr.require_string("name");
      node.router = nr.boolean("router", false);
      nr.finish();
      if (!names.insert(node.name).second) {
        fail(file, ns->line, ns->col, "duplicate node '" + node.name + "'");
      }
      topo.nodes.push_back(std::move(node));
    }
    if (topo.nodes.empty()) {
      fail(file, sec->line, sec->col,
           "graph topology needs at least one [[node]]");
    }
    for (const Section* ls : links) {
      Reader lr(file, *ls);
      TopologySpec::GraphLink link;
      link.a = lr.require_string("a");
      link.b = lr.require_string("b");
      link.cfg.bandwidth_Bps = kbps_to_rate(lr.number("kbps", 200.0));
      link.cfg.prop_delay = ms(lr.number("delay_ms", 10.0));
      link.cfg.queue_packets = static_cast<std::size_t>(
          lr.unsigned_integer("queue", link.cfg.queue_packets));
      lr.finish();
      for (const std::string* end : {&link.a, &link.b}) {
        if (names.count(*end) == 0) {
          fail(file, ls->line, ls->col,
               "link endpoint '" + *end + "' is not a declared [[node]]");
        }
      }
      topo.links.push_back(std::move(link));
    }
    if (topo.links.empty()) {
      fail(file, sec->line, sec->col,
           "graph topology needs at least one [[link]]");
    }
  }
  return topo;
}

/// Number of cross pairs build_wan_chain will create (mirrors its loop).
int wan_cross_pairs(const net::WanChainConfig& cfg) {
  if (cfg.cross_every <= 0) return 0;
  int count = 0;
  bool narrow_covered = false;
  for (int hop = 1; hop + 1 < cfg.hops; hop += cfg.cross_every) {
    ++count;
    narrow_covered = narrow_covered || hop == cfg.narrow_hop;
  }
  if (cfg.cross_at_narrow && !narrow_covered && cfg.narrow_hop >= 1 &&
      cfg.narrow_hop + 1 < cfg.hops) {
    ++count;
  }
  return count;
}

/// True if `ref` is `prefix` + a decimal index < bound; the index is
/// returned through `idx`.
bool indexed_ref(const std::string& ref, const std::string& prefix,
                 const std::string& suffix, int bound, int* idx) {
  if (ref.size() <= prefix.size() + suffix.size()) return false;
  if (ref.compare(0, prefix.size(), prefix) != 0) return false;
  if (ref.compare(ref.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string digits =
      ref.substr(prefix.size(), ref.size() - prefix.size() - suffix.size());
  if (digits.empty()) return false;
  int value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  if (value >= bound) return false;
  *idx = value;
  return true;
}

/// Validates one endpoint reference against the topology; returns a
/// human description of what IS valid for the error message.
bool endpoint_valid(const TopologySpec& topo, const std::string& ref) {
  int idx = 0;
  switch (topo.kind) {
    case TopologySpec::Kind::kDumbbell:
      return indexed_ref(ref, "left", "", topo.dumbbell.pairs, &idx) ||
             indexed_ref(ref, "right", "", topo.dumbbell.pairs, &idx);
    case TopologySpec::Kind::kParkingLot:
      return ref == "long_src" || ref == "long_dst" ||
             indexed_ref(ref, "cross", ".src", topo.parking_lot.segments,
                         &idx) ||
             indexed_ref(ref, "cross", ".dst", topo.parking_lot.segments,
                         &idx);
    case TopologySpec::Kind::kWanChain:
      return ref == "src" || ref == "dst" ||
             indexed_ref(ref, "cross", ".a", wan_cross_pairs(topo.wan),
                         &idx) ||
             indexed_ref(ref, "cross", ".b", wan_cross_pairs(topo.wan), &idx);
    case TopologySpec::Kind::kGraph:
      for (const auto& n : topo.nodes) {
        if (n.name == ref) return !n.router;
      }
      return false;
  }
  return false;
}

std::string endpoint_help(const TopologySpec& topo) {
  switch (topo.kind) {
    case TopologySpec::Kind::kDumbbell:
      return "left0..left" + std::to_string(topo.dumbbell.pairs - 1) +
             " / right0..right" + std::to_string(topo.dumbbell.pairs - 1);
    case TopologySpec::Kind::kParkingLot:
      return "long_src, long_dst, cross<i>.src, cross<i>.dst";
    case TopologySpec::Kind::kWanChain:
      return "src, dst, cross<i>.a, cross<i>.b (i < " +
             std::to_string(wan_cross_pairs(topo.wan)) + ")";
    case TopologySpec::Kind::kGraph:
      return "a declared non-router [[node]] name";
  }
  return "";
}

void check_endpoint(const std::string& file, const Section& sec,
                    const TopologySpec& topo, const std::string& key,
                    const std::string& ref) {
  if (endpoint_valid(topo, ref)) return;
  const Value* v = sec.find(key);
  fail(file, v != nullptr ? v->line : sec.line,
       v != nullptr ? v->col : sec.col,
       "'" + ref + "' is not an endpoint of this topology (valid: " +
           endpoint_help(topo) + ")");
}

/// Default src/dst endpoints for the i-th flow when the file omits them.
std::pair<std::string, std::string> default_endpoints(
    const TopologySpec& topo, std::size_t flow_index) {
  switch (topo.kind) {
    case TopologySpec::Kind::kDumbbell:
      return {"left" + std::to_string(flow_index),
              "right" + std::to_string(flow_index)};
    case TopologySpec::Kind::kParkingLot:
      return {"long_src", "long_dst"};
    case TopologySpec::Kind::kWanChain:
      return {"src", "dst"};
    case TopologySpec::Kind::kGraph:
      return {"", ""};  // graph flows must name endpoints explicitly
  }
  return {"", ""};
}

}  // namespace

ByteCount parse_bytes(const Value& v, const std::string& file) {
  if (v.kind == Value::Kind::kNumber) {
    if (v.num < 0 || v.num != std::floor(v.num)) {
      fail_at(file, v, "byte count must be a non-negative integer");
    }
    return static_cast<ByteCount>(v.num);
  }
  if (v.kind != Value::Kind::kString) {
    fail_at(file, v,
            std::string("expected a byte size (number or \"300KB\"-style "
                        "string), got ") +
                v.kind_name());
  }
  const std::string& s = v.str;
  std::size_t i = 0;
  while (i < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[i])) != 0 || s[i] == '.')) {
    ++i;
  }
  if (i == 0) fail_at(file, v, "byte size '" + s + "' has no leading number");
  char* end = nullptr;
  const double mag = std::strtod(s.substr(0, i).c_str(), &end);
  std::string unit = s.substr(i);
  for (char& c : unit) c = static_cast<char>(std::toupper(c));
  double scale = 1;
  if (unit.empty() || unit == "B") {
    scale = 1;
  } else if (unit == "KB") {
    scale = 1024;
  } else if (unit == "MB") {
    scale = 1024.0 * 1024;
  } else if (unit == "GB") {
    scale = 1024.0 * 1024 * 1024;
  } else {
    fail_at(file, v,
            "unknown byte-size unit '" + unit + "' in '" + s +
                "' (B, KB, MB, GB; 1 KB = 1024 B)");
  }
  return static_cast<ByteCount>(mag * scale);
}

ScenarioSpec compile(const Document& doc) {
  const std::string& file = doc.file;
  ScenarioSpec spec;

  // Reject sections the schema does not know about (sweep sections are
  // consumed by src/scenario/sweep.cc and are legal here).
  static const std::set<std::string> kKnown{
      "scenario", "topology", "queue",     "tcp",     "flow",
      "traffic",  "cross",    "node",      "link",    "sweep",
      "sweep.zip", "metrics", "sharding"};
  for (const Section& sec : doc.sections) {
    if (kKnown.count(sec.name) == 0) {
      fail(file, sec.line, sec.col, "unknown section [" + sec.name + "]");
    }
  }

  // [scenario]
  if (const Section* sec = doc.find("scenario")) {
    Reader r(file, *sec);
    spec.name = r.string("name", "");
    spec.seed = r.unsigned_integer("seed", spec.seed);
    spec.timeout_s = r.number("timeout_s", spec.timeout_s);
    spec.goodput_horizon_s =
        r.number("goodput_horizon_s", spec.goodput_horizon_s);
    const std::string stop = r.string("stop", "flows-done");
    if (stop == "flows-done") {
      spec.stop = ScenarioSpec::Stop::kFlowsDone;
    } else if (stop == "timeout") {
      spec.stop = ScenarioSpec::Stop::kTimeout;
    } else {
      const Value* v = sec->find("stop");
      fail(file, v->line, v->col,
           "unknown stop rule '" + stop + "' (flows-done, timeout)");
    }
    r.finish();
    if (spec.timeout_s <= 0) {
      fail(file, sec->line, sec->col, "timeout_s must be positive");
    }
    if (spec.goodput_horizon_s < 0) {
      fail(file, sec->line, sec->col, "goodput_horizon_s must be >= 0");
    }
  }

  spec.topology = read_topology(file, doc);

  // [queue]
  if (const Section* sec = doc.find("queue")) {
    Reader r(file, *sec);
    const std::string disc = r.string("discipline", "drop-tail");
    if (disc == "red") {
      spec.queue.red = true;
      net::RedConfig& rc = spec.queue.red_cfg;
      rc.min_thresh = r.number("min_thresh", rc.min_thresh);
      rc.max_thresh = r.number("max_thresh", rc.max_thresh);
      rc.max_drop_prob = r.number("max_drop_prob", rc.max_drop_prob);
      rc.weight = r.number("weight", rc.weight);
    } else if (disc != "drop-tail") {
      const Value* v = sec->find("discipline");
      fail(file, v != nullptr ? v->line : sec->line,
           v != nullptr ? v->col : sec->col,
           "unknown queue discipline '" + disc + "' (drop-tail, red)");
    }
    if (spec.queue.red &&
        spec.topology.kind == TopologySpec::Kind::kParkingLot) {
      fail(file, sec->line, sec->col,
           "discipline = \"red\" needs a single bottleneck link; the "
           "parking-lot topology does not expose one");
    }
    r.finish();
  }

  // [metrics]
  if (const Section* sec = doc.find("metrics")) {
    Reader r(file, *sec);
    spec.metrics.enabled = r.boolean("enabled", true);
    spec.metrics.interval_s = r.number("interval_s", spec.metrics.interval_s);
    r.finish();
    if (spec.metrics.interval_s <= 0) {
      fail(file, sec->line, sec->col, "metrics interval_s must be positive");
    }
  }

  // [sharding]
  if (const Section* sec = doc.find("sharding")) {
    Reader r(file, *sec);
    spec.sharding.shards =
        static_cast<int>(r.unsigned_integer("shards", 0));
    r.finish();
    if (spec.sharding.shards > sim::Simulator::kMaxLanes) {
      fail(file, sec->line, sec->col,
           "sharding shards must be <= " +
               std::to_string(sim::Simulator::kMaxLanes));
    }
    if (spec.sharding.shards > 1 && spec.metrics.enabled) {
      // Anchor the diagnostic at whichever of the two sections appears
      // later in the file — that is the line the author just added — and
      // name the other so both halves of the conflict are visible.
      const Section* met = doc.find("metrics");
      const Section* later = sec;
      const Section* earlier = met;
      if (met != nullptr && met->line > sec->line) {
        later = met;
        earlier = sec;
      }
      std::string msg =
          "[sharding] shards > 1 and [metrics] sampling are mutually "
          "exclusive (the sampler timer is not shard-safe)";
      if (earlier != nullptr) {
        msg += "; conflicts with [" +
               std::string(earlier == sec ? "sharding" : "metrics") +
               "] at line " + std::to_string(earlier->line);
      }
      msg += "; run unsharded to sample";
      fail(file, later->line, later->col, msg);
    }
  }

  // [tcp]
  if (const Section* sec = doc.find("tcp")) {
    Reader r(file, *sec);
    spec.tcp.mss = r.bytes("mss", spec.tcp.mss);
    spec.tcp.send_buffer = r.bytes("send_buffer", spec.tcp.send_buffer);
    spec.tcp.recv_buffer = r.bytes("recv_buffer", spec.tcp.recv_buffer);
    spec.tcp.delayed_ack = r.boolean("delayed_ack", spec.tcp.delayed_ack);
    spec.tcp.sack_enabled = r.boolean("sack", spec.tcp.sack_enabled);
    spec.tcp.dup_ack_threshold = static_cast<int>(
        r.integer("dup_ack_threshold", spec.tcp.dup_ack_threshold));
    spec.tcp.initial_cwnd_segments = static_cast<int>(
        r.integer("initial_cwnd_segments", spec.tcp.initial_cwnd_segments));
    r.finish();
  }

  // [[flow]]
  //
  // `count = N` replicates the section into N flows (names "<name>.<i>",
  // ports port..port+N-1, starts staggered by `stagger_s`), which is how
  // manyflows.scn scales one declaration to 10,000 concurrent transfers.
  std::set<std::string> flow_names;
  // (dst, port) -> flow name, for the listener-collision diagnostic; a
  // map (not the earlier O(flows^2) rescan) so 10k-flow expansions
  // compile in O(n log n).
  std::map<std::pair<std::string, PortNum>, std::string> listen_ports;
  std::size_t flow_index = 0;
  for (const Section* sec : doc.all("flow")) {
    Reader r(file, *sec);
    FlowSpec flow;
    flow.name = r.string("name", "flow" + std::to_string(flow_index));
    flow.algo = read_algo(r);
    flow.bytes = r.require_bytes("bytes");
    const auto [def_src, def_dst] = default_endpoints(spec.topology, flow_index);
    flow.src = r.string("src", def_src);
    flow.dst = r.string("dst", def_dst);
    flow.port =
        static_cast<PortNum>(r.integer("port", 5001 + static_cast<int>(flow_index)));
    flow.start_s = r.number("start_s", 0.0);
    flow.trace = r.boolean("trace", false);
    flow.sack = r.boolean("sack", false);
    flow.paced_slow_start = r.boolean("paced_slow_start", false);
    if (r.has("send_buffer")) {
      flow.send_buffer = r.bytes("send_buffer", 0);
    }
    const std::int64_t count = r.integer("count", 1);
    const double stagger_s = r.number("stagger_s", 0.0);
    r.finish();
    if (flow.src.empty() || flow.dst.empty()) {
      fail(file, sec->line, sec->col,
           "graph flows must name 'src' and 'dst' endpoints");
    }
    check_endpoint(file, *sec, spec.topology, "src", flow.src);
    check_endpoint(file, *sec, spec.topology, "dst", flow.dst);
    if (flow.src == flow.dst) {
      fail(file, sec->line, sec->col, "flow src and dst must differ");
    }
    if (flow.trace && spec.timeout_s > 4000.0) {
      fail(file, sec->line, sec->col,
           "trace = true needs timeout_s <= 4000: trace timestamps are "
           "32-bit microseconds (~71 min)");
    }
    if (flow.start_s < 0) {
      fail(file, sec->line, sec->col, "start_s must be >= 0");
    }
    if (count < 1) {
      fail(file, sec->line, sec->col, "count must be >= 1");
    }
    if (stagger_s < 0) {
      fail(file, sec->line, sec->col, "stagger_s must be >= 0");
    }
    if (count > 1 && flow.trace) {
      fail(file, sec->line, sec->col,
           "trace = true is only valid with count = 1 (add a separate "
           "traced probe flow instead of tracing a replicated group)");
    }
    if (static_cast<std::int64_t>(flow.port) + count - 1 > 65535) {
      fail(file, sec->line, sec->col,
           "count = " + std::to_string(count) + " starting at port " +
               std::to_string(flow.port) + " runs past port 65535");
    }
    for (std::int64_t i = 0; i < count; ++i) {
      FlowSpec f = flow;
      if (count > 1) {
        f.name = flow.name + "." + std::to_string(i);
        f.port = static_cast<PortNum>(flow.port + i);
        f.start_s = flow.start_s + stagger_s * static_cast<double>(i);
      }
      if (!flow_names.insert(f.name).second) {
        fail(file, sec->line, sec->col,
             "duplicate flow name '" + f.name +
                 "' (sweep paths select flows by name)");
      }
      // A listener collision would abort deep inside the stack; catch it
      // here with a proper diagnostic instead.
      const auto [it, inserted] =
          listen_ports.emplace(std::make_pair(f.dst, f.port), f.name);
      if (!inserted) {
        fail(file, sec->line, sec->col,
             "flow '" + f.name + "' reuses port " + std::to_string(f.port) +
                 " at '" + f.dst + "' (already taken by flow '" + it->second +
                 "')");
      }
      spec.flows.push_back(std::move(f));
    }
    ++flow_index;
  }
  if (spec.flows.empty()) {
    fail(file, 1, 1, "scenario has no [[flow]] sections (nothing to measure)");
  }

  // [[traffic]]
  std::size_t traffic_index = 0;
  for (const Section* sec : doc.all("traffic")) {
    Reader r(file, *sec);
    TrafficSpec t;
    t.name = r.string("name", "traffic" + std::to_string(traffic_index));
    t.client = r.require_string("client");
    t.server = r.require_string("server");
    t.mean_interarrival_s =
        r.number("interarrival_s", t.mean_interarrival_s);
    t.listen_port =
        static_cast<PortNum>(r.integer("listen_port", t.listen_port));
    t.algo = read_algo(r);
    t.meter_goodput = r.boolean("meter_goodput", t.meter_goodput);
    traffic::WorkloadParams& w = t.workload;
    w.p_telnet = r.number("p_telnet", w.p_telnet);
    w.p_ftp = r.number("p_ftp", w.p_ftp);
    w.p_smtp = r.number("p_smtp", w.p_smtp);
    w.p_nntp = r.number("p_nntp", w.p_nntp);
    w.ftp_item_log_mean = r.number("ftp_item_log_mean", w.ftp_item_log_mean);
    w.ftp_item_log_sigma =
        r.number("ftp_item_log_sigma", w.ftp_item_log_sigma);
    w.ftp_item_max = r.bytes("ftp_item_max", w.ftp_item_max);
    w.telnet_mean_think_s =
        r.number("telnet_mean_think_s", w.telnet_mean_think_s);
    r.finish();
    check_endpoint(file, *sec, spec.topology, "client", t.client);
    check_endpoint(file, *sec, spec.topology, "server", t.server);
    if (t.mean_interarrival_s <= 0) {
      fail(file, sec->line, sec->col, "interarrival_s must be positive");
    }
    for (const TrafficSpec& prior : spec.traffic) {
      if (prior.server == t.server && prior.listen_port == t.listen_port) {
        fail(file, sec->line, sec->col,
             "traffic source '" + t.name + "' reuses listen port " +
                 std::to_string(t.listen_port) + " at '" + t.server +
                 "' (already taken by '" + prior.name + "')");
      }
    }
    spec.traffic.push_back(std::move(t));
    ++traffic_index;
  }

  // [[cross]]
  std::size_t cross_index = 0;
  for (const Section* sec : doc.all("cross")) {
    Reader r(file, *sec);
    CrossSpec c;
    c.name = r.string("name", "cross" + std::to_string(cross_index));
    c.src = r.require_string("src");
    c.dst = r.require_string("dst");
    if (r.has("on_rate_kbps")) {
      c.cfg.on_rate_Bps = kbps_to_rate(r.number("on_rate_kbps", 0));
    }
    c.cfg.mean_on_s = r.number("mean_on_s", c.cfg.mean_on_s);
    c.cfg.mean_off_s = r.number("mean_off_s", c.cfg.mean_off_s);
    c.cfg.datagram_bytes = r.bytes("datagram_bytes", c.cfg.datagram_bytes);
    r.finish();
    check_endpoint(file, *sec, spec.topology, "src", c.src);
    check_endpoint(file, *sec, spec.topology, "dst", c.dst);
    spec.cross.push_back(std::move(c));
    ++cross_index;
  }

  return spec;
}

}  // namespace vegas::scenario
