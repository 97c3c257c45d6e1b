// Validated scenario schema (docs/SCENARIOS.md).
//
// compile() turns a parsed Document into a ScenarioSpec, checking every
// section and key against the schema: unknown sections/keys, wrong value
// types, out-of-range numbers, unparseable byte sizes, unknown protocol
// or topology names, and dangling endpoint references all raise
// ScenarioError pointing at the offending file:line:column.  A compiled
// spec is a plain value object the engine can run without further
// validation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cc/registry.h"
#include "net/red.h"
#include "net/topology.h"
#include "scenario/parser.h"
#include "tcp/config.h"
#include "traffic/cross.h"
#include "traffic/distributions.h"

namespace vegas::scenario {

struct TopologySpec {
  enum class Kind { kDumbbell, kParkingLot, kWanChain, kGraph };
  Kind kind = Kind::kDumbbell;

  net::DumbbellConfig dumbbell;
  net::ParkingLotConfig parking_lot;
  net::WanChainConfig wan;

  // kGraph: explicit nodes and duplex links.
  struct GraphNode {
    std::string name;
    bool router = false;
  };
  struct GraphLink {
    std::string a;
    std::string b;
    net::LinkConfig cfg;
  };
  std::vector<GraphNode> nodes;
  std::vector<GraphLink> links;
};

/// Queue discipline applied to the topology's bottleneck link(s):
/// the dumbbell bottleneck, every parking-lot segment, the WAN narrow
/// hop, or every router-egress link of a graph.
struct QueueSpec {
  bool red = false;
  net::RedConfig red_cfg;  // capacity is taken from the topology's queue
};

/// One bulk transfer.  The [[flow]] section additionally accepts
/// `count` (replicate into N flows named "<name>.<i>" on consecutive
/// ports) and `stagger_s` (start offset between replicas); compile()
/// expands those into N plain FlowSpecs, so the engine never sees them.
struct FlowSpec {
  std::string name;
  cc::AlgoSpec algo;
  ByteCount bytes = 0;
  std::string src;  // endpoint reference, e.g. "left0", "src", "h1"
  std::string dst;
  PortNum port = 0;
  double start_s = 0;
  bool trace = false;  // attach a ConnTracer; digest lands in the result
  // Per-flow TCP overrides on top of the scenario's [tcp] section; when
  // none is set the stack defaults apply (exactly like the canned
  // scenarios in src/exp/scenarios.cc).
  bool sack = false;
  bool paced_slow_start = false;
  std::optional<ByteCount> send_buffer;
};

/// tcplib conversation load between two endpoints (paper §2.1).
struct TrafficSpec {
  std::string name;  // seeds derive from this; "background" matches §4.2
  std::string client;
  std::string server;
  double mean_interarrival_s = 3.0;
  PortNum listen_port = 7000;
  cc::AlgoSpec algo;  // defaults to Reno, as in the paper
  traffic::WorkloadParams workload;
  bool meter_goodput = true;  // count toward background_goodput (dumbbell)
};

/// Unreliable datagram on/off cross-traffic (Tables 4-5's uncontrolled
/// background).
struct CrossSpec {
  std::string name;
  std::string src;
  std::string dst;
  traffic::CrossTrafficConfig cfg;  // seed is derived from the cell seed
};

/// [metrics] — the sim-time sampler (docs/OBSERVABILITY.md).  Sampling
/// is passive: enabling it never changes protocol behaviour or trace
/// digests (tests/obs_test.cc enforces bit-identity).
struct MetricsSpec {
  bool enabled = false;
  double interval_s = 0.1;  // sim-time sampling cadence
};

/// [sharding] — conservative parallel execution of this one cell
/// (docs/PERFORMANCE.md "Sharded execution").  `shards` is the number
/// of topology shards to aim for; the partitioner may produce fewer
/// (and 0/1 means run single-threaded, the default).  Worker count
/// comes from RunOptions.threads / VEGAS_THREADS and never affects
/// results — digests are bit-identical at any thread count.
struct ShardingSpec {
  int shards = 0;
};

struct ScenarioSpec {
  std::string name;
  std::uint64_t seed = 1;
  double timeout_s = 300.0;
  /// kFlowsDone: run in 10 s slices until every flow finished and
  /// goodput_horizon_s elapsed (run_background's loop); kTimeout: run
  /// straight to timeout_s (run_one_on_one / run_wan).
  enum class Stop { kFlowsDone, kTimeout };
  Stop stop = Stop::kFlowsDone;
  /// Fixed horizon for the background-goodput metric (Table 3 uses 60).
  double goodput_horizon_s = 0;

  tcp::TcpConfig tcp;  // world-wide TCP knobs from [tcp]
  TopologySpec topology;
  QueueSpec queue;
  MetricsSpec metrics;
  ShardingSpec sharding;
  std::vector<FlowSpec> flows;
  std::vector<TrafficSpec> traffic;
  std::vector<CrossSpec> cross;
};

/// Compiles one cell document into a runnable spec.  Throws
/// ScenarioError (with source location) on any schema violation.
ScenarioSpec compile(const Document& doc);

/// Parses a human byte size: a bare number (bytes) or a string like
/// "300KB" / "1MB" / "512B" (1 KB = 1024 B, the paper's convention).
/// Used by compile(); exposed for tests.
ByteCount parse_bytes(const Value& v, const std::string& file);

}  // namespace vegas::scenario
