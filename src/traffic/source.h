// The TRAFFIC protocol (paper §2.1): tcplib-style background load.
//
// "TRAFFIC starts conversations with interarrival times given by an
// exponential distribution.  Each conversation can be of type TELNET,
// FTP, NNTP, or SMTP ... each of these conversations runs on top of its
// own TCP connection."
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "tcp/stack.h"
#include "traffic/conversation.h"
#include "traffic/distributions.h"

namespace vegas::traffic {

struct TrafficConfig {
  double mean_interarrival_s = 3.0;
  PortNum listen_port = 7000;
  std::uint64_t seed = 1;
  /// CC module used by conversation senders ("the tcplib traffic is
  /// running over Reno", §4.2).  Applied to both ends.
  const tcp::CongOps* cc = &tcp::kRenoOps;
  std::optional<tcp::TcpConfig> tcp;
  /// Stop spawning new conversations after this instant (existing ones
  /// run to completion).
  sim::Time spawn_until = sim::Time::max();
  WorkloadParams workload;
};

class TrafficSource {
 public:
  struct Stats {
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    ByteCount bytes_scripted = 0;  // app bytes of completed conversations
    /// TELNET keystroke->echo latencies (§6's response-time metric).
    std::vector<double> telnet_response_s;
    std::map<std::string, std::uint64_t> by_type;
  };

  /// Conversations originate at `client` and are served by `server`.
  TrafficSource(tcp::Stack& client, tcp::Stack& server, TrafficConfig cfg);

  void start();
  const Stats& stats() const { return stats_; }
  std::size_t live_conversations() const { return live_.size(); }

 private:
  void schedule_next();
  void spawn();
  void conversation_done(ScriptedConversation& c);

  tcp::Stack& client_;
  tcp::Stack& server_;
  TrafficConfig cfg_;
  rng::Stream arrivals_;
  WorkloadSampler sampler_;
  Stats stats_;
  std::map<PortNum, ScriptedConversation*> pending_accept_;
  // Keyed by spawn ordinal, not pointer: the map's order (and hence
  // teardown order) must be run-to-run deterministic.
  std::map<std::uint64_t, std::unique_ptr<ScriptedConversation>> live_;
  std::uint64_t next_conversation_id_ = 1;
  bool listening_ = false;
};

}  // namespace vegas::traffic
