// Bulk transfer: the measured workload of every table in the paper
// (1 MB / 512 KB / 300 KB / 128 KB transfers).
//
// Orchestrates both endpoints: the receiver side listens, consumes and
// closes after the remote FIN; the sender side connects, streams `bytes`
// as buffer space allows, and closes.  Completion time is the instant the
// sender's FIN is acknowledged — every payload byte is then known
// delivered — matching a sender-side throughput measurement.
#pragma once

#include <functional>
#include <optional>

#include "sim/simulator.h"
#include "tcp/stack.h"

namespace vegas::obs {
class Registry;
}  // namespace vegas::obs

namespace vegas::traffic {

struct TransferResult {
  ByteCount bytes = 0;
  /// In-order payload the receiving application actually consumed —
  /// integrity tests assert it equals `bytes` exactly.
  ByteCount bytes_delivered = 0;
  sim::Time start;
  sim::Time end;
  bool completed = false;
  tcp::SenderStats sender_stats;
  std::string algorithm;

  double duration_s() const { return (end - start).to_seconds(); }
  double throughput_Bps() const {
    const double d = duration_s();
    return d > 0 ? static_cast<double>(bytes) / d : 0.0;
  }
};

class BulkTransfer {
 public:
  struct Config {
    ByteCount bytes = 0;
    PortNum port = 5001;
    const tcp::CongOps* cc = &tcp::kRenoOps;  // the sender's CC module
    std::optional<tcp::TcpConfig> tcp;        // empty -> stack defaults
    sim::Time start_delay;                    // connect() happens then
    tcp::ConnectionObserver* observer = nullptr;
    std::function<void(const TransferResult&)> on_complete;
  };

  /// Sets up listener immediately; the transfer starts after
  /// cfg.start_delay.  Both stacks must outlive this object.
  BulkTransfer(tcp::Stack& sender_side, tcp::Stack& receiver_side,
               Config cfg);
  BulkTransfer(const BulkTransfer&) = delete;
  BulkTransfer& operator=(const BulkTransfer&) = delete;

  bool done() const { return result_.completed; }
  const TransferResult& result() const { return result_; }
  /// KB/s as the paper reports it.
  double throughput_kBps() const { return result_.throughput_Bps() / 1024.0; }

  /// The live sender-side connection, or nullptr before start_delay and
  /// after completion/reset.
  const tcp::Connection* connection() const { return conn_; }

  /// Per-flow gauges under "<prefix>." (cwnd, ssthresh, in_flight).
  /// Unlike Connection::register_metrics this is safe across the flow's
  /// whole lifetime: probes read 0 while no connection is live.
  void register_metrics(obs::Registry& reg, const std::string& prefix);

 private:
  void begin();
  void pump();

  tcp::Stack& sender_side_;
  tcp::Stack& receiver_side_;
  Config cfg_;
  tcp::Connection* conn_ = nullptr;
  ByteCount written_ = 0;
  TransferResult result_;
};

}  // namespace vegas::traffic
