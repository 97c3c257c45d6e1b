// Module diagnostics: typed windows into per-module private state, for
// tests, the invariant checker and the ablation benches.  Implemented in
// the owning module's TU (the priv layout is module-private); each probe
// returns nullopt unless `sender` runs that module's CongOps table.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.h"
#include "sim/time.h"

namespace vegas::tcp {
class TcpSender;
}

namespace vegas::cc {

/// Vegas internals (modules/vegas.cc): BaseRTT, the fine-grained RTO and
/// the aggregate CAM/decrease counters the §3 invariants assert on.
struct VegasDiag {
  sim::Time base_rtt;
  bool has_base_rtt = false;
  sim::Time fine_rto;
  std::uint64_t cam_samples = 0;
  std::uint64_t window_decreases = 0;
  /// Packet-pair bottleneck estimate in bytes/s (0 until measured).
  double bandwidth_estimate_Bps = 0;
};

std::optional<VegasDiag> vegas_diag(const tcp::TcpSender& sender);

/// NewReno's partial-ACK retransmission count (modules/newreno.cc).
std::optional<std::uint64_t> newreno_partial_retransmits(
    const tcp::TcpSender& sender);

}  // namespace vegas::cc
