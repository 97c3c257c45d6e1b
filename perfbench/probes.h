// Layer probes for the traced run: time calls into the public sim and
// net functions that `run` spends its time in, at sizes taken from the
// counts the workload just produced.  They give the layers buried
// inside a cell's `run` phase a time, not only a count, until the
// program records spans of its own.  Each returns nullopt when the
// public call under test lost work (a timer or packet went missing).
#pragma once

#include <cstdint>
#include <optional>

namespace perfbench {

/// ns per Simulator::restart_timer across `live` armed timers.
std::optional<double> probe_timer_restart_ns(std::uint64_t live);

/// ns per event of a hold loop (each event schedules one successor) with
/// `depth` events pending, through Simulator::schedule and run.
std::optional<double> probe_schedule_pop_ns(std::uint64_t depth);

/// ns per packet offered to a loaded net::Link and delivered, for
/// `packets` packets in bursts that fill its queue.
std::optional<double> probe_link_ns_per_packet(std::uint64_t packets);

}  // namespace perfbench
