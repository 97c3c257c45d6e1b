// Unidirectional point-to-point link.
//
// Model: a QueueDisc feeds a transmitter.  The transmitter serializes one
// packet at a time (wire_bytes / bandwidth), then the packet propagates
// for `prop_delay` without occupying the transmitter (store-and-forward
// pipelining, as on real links).  An optional LossModel discards packets
// after serialization.  Queue-length changes and drops are reported to an
// optional QueueMonitor; delivered bytes to an optional RateMeter.
//
// In-flight packets ride in per-link slots, not in event closures: the
// single serialization slot is a member, and propagating packets sit in
// a ticket-indexed ring (deque) with the event capturing only the
// ticket.  Event actions stay small (16 bytes), so they fit the timing
// wheel's inline action storage, and delivery stays correct under jitter or
// set_prop_delay() reorders because lookup is by ticket, not FIFO head.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "net/loss.h"
#include "net/monitor.h"
#include "net/node.h"
#include "net/queue.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace vegas::obs {
class Registry;
}  // namespace vegas::obs

namespace vegas::net {

struct LinkConfig {
  Rate bandwidth_Bps = 0;            // bytes per second; must be > 0
  sim::Time prop_delay;              // one-way propagation
  std::size_t queue_packets = 50;    // DropTail capacity (if no custom disc)
};

class Link {
 public:
  /// Creates a link delivering to `peer`, with a DropTailQueue of
  /// cfg.queue_packets.
  Link(sim::Simulator& sim, std::string name, const LinkConfig& cfg,
       Node& peer);

  /// Replaces the queueing discipline (e.g. with RedQueue).  Must be
  /// called before any traffic is sent.
  void set_queue(std::unique_ptr<QueueDisc> q);

  /// Installs a loss model applied post-serialization.
  void set_loss_model(std::unique_ptr<LossModel> m) { loss_ = std::move(m); }

  /// Adds uniform per-packet delivery jitter in [0, max_jitter] on top
  /// of the propagation delay.  Jitter larger than the packet spacing
  /// REORDERS packets — the failure-injection knob for testing TCP's
  /// out-of-order handling (multipath-style reordering; a FIFO link
  /// cannot otherwise reorder).
  void set_jitter(sim::Time max_jitter, std::uint64_t seed);

  /// Attaches instruments (owned by the caller; must outlive the link).
  void set_queue_monitor(QueueMonitor* m) { queue_monitor_ = m; }
  void set_rate_meter(RateMeter* m) { rate_meter_ = m; }

  /// Wire tap: observes every packet at serialization completion — i.e.
  /// everything that leaves the transmitter, including packets a loss
  /// model will discard in flight (exactly what a physical tap near the
  /// sender would record).  Used by trace::PcapWriter.
  using Tap = std::function<void(sim::Time, const Packet&)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Boundary conduit for sharded execution: when set, a packet that
  /// finishes serializing (and survives the loss model) is handed off
  /// here with its absolute delivery time — `now + prop_delay + jitter`
  /// — instead of the in-process deliver() path, and the shard executor
  /// re-stamps it into the destination shard's lane.  Tap, loss, jitter
  /// and delivery accounting all run on the sending side, so counters
  /// match the unsharded run exactly.
  using CrossDelivery = std::function<void(sim::Time, PacketPtr)>;
  void set_cross_delivery(CrossDelivery fn) { cross_ = std::move(fn); }

  /// Offers a packet for transmission.  Takes ownership; drops (and
  /// reports) if the queue is full.
  void send(PacketPtr p);

  const std::string& name() const { return name_; }
  const LinkConfig& config() const { return cfg_; }

  /// Changes the propagation delay for FUTURE packets — models a route
  /// change on the path this link abstracts (the §6 BaseRTT-sensitivity
  /// study uses it).  Packets already in flight keep their old delay, so
  /// delay reductions can transiently reorder, as real reroutes do.
  void set_prop_delay(sim::Time delay) { cfg_.prop_delay = delay; }
  QueueDisc& queue() { return *queue_; }
  Node& peer() { return peer_; }

  /// Transmitter utilisation accounting (busy time so far / elapsed) —
  /// used by tests and the WAN calibration.
  double utilisation() const;
  ByteCount bytes_delivered() const {
    return static_cast<ByteCount>(bytes_delivered_.value());
  }
  std::size_t packets_dropped() const {
    return static_cast<std::size_t>(drops_.value());
  }

  /// Binds this link's observability into `reg` under "<prefix>.":
  /// delivery/drop counters plus queue-occupancy and utilisation probes.
  /// The link must outlive any sampling of `reg`.
  void register_metrics(obs::Registry& reg, const std::string& prefix);

 private:
  void try_transmit();
  void on_serialized(PacketPtr p);
  void deliver(std::uint64_t ticket);

  sim::Simulator& sim_;
  std::string name_;
  LinkConfig cfg_;
  Node& peer_;
  std::unique_ptr<QueueDisc> queue_;
  std::unique_ptr<LossModel> loss_;
  sim::Time max_jitter_;
  std::optional<rng::Stream> jitter_rng_;
  QueueMonitor* queue_monitor_ = nullptr;
  RateMeter* rate_meter_ = nullptr;
  Tap tap_;
  CrossDelivery cross_;

  bool transmitting_ = false;
  PacketPtr tx_held_;  // the one packet being serialized
  // Propagating packets, indexed by ticket: slot = ticket -
  // in_flight_base_.  Consumed slots are nulled and popped from the
  // front once contiguous, so the deque stays at pipe depth.
  std::deque<PacketPtr> in_flight_;
  std::uint64_t in_flight_base_ = 0;
  sim::Time busy_accum_;
  obs::Counter bytes_delivered_;
  obs::Counter drops_;
};

}  // namespace vegas::net
