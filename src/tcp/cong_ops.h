// CongOps — the congestion-control interface of the sender engine
// (docs/CONGESTION.md).
//
// In the spirit of Linux's `tcp_congestion_ops`: an algorithm is a static
// table of plain function pointers operating on the TcpSender plus a small
// per-flow private-state slab the module lays out itself.  Every hook is
// optional; a null pointer runs the engine's own Reno behaviour at that
// call site, so a module overrides exactly the decisions its algorithm
// changes — mirroring how the paper derived Vegas "by modifying Reno" (§2).
// The all-null table, kRenoOps, is therefore Reno itself: the default of
// TcpSender(cfg) and the registry's `reno` module.
//
// Hook map (engine call site → hook):
//
//   sender construction          → init        (lay out priv state)
//   sender destruction           → release
//   fresh cumulative ACK         → on_ack      (window growth / deflate)
//   duplicate ACK                → on_dup_ack  (fast retransmit policy)
//   coarse retransmission RTO    → on_loss
//   every arriving ACK, early    → on_rtt_sample (fine RTT, CAM, probes)
//   segment (re)transmitted,
//   hot-row rebind               → cwnd_event
//   loss-response window target  → ssthresh    (see below)
//   transmission pacing          → pacing
//
// `ssthresh` is the light-weight alternative to writing a full
// on_dup_ack/on_loss pair: the engine's Reno dup-ACK and RTO paths take
// their window target from it (TcpSender::loss_target), so a module that
// provides only `ssthresh` runs Reno's loss machinery verbatim with its
// own target substituted for half_window() — enough for every pure-AIMD
// variant (CUBIC, New-AIMD).
//
// Modules live in src/cc and register with CC_REGISTER_MODULE
// (cc/registry.h); the registry owns name lookup and enumeration.
#pragma once

#include <cstddef>

#include "common/types.h"
#include "sim/time.h"
#include "tcp/sender.h"

namespace vegas::tcp {

/// Out-of-band events forwarded to interested modules.
struct CwndEvent {
  enum class Kind {
    kSegmentSent,  // a segment was (re)transmitted (rec/retransmit set)
    kRowRebound,   // the FlowHot row moved; re-anchor estimators
  };
  Kind kind;
  const TcpSender::SegRecord* rec = nullptr;
  bool retransmit = false;
};

/// Transmission-pacing hint.  A zero interval means unpaced (burst the
/// window); `burst` segments may go back-to-back per interval.
struct PacingHint {
  sim::Time interval = sim::Time::zero();
  int burst = 1;
};

/// One congestion-control module.  Instances must have static storage
/// duration: the registry and every sender keep pointers into it.
struct CongOps {
  /// Canonical registry key, lowercase ("vegas", "cubic", ...).
  const char* name = nullptr;
  /// Display name ("Vegas", "CUBIC", ...), returned by TcpSender::name().
  const char* label = nullptr;
  /// Optional alternate spelling also accepted by lookup ("tri-s").
  const char* alt = nullptr;

  /// Private-state slab the engine allocates per sender.  The module
  /// constructs its state there in `init` (TcpSender::emplace_priv) and
  /// destroys it in `release`.  Alignment must not exceed
  /// alignof(std::max_align_t).
  std::size_t priv_size = 0;
  std::size_t priv_align = 1;

  void (*init)(TcpSender&) = nullptr;
  void (*release)(TcpSender&) = nullptr;

  /// Fresh cumulative ACK advanced snd_una by `newly_acked` bytes.
  void (*on_ack)(TcpSender&, ByteCount newly_acked) = nullptr;

  /// Duplicate ACK arrived (`dup_count` includes this one).
  void (*on_dup_ack)(TcpSender&, int dup_count) = nullptr;

  /// The coarse retransmission timer fired (go-back-N follows).
  void (*on_loss)(TcpSender&) = nullptr;

  /// Every arriving ACK, before standard processing (records intact).
  void (*on_rtt_sample)(TcpSender&, StreamOffset ack,
                        bool duplicate) = nullptr;

  /// Out-of-band events (segment sent, row rebind).
  void (*cwnd_event)(TcpSender&, const CwndEvent&) = nullptr;

  /// Loss-response window target in bytes (Reno uses half_window()).
  /// See the header comment for the null-on_dup_ack/on_loss contract.
  ByteCount (*ssthresh)(TcpSender&) = nullptr;

  /// Pacing hint, consulted per transmission opportunity.
  PacingHint (*pacing)(const TcpSender&) = nullptr;
};

/// Default init/release for modules whose state is default-constructible.
template <typename T>
void priv_init(TcpSender& s) {
  s.emplace_priv<T>();
}
template <typename T>
void priv_release(TcpSender& s) {
  s.destroy_priv<T>();
}

}  // namespace vegas::tcp
