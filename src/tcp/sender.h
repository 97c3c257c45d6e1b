// TCP send-side engine, implementing 4.3BSD Reno semantics.
//
// This class IS Reno: Jacobson slow start and congestion avoidance, the
// 500 ms coarse-grained retransmission timer with Karn's rule and
// exponential backoff, fast retransmit on 3 duplicate ACKs, and Reno fast
// recovery with window inflation.  The historical lineage of the paper —
// "our implementation of Vegas was derived by modifying Reno" (§2) — is
// mirrored in code: every other algorithm (Tahoe, Vegas, DUAL, CARD,
// Tri-S, ...) is a CongOps table (tcp/cong_ops.h) whose hooks replace
// Reno's decisions at fixed call sites of this one engine; a null hook
// keeps Reno's.  The class is final and has no virtual functions.
//
// The sender works in 64-bit stream offsets (see tcp/seq.h); the owning
// Connection translates to/from 32-bit wire sequence numbers.
//
// Hot/cold split: the fields every ACK and coarse tick touch live in a
// FlowHot row (tcp/flow_hot.h) the sender points at.  A standalone
// sender owns its row on the heap; Stack rebinds it into the per-stack
// slab via bind_flow_row() so 10k+ concurrent flows stay cache-dense.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "common/types.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcp/buffer.h"
#include "tcp/config.h"
#include "tcp/flow_hot.h"
#include "tcp/observer.h"
#include "tcp/rtt.h"

namespace vegas::tcp {

struct CongOps;  // tcp/cong_ops.h

/// The all-null CongOps table: Reno, the engine's own behaviour.
extern const CongOps kRenoOps;

/// Aggregate counters the experiments report (Tables 1-5 columns).
struct SenderStats {
  ByteCount bytes_sent = 0;            // payload bytes, incl. retransmits
  ByteCount bytes_retransmitted = 0;   // payload bytes sent more than once
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_retransmitted = 0;
  std::uint64_t coarse_timeouts = 0;   // Reno's circles (Figure 2)
  std::uint64_t fast_retransmits = 0;  // 3-dup-ACK retransmits
  std::uint64_t fine_retransmits = 0;  // Vegas §3.1 retransmits
  std::uint64_t dup_acks_received = 0;
  std::uint64_t rtt_samples = 0;
  std::uint64_t sack_retransmits = 0;     // hole repairs driven by SACK
  std::uint64_t retransmits_avoided = 0;  // skipped: target already SACKed
};

class TcpSender final {
 public:
  /// Services the owning Connection provides to the sender.  Bound once
  /// at connection setup to `[this]`-captures; SmallFn is void() only,
  /// and these carry typed arguments, so they stay std::function — the
  /// per-call cost is one indirect call, with no allocation churn.
  struct Env {
    sim::Simulator* sim = nullptr;
    ConnectionObserver* observer = nullptr;  // may be null
    /// Builds and transmits a data segment [seq, seq+len) with `fin`
    /// marking the final segment of the stream.
    std::function<void(StreamOffset seq, ByteCount len,  // lint: std-function-ok
                       bool fin)>
        transmit;
    /// Send-buffer space became available for the application.
    std::function<void()> on_send_space;  // lint: std-function-ok
    /// The local FIN was acknowledged.
    std::function<void()> on_fin_acked;  // lint: std-function-ok
    /// Retransmission gave up (too many backoffs) — abort connection.
    std::function<void()> on_abort;  // lint: std-function-ok
    /// The sender needs coarse ticks again (see needs_ticks()) — the
    /// Connection resumes a paused tick clock, phase-aligned.
    std::function<void()> wake_ticks;  // lint: std-function-ok
  };

  /// Runs the congestion control of `ops`, which must outlive the sender
  /// (registry tables are static).
  explicit TcpSender(const TcpConfig& cfg, const CongOps& ops = kRenoOps);
  ~TcpSender();
  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  void attach(Env env);

  /// Moves the sender's hot state into `row` (the stack's slab) and
  /// operates there from now on.  The previous row's values are copied
  /// bit-for-bit, so behaviour is identical to a standalone sender.
  /// `row` must outlive the sender.
  void bind_flow_row(FlowHot* row);

  /// Human-readable algorithm name ("Reno", "Vegas", ...): ops().label.
  std::string name() const;
  const CongOps& ops() const { return *ops_; }

  // --- interface used by the Connection ---------------------------------

  /// Connection reached ESTABLISHED; transmission may begin.
  void open(ByteCount initial_peer_window);

  /// Application appended bytes to the stream; returns bytes accepted.
  ByteCount app_write(ByteCount bytes);

  /// Application closed its end: emit FIN once the buffer drains.
  void app_close();

  /// One received SACK block in stream-offset space.
  struct SackRange {
    StreamOffset start;
    StreamOffset end;
  };

  /// Cumulative ACK for stream offset `ack` (bytes before it are acked;
  /// ack == stream_end()+1 acknowledges the FIN).  `peer_wnd` is the raw
  /// advertised window; `segment_payload` the payload length of the
  /// packet carrying this ACK (the BSD duplicate-ACK rule needs it).
  /// `sacks` carries any selective-ACK blocks (config().sack_enabled).
  void on_ack(StreamOffset ack, ByteCount peer_wnd, ByteCount segment_payload,
              std::span<const SackRange> sacks = {});

  /// One coarse-grained clock tick (every cfg.tick).
  void on_tick();

  /// True while any coarse-clock machinery is counting: the rexmt timer
  /// is armed, an RTT measurement is in flight, or the zero-window
  /// persist probe is pending.  Observed connections always need ticks
  /// (on_coarse_tick is part of the observable trace).  When false, the
  /// owning Connection pauses the tick clock (tickless idle) and the
  /// sender wakes it through Env::wake_ticks when this turns true again
  /// — every tick that actually fires stays on the same phase-aligned
  /// schedule, so behaviour is bit-identical to ticking throughout.
  bool needs_ticks() const;

  // --- accessors ---------------------------------------------------------

  const SenderStats& stats() const { return stats_; }
  const TcpConfig& config() const { return cfg_; }
  ByteCount cwnd() const { return hot_->cwnd; }
  ByteCount ssthresh() const { return hot_->ssthresh; }
  ByteCount in_flight() const;
  StreamOffset snd_una() const { return hot_->snd_una; }
  StreamOffset snd_nxt() const { return hot_->snd_nxt; }
  StreamOffset snd_max() const { return hot_->snd_max; }
  ByteCount send_space() const { return buf_.space(); }
  bool fin_acked() const { return fin_acked_; }
  bool in_slow_start() const { return hot_->cwnd < hot_->ssthresh; }

  // --- SACK scoreboard inspection (config().sack_enabled) ---------------

  bool sack_enabled() const { return cfg_.sack_enabled; }

  /// True if every byte of [start, start+len) is covered by SACK blocks.
  bool sack_covered(StreamOffset start, ByteCount len) const;

  /// First offset >= `from` (and >= snd_una) not covered by any SACK
  /// block, or snd_max if none.
  StreamOffset sack_next_hole(StreamOffset from) const;

  const std::map<StreamOffset, StreamOffset>& sack_scoreboard() const {
    return sacked_;
  }

  /// One transmission of one segment, as the retransmission machinery
  /// tracks it.  `sent_at` is updated on every (re)transmission; Vegas'
  /// fine-grained checks read it.
  struct SegRecord {
    StreamOffset start = 0;
    ByteCount len = 0;
    bool fin = false;
    sim::Time sent_at;
    int transmissions = 1;
  };

  // --- services for CongOps hooks ---------------------------------------

  ConnectionObserver* observer() { return env_.observer; }
  sim::Time now() const { return env_.sim->now(); }

  /// The packed hot row (shared with the Vegas block; see flow_hot.h).
  FlowHot& hot() { return *hot_; }
  const FlowHot& hot() const { return *hot_; }

  /// Sends as much new data as windows allow.
  void maybe_send();

  /// Retransmits the first unacknowledged segment.
  void retransmit_front(RetransmitTrigger trigger);

  /// Retransmits one MSS-bounded segment starting at `start` (clamped to
  /// outstanding data).  Skips (and counts) targets already SACKed.
  /// Returns payload length actually retransmitted.
  ByteCount retransmit_at(StreamOffset start, RetransmitTrigger trigger);

  /// SACK-based recovery step: repair the next unsacked hole above the
  /// last repair point.  Returns true if a retransmission was sent.
  /// Call from recovery paths on duplicate ACKs.
  bool sack_retransmit_next_hole(RetransmitTrigger trigger);

  /// Resets the hole-search floor when a recovery episode begins (the
  /// front segment has just been retransmitted).
  void sack_recovery_begin() { sack_rtx_point_ = hot_->snd_una + cfg_.mss; }

  /// Standard Reno halving target: max(2*MSS, min(cwnd, snd_wnd)/2).
  ByteCount half_window() const;

  /// Looks up the retransmission record containing `snd_una` (the segment
  /// a duplicate ACK asks for), or nullptr.
  const SegRecord* front_record() const;

  /// All in-flight transmission records, ordered by stream offset.
  const std::deque<SegRecord>& records() const { return records_; }

  ByteCount mss() const { return cfg_.mss; }
  ByteCount snd_wnd() const { return hot_->snd_wnd; }

  void set_cwnd(ByteCount cwnd);
  void set_ssthresh(ByteCount ssthresh);
  void enter_recovery() { hot_->in_recovery = true; }
  void exit_recovery() { hot_->in_recovery = false; }
  bool in_recovery() const { return hot_->in_recovery; }

  /// Karn's rule helper for hooks that retransmit the timed segment.
  void cancel_rtt_timing() { hot_->rtt_timing = false; }

  /// Reno's own decisions, for hooks that extend rather than replace them
  /// (e.g. NewReno's full-ACK growth, Vegas' coarse-timeout path).
  void reno_on_ack(ByteCount newly_acked);
  void reno_on_loss();

  // --- private-state slab (CongOps::priv_size) ---------------------------

  /// Constructs the module's state in the slab (call from `init`).
  template <typename T, typename... Args>
  T& emplace_priv(Args&&... args) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    check_priv_fits(sizeof(T), alignof(T));
    return *std::construct_at(reinterpret_cast<T*>(priv_.get()),
                              std::forward<Args>(args)...);
  }

  template <typename T>
  T& priv() {
    return *std::launder(reinterpret_cast<T*>(priv_.get()));
  }
  template <typename T>
  const T& priv() const {
    return *std::launder(reinterpret_cast<const T*>(priv_.get()));
  }

  /// Destroys the module's state (call from `release`).
  template <typename T>
  void destroy_priv() {
    std::destroy_at(std::launder(reinterpret_cast<T*>(priv_.get())));
  }

  SenderStats stats_;

 private:
  void transmit_segment(StreamOffset seq, ByteCount len, bool fin,
                        bool retransmit);
  /// Reno's duplicate-ACK response (fast retransmit, fast recovery).
  void reno_on_dup_ack(int dup_count);
  /// The window target of a loss response: the module's ssthresh hook if
  /// it has one, else half_window().
  ByteCount loss_target();
  /// ensure()s the module's priv_size/priv_align fit a T of this shape.
  void check_priv_fits(std::size_t size, std::size_t align) const;
  void notify_windows();
  /// Resumes the Connection's paused tick clock (no-op while ticking).
  void wake_ticks() {
    if (env_.wake_ticks) env_.wake_ticks();
  }
  /// Persist-timer probe: forces one byte into a zero window so the
  /// reopening window update cannot be lost forever.
  void send_window_probe();
  void merge_sack(StreamOffset start, StreamOffset end);
  void handle_new_ack(StreamOffset ack);
  void arm_rexmt();
  void disarm_rexmt() { hot_->rexmt_ticks = 0; }
  void coarse_timeout();

  TcpConfig cfg_;
  const CongOps* ops_;
  std::unique_ptr<std::byte[]> priv_;  // module state, ops_->priv_size bytes
  Env env_;
  SendBuffer buf_;

  // Hot per-flow state: window block, coarse timer, RTT vars (and the
  // Vegas block for the vegas cc module).  Standalone senders own a
  // heap row;
  // bind_flow_row() migrates into the stack's slab and drops own_hot_.
  std::unique_ptr<FlowHot> own_hot_;
  FlowHot* hot_ = nullptr;

  std::deque<SegRecord> records_;  // in-flight, ordered by start

  // SACK scoreboard: merged sacked intervals above snd_una_ (cleared on
  // coarse timeout, RFC 2018's reneging caution).
  std::map<StreamOffset, StreamOffset> sacked_;
  StreamOffset sack_rtx_point_ = 0;  // next-hole search floor in recovery

  // Estimator logic (state lives in hot_->coarse_rtt after rebind).
  CoarseRttEstimator rtt_;

  // FIN handling: the FIN occupies one unit past stream_end.
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;

  bool open_ = false;

  // Pacing (CongOps::pacing): while armed, maybe_send defers.  Last, so
  // the flags above fill the padding before its 16-byte alignment.
  bool pace_pending_ = false;
  std::optional<sim::Timer> pace_timer_;
};

}  // namespace vegas::tcp
