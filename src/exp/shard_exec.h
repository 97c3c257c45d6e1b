// Conservative parallel discrete-event executor for a sharded Simulator.
//
// The scenario's topology is partitioned into shards at link boundaries
// (scenario/partition.h); each shard maps to one Simulator LANE — a
// complete timing wheel + clock — and lanes execute on a
// fixed worker thread (lane l runs on worker l % threads, every round,
// so a lane's packets always recycle through the same per-lane pool).
//
// Synchronization is the classic conservative time-window scheme: with
// L = the minimum propagation delay across all cut links (the
// LOOKAHEAD), every round (1) drains all inbound boundary rings into
// the destination lanes, (2) agrees on the global minimum next-event
// time T at a barrier, then (3) runs every lane's events with
// timestamp strictly below min(T + L, deadline-inclusive bound) in
// parallel.  A packet crossing a cut link was serialized at some
// u >= T and arrives at u + prop >= T + L, i.e. always beyond the
// window being executed — no shard ever sees an event out of causal
// order, and no null messages are needed beyond the window agreement.
//
// Determinism (docs/DESIGN.md): every source of ordering is fixed and
// thread-count independent — lanes run windows independently with
// their own (time, seq) order; cross-shard arrivals are re-stamped
// with the destination lane's sequence counter in DRAIN ORDER, which
// is (lane ascending, boundary registration order, ring FIFO), all
// properties of the topology and the deterministic producer lanes,
// never of thread scheduling.  Hence trace digests are bit-identical
// at any VEGAS_THREADS.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/packet.h"
#include "exp/spsc_ring.h"
#include "sim/simulator.h"

namespace vegas::exp {

/// Sense-counting spin barrier with a last-arriver callback.  Spins
/// briefly then yields — worker counts above the core count (common in
/// tests, and the whole point of determinism at any VEGAS_THREADS)
/// must not melt a small machine.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {}

  template <typename Fn>
  void arrive_and_wait(Fn&& on_last) {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) == parties_ - 1) {
      count_.store(0, std::memory_order_relaxed);
      on_last();
      generation_.store(gen + 1, std::memory_order_release);
    } else {
      int spins = 0;
      while (generation_.load(std::memory_order_acquire) == gen) {
        if (++spins > 128) std::this_thread::yield();
      }
    }
  }
  void arrive_and_wait() {
    arrive_and_wait([] {});
  }

 private:
  const int parties_;
  std::atomic<int> count_{0};
  std::atomic<std::uint64_t> generation_{0};
};

class ShardExecutor {
 public:
  /// `lookahead` must be positive (guaranteed by the partitioner: it
  /// only cuts links whose propagation delay clears a floor).
  /// `threads` is clamped to [1, lanes].  Workers are spawned here and
  /// parked between runs; the destructor joins them, so declare the
  /// executor AFTER everything its lanes reference (the engine declares
  /// it last).
  ShardExecutor(sim::Simulator& sim, int threads, sim::Time lookahead);
  ~ShardExecutor();
  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// Binds `pool` around every slice of `lane` work (drain + run), so
  /// packets the lane allocates recycle lane-locally.  Optional (tests
  /// that move no packets skip it); the pool must outlive the executor.
  void set_lane_pool(int lane, net::PacketPool* pool);

  /// Called on the destination lane's thread during the drain phase,
  /// with the destination pool bound: schedule the arrival (typically
  /// Simulator::lane_schedule_at + Node::receive).
  using Deliver = std::function<void(sim::Time, net::PacketPtr)>;
  /// Called from source-lane execution: hand `p` across the boundary
  /// for delivery at absolute time `at` (Link::CrossDelivery shape).
  using Post = std::function<void(sim::Time, net::PacketPtr)>;

  /// Registers a directed cut edge src_lane -> dst_lane.  Registration
  /// order is part of the determinism contract: the engine registers
  /// boundaries in Network edge-creation order.  Must be called before
  /// the first run_until().
  Post add_boundary(int src_lane, int dst_lane, Deliver deliver);

  /// Runs every lane until global simulated time reaches `deadline`
  /// (events at exactly `deadline` fire, like Simulator::run_until) or
  /// all lanes and boundaries drain.  Blocking; callable repeatedly
  /// with increasing deadlines.
  void run_until(sim::Time deadline);

  int threads() const { return threads_; }
  /// Synchronization windows executed so far (executor stats).
  std::uint64_t windows() const { return windows_; }
  /// Packets handed across shard boundaries so far.
  std::uint64_t cross_posts() const;

 private:
  struct CrossMsg {
    sim::Time at;
    net::Packet pkt;  // by value: the owning PacketPtr never crosses
  };

  struct Boundary {
    int src_lane = 0;
    int dst_lane = 0;
    SpscRing<CrossMsg> ring;
    Deliver deliver;
    std::uint64_t posts = 0;  // producer-side; read after a run
  };

  // One cache line per worker for the pre-barrier window vote.
  struct alignas(64) WorkerSlot {
    sim::Time local_min = sim::Time::max();
  };

  enum class Cmd { kRun, kDone };

  void worker_park_loop(int w);
  void run_rounds(int w);
  void decide();

  sim::Simulator& sim_;
  const int threads_;
  const sim::Time lookahead_;
  std::vector<net::PacketPool*> pools_;           // per lane, may be null
  std::vector<std::unique_ptr<Boundary>> boundaries_;
  std::vector<std::vector<Boundary*>> inbound_;   // per lane, reg. order

  SpinBarrier barrier_;
  std::vector<WorkerSlot> slots_;
  // Round state: written only by the barrier's last arriver, read by
  // everyone after the generation flip (a happens-before edge).
  sim::Time deadline_;
  sim::Time bound_;
  Cmd cmd_ = Cmd::kDone;
  sim::Time finish_time_;  // clock alignment target for the done round
  std::uint64_t windows_ = 0;

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> shutdown_{false};
  std::vector<std::thread> workers_;  // workers 1..threads-1; 0 = caller
};

}  // namespace vegas::exp
