// Per-host TCP stack: port allocation, connection demux, listen/connect.
//
// Demux is hot: every delivered packet resolves its connection here.
// Connections and listeners live in open-addressing FlatMaps keyed by
// the packed 4-tuple / port (common/flat_map.h) — one hash and a short
// probe instead of a red-black-tree walk — and a per-port use count
// makes ephemeral-port allocation O(1) instead of a scan over every
// live connection.
//
// The stack also owns the FlowHot slab (tcp/flow_hot.h): each accepted
// or initiated connection gets a dense FlowId row, its sender rebinds
// its hot state there, and demux prefetches the row while the packet
// headers are still being inspected — at 10k+ flows the row is almost
// certainly cold, and the prefetch hides most of that miss.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/flat_map.h"
#include "common/object_arena.h"
#include "common/rng.h"
#include "net/host.h"
#include "sim/simulator.h"
#include "tcp/config.h"
#include "tcp/connection.h"
#include "tcp/flow_hot.h"

namespace vegas::tcp {

class Stack {
 public:
  // Runs once per accepted connection (control path, and on_packet
  // copies it before invoking — see the rehash note there).
  using AcceptFn = std::function<void(Connection&)>;  // lint: std-function-ok

  /// Binds to `host` (registers as its TCP handler).  `seed` feeds ISN
  /// and ephemeral-port randomisation.
  Stack(sim::Simulator& sim, net::Host& host, TcpConfig defaults,
        std::uint64_t seed);

  /// Active open to (remote, remote_port), its sender running the
  /// congestion control `cc` (a static table: the cc registry's modules,
  /// or kRenoOps).  The connection is started immediately; attach
  /// callbacks/observer via the returned reference BEFORE the current
  /// event returns if establishment must be observed (the SYN is in
  /// flight, not yet answered, so that is always safe).
  Connection& connect(NodeId remote, PortNum remote_port,
                      const CongOps& cc = kRenoOps,
                      std::optional<TcpConfig> cfg = std::nullopt);

  /// Passive open: accept connections on `port`, one Connection per SYN,
  /// each sender running `cc`.
  void listen(PortNum port, AcceptFn on_accept, const CongOps& cc = kRenoOps,
              std::optional<TcpConfig> cfg = std::nullopt);

  // --- services used by Connection ---------------------------------------
  void transmit(net::PacketPtr p) { host_.send(std::move(p)); }
  /// Schedules removal of a fully-closed connection (deferred so the
  /// current event's stack frames stay valid).
  void retire(Connection* conn);

  sim::Simulator& sim() { return sim_; }
  net::Host& host() { return host_; }
  NodeId node_id() const { return host_.id(); }
  const TcpConfig& defaults() const { return defaults_; }

  std::size_t live_connections() const { return connections_.size(); }

  /// Pre-sizes the demux table and the FlowHot slab for `n` concurrent
  /// connections, so a large scenario never pays rehash/growth mid-run.
  /// Sizing is a pure capacity hint: hashing, FlowId assignment and
  /// therefore trace digests are identical with or without it.
  void reserve_flows(std::size_t n);

  /// Slab row backing a live connection (tests; kInvalid if unknown key).
  FlowId flow_id_of(PortNum local, NodeId remote, PortNum remote_port) const {
    const ConnSlot* slot = connections_.find(conn_key(local, remote,
                                                      remote_port));
    return slot != nullptr ? slot->id : FlowSlab::kInvalidId;
  }
  std::size_t flow_slab_high_water() const { return flow_slab_.high_water(); }

 private:
  struct Listener {
    AcceptFn on_accept;
    const CongOps* cc = nullptr;
    TcpConfig cfg;
  };
  /// Demux table entry: the connection plus its sender and slab row,
  /// denormalised so the packet path can prefetch all three without
  /// first chasing Connection -> sender -> row pointers serially.  The
  /// Connection itself lives in conn_arena_ (packed with its peers, not
  /// scattered across the heap); `conn` is a non-owning view and
  /// `arena_id` is the handle retire() destroys through.
  struct ConnSlot {
    Connection* conn = nullptr;
    TcpSender* sender = nullptr;
    FlowHot* hot = nullptr;
    FlowId id = FlowSlab::kInvalidId;
    ObjectArena<Connection>::Id arena_id = ObjectArena<Connection>::kInvalidId;
  };
  /// Packed demux key: local port | remote port | remote node.  The
  /// whole 4-tuple fits one word (our address is implicit), so the
  /// connection table hashes a single integer per packet.
  static std::uint64_t conn_key(PortNum local, NodeId remote,
                                PortNum remote_port) {
    return (static_cast<std::uint64_t>(local) << 48) |
           (static_cast<std::uint64_t>(remote_port) << 32) |
           static_cast<std::uint64_t>(remote);
  }

  /// Claims a slab row and rebinds the arena object's sender hot state
  /// into it.
  ConnSlot make_slot(ObjectArena<Connection>::Id arena_id, Connection* conn);

  void on_packet(net::PacketPtr p);
  std::uint32_t pick_isn() {
    return static_cast<std::uint32_t>(isn_rng_.uniform_int(0, 0xffffffff));
  }
  PortNum pick_ephemeral();
  void send_rst(const net::Packet& to);

  sim::Simulator& sim_;
  net::Host& host_;
  TcpConfig defaults_;
  rng::Stream isn_rng_;
  FlatMap<ConnSlot> connections_;  // by conn_key (slots are non-owning)
  /// Owns every Connection; declared after connections_ so teardown
  /// destroys the objects first, leaving only dead pointers in the map.
  ObjectArena<Connection> conn_arena_;
  FlowSlab flow_slab_;             // hot rows, indexed by ConnSlot::id
  FlatMap<Listener> listeners_;    // by local port
  /// Live connections per local port — keeps pick_ephemeral() O(1).
  FlatMap<std::uint32_t> local_port_use_;
  PortNum next_ephemeral_ = 1024;
};

}  // namespace vegas::tcp
