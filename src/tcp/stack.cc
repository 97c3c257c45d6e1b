#include "tcp/stack.h"

#include <utility>

#include "common/ensure.h"
#include "common/log.h"
#include "common/prefetch.h"

namespace vegas::tcp {

Stack::Stack(sim::Simulator& sim, net::Host& host, TcpConfig defaults,
             std::uint64_t seed)
    : sim_(sim),
      host_(host),
      defaults_(defaults),
      isn_rng_(rng::derive_seed(seed, "tcp-isn-" + host.name())) {
  host_.set_tcp_handler([this](net::PacketPtr p) { on_packet(std::move(p)); });
}

PortNum Stack::pick_ephemeral() {
  for (int attempts = 0; attempts < 65536; ++attempts) {
    const PortNum port = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ == 65535 ? PortNum{1024} : PortNum(next_ephemeral_ + 1);
    if (!listeners_.contains(port) && !local_port_use_.contains(port)) {
      return port;
    }
  }
  ensure(false, "ephemeral ports exhausted");
  return 0;
}

void Stack::reserve_flows(std::size_t n) {
  connections_.reserve(n);
  conn_arena_.reserve(n);
  flow_slab_.reserve(n);
}

Stack::ConnSlot Stack::make_slot(ObjectArena<Connection>::Id arena_id,
                                 Connection* conn) {
  const FlowId id = flow_slab_.allocate();
  FlowHot* row = &flow_slab_.row(id);
  TcpSender* sender = &conn->sender();
  sender->bind_flow_row(row);
  return ConnSlot{conn, sender, row, id, arena_id};
}

Connection& Stack::connect(NodeId remote, PortNum remote_port,
                           const CongOps& cc,
                           std::optional<TcpConfig> cfg) {
  const TcpConfig config = cfg.value_or(defaults_);
  const PortNum local_port = pick_ephemeral();
  const std::uint32_t isn = config.fixed_isn.value_or(pick_isn());
  const auto [arena_id, conn] =
      conn_arena_.create(*this, remote, local_port, remote_port,
                         std::make_unique<TcpSender>(config, cc), config,
                         isn, std::nullopt);
  Connection& ref = *conn;
  connections_.insert(conn_key(local_port, remote, remote_port),
                      make_slot(arena_id, conn));
  ++local_port_use_.get_or_insert(local_port);
  // Defer the SYN to an immediate event so the caller can attach
  // callbacks and an observer before anything happens.
  sim_.schedule(sim::Time::zero(), [&ref] {
    if (ref.state() == TcpState::kClosed) ref.start();
  });
  return ref;
}

void Stack::listen(PortNum port, AcceptFn on_accept, const CongOps& cc,
                   std::optional<TcpConfig> cfg) {
  ensure(!listeners_.contains(port), "port already listening");
  listeners_.insert(port, Listener{std::move(on_accept), &cc,
                                   cfg.value_or(defaults_)});
}

void Stack::on_packet(net::PacketPtr p) {
  const std::uint64_t key = conn_key(p->tcp.dst_port, p->src, p->tcp.src_port);
  if (ConnSlot* slot = connections_.find(key)) {
    // Start pulling the flow's state now, in parallel: without these the
    // packet path discovers Connection -> sender -> hot row as a serial
    // chain of cold misses at 10k+ flows.
    prefetch_read_range(slot->hot, sizeof(FlowHot));
    prefetch_read_range(slot->sender, 64);
    slot->conn->on_packet(*p);
    return;
  }
  // No connection: a SYN may create one via a listener.
  if (p->tcp.has(net::TcpFlag::kSyn) && !p->tcp.has(net::TcpFlag::kAck)) {
    if (Listener* listener = listeners_.find(p->tcp.dst_port)) {
      const std::uint32_t isn = listener->cfg.fixed_isn.value_or(pick_isn());
      const auto [arena_id, conn] = conn_arena_.create(
          *this, p->src, p->tcp.dst_port, p->tcp.src_port,
          std::make_unique<TcpSender>(listener->cfg, *listener->cc),
          listener->cfg, isn,
          std::optional<std::uint32_t>(p->tcp.seq));
      Connection& ref = *conn;
      connections_.insert(key, make_slot(arena_id, conn));
      ++local_port_use_.get_or_insert(p->tcp.dst_port);
      // Copy before invoking: the callback may add a listener, and a
      // FlatMap rehash would move the Listener out from under the call.
      if (AcceptFn on_accept = listener->on_accept) on_accept(ref);
      ref.start();  // sends SYN|ACK
      return;
    }
  }
  if (!p->tcp.has(net::TcpFlag::kRst)) send_rst(*p);
}

void Stack::send_rst(const net::Packet& to) {
  auto p = net::make_packet();
  p->dst = to.src;
  p->protocol = net::Protocol::kTcp;
  p->tcp.src_port = to.tcp.dst_port;
  p->tcp.dst_port = to.tcp.src_port;
  p->tcp.set(net::TcpFlag::kRst);
  p->tcp.seq = to.tcp.ack;
  host_.send(std::move(p));
}

void Stack::retire(Connection* conn) {
  const std::uint64_t key =
      conn_key(conn->local_port(), conn->remote(), conn->remote_port());
  const PortNum local_port = conn->local_port();
  // Deferred: the connection may be deep in its own call stack right now.
  sim_.schedule(sim::Time::zero(), [this, key, local_port] {
    if (ConnSlot* slot = connections_.find(key)) {
      // Free the slab row before the Connection: destroying the arena
      // object destroys the sender, and the recycled row must not
      // outlive its binding.
      flow_slab_.release(slot->id);
      conn_arena_.destroy(slot->arena_id);
      connections_.erase(key);
      if (auto* uses = local_port_use_.find(local_port)) {
        if (--*uses == 0) local_port_use_.erase(local_port);
      }
    }
  });
}

}  // namespace vegas::tcp
