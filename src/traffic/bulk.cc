#include "traffic/bulk.h"

#include <utility>

#include "common/ensure.h"
#include "obs/registry.h"

namespace vegas::traffic {

void BulkTransfer::register_metrics(obs::Registry& reg,
                                    const std::string& prefix) {
  // Probes must stay valid across connection teardown: conn_ is nulled
  // on completion/reset, so each read re-checks it and reports 0 once
  // the flow is done (a truthful "no window" for a closed connection).
  reg.probe(prefix + ".cwnd", [this] {
    return conn_ != nullptr ? static_cast<double>(conn_->sender().cwnd()) : 0.0;
  });
  reg.probe(prefix + ".ssthresh", [this] {
    return conn_ != nullptr ? static_cast<double>(conn_->sender().ssthresh())
                            : 0.0;
  });
  reg.probe(prefix + ".in_flight", [this] {
    return conn_ != nullptr ? static_cast<double>(conn_->sender().in_flight())
                            : 0.0;
  });
}

BulkTransfer::BulkTransfer(tcp::Stack& sender_side, tcp::Stack& receiver_side,
                           Config cfg)
    : sender_side_(sender_side),
      receiver_side_(receiver_side),
      cfg_(std::move(cfg)) {
  ensure(cfg_.bytes > 0, "transfer size must be positive");
  result_.bytes = cfg_.bytes;

  // Receiver: consume everything; close our side once the peer finishes.
  // The receiver shares the transfer's TCP config — receive buffer and
  // delayed-ACK policy are receiver-side properties.
  receiver_side_.listen(
      cfg_.port,
      [this](tcp::Connection& c) {
        tcp::Connection::Callbacks cbs;
        cbs.on_data = [this](ByteCount n) { result_.bytes_delivered += n; };
        cbs.on_remote_close = [&c] { c.close(); };
        c.set_callbacks(std::move(cbs));
      },
      tcp::kRenoOps, cfg_.tcp);

  sender_side_.sim().schedule(cfg_.start_delay, [this] { begin(); });
}

void BulkTransfer::begin() {
  result_.start = sender_side_.sim().now();
  conn_ = &sender_side_.connect(receiver_side_.node_id(), cfg_.port,
                                *cfg_.cc, cfg_.tcp);
  if (cfg_.observer != nullptr) conn_->set_observer(cfg_.observer);
  result_.algorithm = conn_->sender().name();

  tcp::Connection::Callbacks cbs;
  cbs.on_established = [this] { pump(); };
  cbs.on_send_space = [this] { pump(); };
  cbs.on_local_fin_acked = [this] {
    result_.end = sender_side_.sim().now();
    result_.completed = true;
    result_.sender_stats = conn_->sender().stats();
    conn_ = nullptr;  // connection may be retired after this point
    if (cfg_.on_complete) cfg_.on_complete(result_);
  };
  cbs.on_reset = [this] {
    // Aborted transfer: record as incomplete but keep the stats.
    result_.end = sender_side_.sim().now();
    result_.sender_stats = conn_->sender().stats();
    conn_ = nullptr;
  };
  conn_->set_callbacks(std::move(cbs));
}

void BulkTransfer::pump() {
  if (conn_ == nullptr || written_ >= cfg_.bytes) return;
  const ByteCount accepted = conn_->send(cfg_.bytes - written_);
  written_ += accepted;
  if (written_ >= cfg_.bytes) conn_->close();
}

}  // namespace vegas::traffic
