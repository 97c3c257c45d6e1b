#include "traffic/source.h"

#include <utility>

#include "common/ensure.h"
#include "common/log.h"

namespace vegas::traffic {

TrafficSource::TrafficSource(tcp::Stack& client, tcp::Stack& server,
                             TrafficConfig cfg)
    : client_(client),
      server_(server),
      cfg_(std::move(cfg)),
      arrivals_(rng::derive_seed(cfg_.seed, "traffic-arrivals")),
      sampler_(cfg_.workload, rng::derive_seed(cfg_.seed, "traffic-workload")) {}

void TrafficSource::start() {
  if (!listening_) {
    listening_ = true;
    server_.listen(
        cfg_.listen_port,
        [this](tcp::Connection& c) {
          const auto it = pending_accept_.find(c.remote_port());
          if (it == pending_accept_.end()) {
            log::warn("TRAFFIC: unexpected accept");
            return;
          }
          ScriptedConversation* conv = it->second;
          pending_accept_.erase(it);
          conv->bind_server(c);
        },
        *cfg_.cc, cfg_.tcp);
  }
  schedule_next();
}

void TrafficSource::schedule_next() {
  const sim::Time gap =
      sim::Time::seconds(arrivals_.exponential(cfg_.mean_interarrival_s));
  client_.sim().schedule(gap, [this] {
    if (client_.sim().now() <= cfg_.spawn_until) {
      spawn();
      schedule_next();
    }
  });
}

void TrafficSource::spawn() {
  auto draw = sampler_.draw_conversation();
  auto conv = std::make_unique<ScriptedConversation>(
      client_.sim(), draw.type, std::move(draw.steps),
      [this](ScriptedConversation& c) { conversation_done(c); });
  ScriptedConversation* raw = conv.get();
  const std::uint64_t id = next_conversation_id_++;
  conv->set_dispose([this, id](ScriptedConversation& c) {
    ScriptedConversation* p = &c;
    // Deferred: we are inside the conversation's own call stack.
    client_.sim().schedule(sim::Time::zero(), [this, id, p] {
      for (auto it = pending_accept_.begin(); it != pending_accept_.end();) {
        it = it->second == p ? pending_accept_.erase(it) : std::next(it);
      }
      live_.erase(id);
    });
  });
  live_.emplace(id, std::move(conv));
  ++stats_.started;
  ++stats_.by_type[raw->type()];

  tcp::Connection& c =
      client_.connect(server_.node_id(), cfg_.listen_port, *cfg_.cc,
                      cfg_.tcp);
  pending_accept_[c.local_port()] = raw;
  raw->bind_client(c);
}

void TrafficSource::conversation_done(ScriptedConversation& c) {
  if (c.failed()) {
    ++stats_.failed;
  } else {
    ++stats_.completed;
    stats_.bytes_scripted += c.total_bytes();
    if (c.type() == "telnet") {
      const auto& steps = c.steps();
      const auto& times = c.timings();
      for (std::size_t i = 0; i + 1 < steps.size(); i += 2) {
        // Keystroke at i (client), echo at i+1 (server): user-visible
        // response time is keystroke send -> echo fully received.
        if (times[i + 1].completed > times[i].initiated) {
          stats_.telnet_response_s.push_back(
              (times[i + 1].completed - times[i].initiated).to_seconds());
        }
      }
    }
  }
}

}  // namespace vegas::traffic
