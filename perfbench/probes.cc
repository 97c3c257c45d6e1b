#include "probes.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace vegas;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Fixed-seed LCG: the probes' delays are inputs, not results.
struct Lcg {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::int64_t next(std::int64_t mod) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::int64_t>((x >> 17) % static_cast<std::uint64_t>(mod));
  }
};

struct Hold {
  sim::Simulator* s;
  Lcg* rng;
  std::uint64_t* remaining;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    s->schedule(sim::Time::nanoseconds(rng->next(1000000)), *this);
  }
};

class CountingSink : public net::Node {
 public:
  CountingSink() : Node(0, "probe-sink") {}
  void receive(net::PacketPtr p) override { count += p != nullptr ? 1 : 0; }
  std::uint64_t count = 0;
};

}  // namespace

std::optional<double> probe_timer_restart_ns(std::uint64_t live) {
  const std::uint64_t n = std::clamp<std::uint64_t>(live, 1, 1u << 21);
  const std::uint64_t rounds = std::max<std::uint64_t>(2, (4u << 20) / n);
  sim::Simulator s;
  Lcg rng;
  std::vector<sim::TimerId> ids;
  ids.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ids.push_back(
        s.schedule_timer(sim::Time::nanoseconds(rng.next(200000000)), [] {}));
  }
  std::uint64_t restarted = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (const sim::TimerId id : ids) {
      restarted += s.restart_timer(id, sim::Time::nanoseconds(rng.next(200000000)))
                       ? 1
                       : 0;
    }
  }
  const double ns = ns_since(t0);
  for (const sim::TimerId id : ids) s.cancel_timer(id);
  if (restarted != n * rounds) return std::nullopt;
  return ns / static_cast<double>(n * rounds);
}

std::optional<double> probe_schedule_pop_ns(std::uint64_t depth) {
  const std::uint64_t d = std::clamp<std::uint64_t>(depth, 1, 1u << 21);
  const std::uint64_t successors = std::max<std::uint64_t>(4u << 20, 4 * d);
  std::uint64_t remaining = successors;
  sim::Simulator s;
  Lcg rng;
  for (std::uint64_t i = 0; i < d; ++i) {
    s.schedule(sim::Time::nanoseconds(rng.next(1000000)),
               Hold{&s, &rng, &remaining});
  }
  const auto t0 = Clock::now();
  s.run();
  const double ns = ns_since(t0);
  if (s.events_executed() != d + successors) return std::nullopt;
  return ns / static_cast<double>(s.events_executed());
}

std::optional<double> probe_link_ns_per_packet(std::uint64_t packets) {
  constexpr std::uint64_t kBurst = 64;
  const std::uint64_t bursts =
      std::clamp<std::uint64_t>(packets, 1u << 16, 1u << 21) / kBurst;
  sim::Simulator s;
  CountingSink sink;
  net::Link link(s, "probe", net::LinkConfig{1e9, sim::Time::milliseconds(1), kBurst},
                 sink);
  const auto t0 = Clock::now();
  for (std::uint64_t b = 0; b < bursts; ++b) {
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      net::PacketPtr p = net::make_packet();
      p->payload_bytes = 1024;
      link.send(std::move(p));
    }
    s.run();
  }
  const double ns = ns_since(t0);
  if (sink.count != bursts * kBurst) return std::nullopt;
  return ns / static_cast<double>(sink.count);
}

}  // namespace perfbench
