#include "exp/scenarios.h"

#include <algorithm>
#include <memory>

#include "cc/registry.h"
#include "common/rng.h"
#include "exp/runner.h"
#include "net/monitor.h"
#include "stats/fairness.h"
#include "traffic/cross.h"

namespace vegas::exp {

namespace {

/// Runs `cfg`'s connections on `algo`'s module with its knobs applied
/// over `base`, the TCP defaults both endpoint stacks share.
template <typename Config>
void use_algo(Config& cfg, const cc::AlgoSpec& algo, tcp::TcpConfig base) {
  algo.apply(base);
  cfg.cc = &algo.ops();
  cfg.tcp = base;
}

}  // namespace

OneOnOneResult run_one_on_one(const OneOnOneParams& p) {
  net::DumbbellConfig topo;
  topo.pairs = 2;
  topo.bottleneck_queue = p.queue;
  tcp::TcpConfig tcp_cfg;  // paper defaults: 1 KB MSS, 50 KB send buffer
  DumbbellWorld world(topo, tcp_cfg, p.seed);

  traffic::BulkTransfer::Config large;
  large.bytes = p.large_bytes;
  large.port = 5001;
  use_algo(large, p.large, tcp_cfg);
  large.observer = p.observer;
  traffic::BulkTransfer t_large(world.left(0), world.right(0), large);

  traffic::BulkTransfer::Config small;
  small.bytes = p.small_bytes;
  small.port = 5002;
  use_algo(small, p.small, tcp_cfg);
  small.start_delay = sim::Time::seconds(p.small_delay_s);
  traffic::BulkTransfer t_small(world.left(1), world.right(1), small);

  world.sim().run_until(sim::Time::seconds(p.timeout_s));
  return OneOnOneResult{t_large.result(), t_small.result()};
}

BackgroundResult run_background(const BackgroundParams& p) {
  net::DumbbellConfig topo;
  topo.pairs = 3;
  topo.bottleneck_queue = p.queue;
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.send_buffer = p.send_buffer;
  DumbbellWorld world(topo, tcp_cfg, p.seed);

  // Background goodput meters: payload delivered to the traffic hosts.
  net::RateMeter fwd_meter;  // into Host1b
  net::RateMeter rev_meter;  // into Host1a
  world.topo().right_access[0].reverse->set_rate_meter(&fwd_meter);
  world.topo().left_access[0].reverse->set_rate_meter(&rev_meter);
  net::RateMeter fwd3_meter;  // two-way variant uses pair 3
  net::RateMeter rev3_meter;
  world.topo().right_access[2].reverse->set_rate_meter(&fwd3_meter);
  world.topo().left_access[2].reverse->set_rate_meter(&rev3_meter);

  // tcplib TRAFFIC between Host1a and Host1b (§4.2).
  traffic::TrafficConfig tc;
  tc.mean_interarrival_s = p.mean_interarrival_s;
  tc.listen_port = 7000;
  tc.seed = rng::derive_seed(p.seed, "background");
  use_algo(tc, p.background, tcp_cfg);
  traffic::TrafficSource source(world.left(0), world.right(0), tc);
  source.start();

  // Optional reverse-direction load, Host3b -> Host3a (§4.3 two-way).
  std::unique_ptr<traffic::TrafficSource> reverse_source;
  if (p.two_way) {
    traffic::TrafficConfig rc = tc;
    rc.listen_port = 7001;
    rc.seed = rng::derive_seed(p.seed, "background-rev");
    reverse_source =
        std::make_unique<traffic::TrafficSource>(world.right(2), world.left(2), rc);
    reverse_source->start();
  }

  // The measured transfer: Host2a -> Host2b.
  traffic::BulkTransfer::Config bt;
  bt.bytes = p.bytes;
  bt.port = 5001;
  tcp::TcpConfig transfer_cfg = tcp_cfg;
  transfer_cfg.sack_enabled = p.transfer_sack;
  use_algo(bt, p.transfer, transfer_cfg);
  bt.observer = p.observer;
  bt.start_delay = sim::Time::seconds(p.transfer_start_s);
  traffic::BulkTransfer transfer(world.left(1), world.right(1), bt);

  // Run until the transfer has completed AND the fixed background-goodput
  // horizon has elapsed (in 10 s slices so unused timeout isn't simulated).
  while (world.sim().now() < sim::Time::seconds(p.timeout_s)) {
    world.sim().run_until(world.sim().now() + sim::Time::seconds(10.0));
    if (transfer.done() &&
        world.sim().now().to_seconds() >= kBackgroundHorizonS) {
      break;
    }
  }

  BackgroundResult r;
  r.transfer = transfer.result();
  r.traffic = source.stats();
  // Goodput of the background conversations over a fixed experiment
  // horizon.  The paper does not specify Table 3's averaging window; a
  // fixed horizon captures both effects of the transfer's protocol on
  // the background — losses inflicted while they share the queue AND how
  // quickly the transfer gets out of the way (Vegas finishes sooner).
  const double horizon =
      std::min(kBackgroundHorizonS, world.sim().now().to_seconds());
  if (horizon > 0) {
    double delivered = 0;
    for (const net::RateMeter* m :
         {&fwd_meter, &rev_meter, &fwd3_meter, &rev3_meter}) {
      const auto rates = m->rates();
      const double bin_s = m->bin().to_seconds();
      for (std::size_t i = 0; i < rates.size(); ++i) {
        const double bin_t = bin_s * static_cast<double>(i);
        if (bin_t < horizon) delivered += rates[i] * bin_s;
      }
    }
    r.background_goodput_Bps = delivered / horizon;
  }
  return r;
}

traffic::TransferResult run_wan(const WanParams& p) {
  net::WanChainConfig topo;
  // Calibrated to the Internet experiments' loss regime (Tables 4-5,
  // DESIGN.md): base RTT ~55 ms keeps the path BDP (~13 KB) under the
  // 16 KB slow-start doubling step, so Vegas' gamma check fires before
  // the 16-packet narrow queue overflows, while Reno keeps losing tens
  // of KB per transfer to its own overshoot.
  topo.cross_every = 3;  // cross pairs at hops 1,4,7,...; narrow forced
  topo.queue_packets = 16;
  topo.min_hop_delay = sim::Time::milliseconds(1);
  topo.max_hop_delay = sim::Time::milliseconds(2);
  topo.seed = rng::derive_seed(p.seed, "wan-topo");
  tcp::TcpConfig tcp_cfg;
  WanWorld world(topo, tcp_cfg, p.seed);

  // Responsive (tcplib over Reno) cross traffic, one source per interior
  // hop, each loading exactly one chain link.
  std::vector<std::unique_ptr<tcp::Stack>> cross_stacks;
  std::vector<std::unique_ptr<traffic::TrafficSource>> cross_sources;
  int idx = 0;
  for (const auto& pair : world.topo().cross) {
    cross_stacks.push_back(std::make_unique<tcp::Stack>(
        world.sim(), *pair.a, tcp_cfg,
        rng::derive_seed(p.seed, "xstack-a" + std::to_string(idx))));
    tcp::Stack& a = *cross_stacks.back();
    cross_stacks.push_back(std::make_unique<tcp::Stack>(
        world.sim(), *pair.b, tcp_cfg,
        rng::derive_seed(p.seed, "xstack-b" + std::to_string(idx))));
    tcp::Stack& b = *cross_stacks.back();
    traffic::TrafficConfig tc;
    tc.mean_interarrival_s = p.cross_interarrival_s;
    tc.listen_port = 7000;
    tc.seed = rng::derive_seed(p.seed, "xtraffic-" + std::to_string(idx));
    // Ambient Internet load of the era: interactive-heavy, small items —
    // many flows rather than synchronized multi-KB bursts.
    tc.workload.p_telnet = 0.45;
    tc.workload.p_ftp = 0.20;
    tc.workload.ftp_item_log_mean = 8.5;          // median ~5 KB
    tc.workload.ftp_item_max = 64 * 1024;
    cross_sources.push_back(
        std::make_unique<traffic::TrafficSource>(a, b, tc));
    cross_sources.back()->start();
    ++idx;
  }

  traffic::BulkTransfer::Config bt;
  bt.bytes = p.bytes;
  bt.port = 5001;
  use_algo(bt, p.algo, tcp_cfg);
  bt.observer = p.observer;
  bt.start_delay = sim::Time::seconds(5.0);  // let cross traffic settle
  traffic::BulkTransfer transfer(world.src(), world.dst(), bt);

  world.sim().run_until(sim::Time::seconds(p.timeout_s));
  return transfer.result();
}

FairnessResult run_fairness(const FairnessParams& p) {
  net::DumbbellConfig topo;
  topo.pairs = p.connections;
  topo.bottleneck_queue = p.queue;
  if (p.unequal_delay) {
    // Double the path propagation for the second half of the pairs.
    topo.extra_delay_second_half = topo.bottleneck_delay;
  }
  tcp::TcpConfig tcp_cfg;
  DumbbellWorld world(topo, tcp_cfg, p.seed);

  std::vector<std::unique_ptr<traffic::BulkTransfer>> transfers;
  rng::Stream jitter(rng::derive_seed(p.seed, "fairness-start"));
  for (int i = 0; i < p.connections; ++i) {
    traffic::BulkTransfer::Config bt;
    bt.bytes = p.bytes_each;
    bt.port = static_cast<PortNum>(5001 + i);
    use_algo(bt, p.algo, tcp_cfg);
    if (i == 0) bt.observer = p.observer;
    // Small start jitter so connections do not move in lockstep.
    bt.start_delay = sim::Time::seconds(jitter.uniform(0.0, 0.5));
    transfers.push_back(std::make_unique<traffic::BulkTransfer>(
        world.left(i), world.right(i), bt));
  }

  world.sim().run_until(sim::Time::seconds(p.timeout_s));

  FairnessResult r;
  r.all_completed = true;
  for (const auto& t : transfers) {
    r.throughput_kBps.push_back(t->result().throughput_Bps() / 1024.0);
    r.coarse_timeouts += t->result().sender_stats.coarse_timeouts;
    r.bytes_retransmitted += t->result().sender_stats.bytes_retransmitted;
    r.all_completed = r.all_completed && t->done();
  }
  r.jain = stats::jain_fairness(r.throughput_kBps);
  return r;
}

std::vector<OneOnOneResult> run_one_on_one_sweep(
    const std::vector<OneOnOneParams>& cells, int threads) {
  return ParallelRunner(threads).map(
      cells.size(), [&](int i) { return run_one_on_one(cells[static_cast<std::size_t>(i)]); });
}

std::vector<BackgroundResult> run_background_sweep(
    const std::vector<BackgroundParams>& cells, int threads) {
  return ParallelRunner(threads).map(
      cells.size(), [&](int i) { return run_background(cells[static_cast<std::size_t>(i)]); });
}

std::vector<traffic::TransferResult> run_wan_sweep(
    const std::vector<WanParams>& cells, int threads) {
  return ParallelRunner(threads).map(
      cells.size(), [&](int i) { return run_wan(cells[static_cast<std::size_t>(i)]); });
}

std::vector<FairnessResult> run_fairness_sweep(
    const std::vector<FairnessParams>& cells, int threads) {
  return ParallelRunner(threads).map(
      cells.size(), [&](int i) { return run_fairness(cells[static_cast<std::size_t>(i)]); });
}

}  // namespace vegas::exp
