// cc registry tests: name round-trips, duplicate rejection, and the
// bit-identity gate — every ported module must reproduce the trace
// digests captured from the pre-port subclass engines, byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <ostream>
#include <set>
#include <string>

#include "cc/diag.h"
#include "cc/registry.h"
#include "check/determinism.h"
#include "exp/world.h"
#include "net/loss.h"
#include "trace/conn_tracer.h"
#include "traffic/bulk.h"

namespace vegas::cc {
namespace {

using namespace sim::literals;
using tcp::CongOps;

// ------------------------------------------------------------ round-trip

TEST(CcRegistryTest, EveryBuiltinRoundTrips) {
  const char* kBuiltins[] = {"reno",  "tahoe",      "newreno",  "vegas",
                             "dual",  "card",       "tris",     "cubic",
                             "yeah",  "relentless", "new-aimd"};
  for (const char* name : kBuiltins) {
    const CongOps* ops = find(name);
    ASSERT_NE(ops, nullptr) << name;
    EXPECT_EQ(std::string_view(ops->name), name);
    EXPECT_NE(ops->label, nullptr);
  }
}

TEST(CcRegistryTest, LookupIsCaseInsensitiveOverNameAltAndLabel) {
  EXPECT_EQ(find("VEGAS"), find("vegas"));
  EXPECT_EQ(find("Reno"), find("reno"));
  EXPECT_EQ(find("NewReno"), find("newreno"));  // display label
  EXPECT_EQ(find("tri-s"), find("tris"));       // alternate spelling
  EXPECT_EQ(find("Tri-S"), find("tris"));
  EXPECT_EQ(find("NewAIMD"), find("new-aimd"));
  EXPECT_EQ(find("bbr"), nullptr);
}

TEST(CcRegistryTest, ModulesAreSortedAndUnique) {
  const auto mods = modules();
  ASSERT_GE(mods.size(), 11u);
  std::set<std::string> names;
  for (std::size_t i = 0; i < mods.size(); ++i) {
    names.insert(mods[i]->name);
    if (i > 0) {
      EXPECT_LT(std::string(mods[i - 1]->name), mods[i]->name);
    }
  }
  EXPECT_EQ(names.size(), mods.size());
}

TEST(CcRegistryTest, ClosestSuggestsDidYouMean) {
  EXPECT_EQ(closest("vegsa"), "vegas");
  EXPECT_EQ(closest("cubci"), "cubic");
  EXPECT_EQ(closest("renoo"), "reno");
}

TEST(CcRegistryTest, DuplicateRegistrationDies) {
  static const CongOps dup{.name = "vegas", .label = "Imposter"};
  EXPECT_DEATH(register_ops(dup), "duplicate");
  static const CongOps anon{.name = "", .label = "Anon"};
  EXPECT_DEATH(register_ops(anon), "name");
}

TEST(CcRegistryTest, MakeSenderRunsTheModule) {
  tcp::TcpConfig cfg;
  for (const char* name : {"reno", "vegas", "cubic"}) {
    auto snd = make_sender(name, cfg);
    ASSERT_NE(snd, nullptr);
    EXPECT_EQ(&snd->ops(), find(name)) << name;
    EXPECT_EQ(snd->name(), snd->ops().label);
  }
}

TEST(CcRegistryTest, DefaultSenderRunsTheRegistryReno) {
  // One Reno: the engine's default table is the registry's `reno` module.
  const tcp::TcpSender snd(tcp::TcpConfig{});
  EXPECT_EQ(&snd.ops(), find("reno"));
  EXPECT_EQ(&snd.ops(), &tcp::kRenoOps);
  EXPECT_EQ(snd.name(), "Reno");
  EXPECT_EQ(&AlgoSpec::reno().ops(), &snd.ops());
}

TEST(CcRegistryTest, DiagnosticsAnswerOnlyForTheirOwnModule) {
  const tcp::TcpConfig cfg;
  for (const CongOps* m : modules()) {
    const tcp::TcpSender snd(cfg, *m);
    const std::string_view name = m->name;
    EXPECT_EQ(vegas_diag(snd).has_value(), name == "vegas") << name;
    EXPECT_EQ(newreno_partial_retransmits(snd).has_value(), name == "newreno")
        << name;
  }
  const tcp::TcpSender reno(cfg);
  EXPECT_FALSE(vegas_diag(reno).has_value());
  EXPECT_FALSE(newreno_partial_retransmits(reno).has_value());
  EXPECT_EQ(newreno_partial_retransmits(*make_sender("newreno", cfg))
                .value_or(~0ull),
            0u);
  const std::optional<VegasDiag> d = vegas_diag(*make_sender("vegas", cfg));
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->has_base_rtt);
  EXPECT_EQ(d->cam_samples, 0u);
}

TEST(CcRegistryTest, VegasFactoryAppliesGammaOverride) {
  AlgoSpec spec = AlgoSpec::vegas(1, 3);
  spec.gamma = 2.0;
  spec.fine_decrease = 0.5;
  tcp::TcpConfig cfg;
  spec.apply(cfg);
  const tcp::TcpSender snd(cfg, spec.ops());
  EXPECT_EQ(&snd.ops(), find("vegas"));
  EXPECT_DOUBLE_EQ(snd.config().vegas_alpha, 1.0);
  EXPECT_DOUBLE_EQ(snd.config().vegas_beta, 3.0);
  EXPECT_DOUBLE_EQ(snd.config().vegas_gamma, 2.0);
  EXPECT_DOUBLE_EQ(snd.config().vegas_fine_decrease, 0.5);

  // Only the vegas module reads the thresholds: any other spec leaves
  // the config as it was, whatever its own fields say.
  for (const AlgoSpec& other : {AlgoSpec::reno(), AlgoSpec::named("cubic")}) {
    tcp::TcpConfig untouched;
    untouched.vegas_gamma = 3.0;
    other.apply(untouched);
    EXPECT_DOUBLE_EQ(untouched.vegas_alpha, tcp::TcpConfig{}.vegas_alpha);
    EXPECT_DOUBLE_EQ(untouched.vegas_beta, tcp::TcpConfig{}.vegas_beta);
    EXPECT_DOUBLE_EQ(untouched.vegas_gamma, 3.0);
    EXPECT_DOUBLE_EQ(untouched.vegas_fine_decrease,
                     tcp::TcpConfig{}.vegas_fine_decrease);
  }
}

// ---------------------------------------------------- bit-identity gate
//
// Digests captured from the pre-port subclass engines (VegasSender and
// friends) on four scenarios each; the vtable port must reproduce every
// one exactly.  A mismatch means the port changed protocol behaviour.

struct Pin {
  const char* name;
  int scenario;
  std::uint64_t digest;
};

// gtest names each case by printing its parameter; without this it dumps
// the raw bytes, which start with the address of `name` and so move
// whenever anything in the binary is relinked.
void PrintTo(const Pin& pin, std::ostream* os) {
  *os << pin.name << " scenario " << pin.scenario;
}

constexpr Pin kPins[] = {
    {"reno", 0, 0xd788cc3e2220ce57ULL}, {"reno", 1, 0xfdb453d5a4dc33b2ULL},
    {"reno", 2, 0x9e4628adfea0a140ULL}, {"reno", 3, 0xe8d280d5a724cc77ULL},
    {"tahoe", 0, 0x93d36d71a2bdf24fULL}, {"tahoe", 1, 0x68ef4b1fbf53a351ULL},
    {"tahoe", 2, 0xc868e12dbff4ac8bULL}, {"tahoe", 3, 0x51c8ad1ab262bb66ULL},
    {"newreno", 0, 0xfd20fe093c8a174cULL}, {"newreno", 1, 0x98aae958af794865ULL},
    {"newreno", 2, 0x589e6c49ad53aed2ULL}, {"newreno", 3, 0x3ce2bb1763fea60fULL},
    {"vegas", 0, 0x9d595d4a2f76a2b5ULL}, {"vegas", 1, 0x97ac438b67e7daecULL},
    {"vegas", 2, 0x7ee314b535014155ULL}, {"vegas", 3, 0x5289e690439ef5f1ULL},
    {"dual", 0, 0x3ccd2a31d45c128cULL}, {"dual", 1, 0xed4593556ab5155cULL},
    {"dual", 2, 0x63cd114e35d55992ULL}, {"dual", 3, 0x4c696fed2505f826ULL},
    {"card", 0, 0x222641aa3e3fe023ULL}, {"card", 1, 0xd75d26d94123f229ULL},
    {"card", 2, 0x5e9e23d4b555d542ULL}, {"card", 3, 0xf5bf16cc223b3b7fULL},
    {"tris", 0, 0x9f2d7c73413ad61cULL}, {"tris", 1, 0xe89a77626b67646aULL},
    {"tris", 2, 0x48ddd85646e9fd69ULL}, {"tris", 3, 0x0c7140ac208efd32ULL},
};

std::uint64_t run_digest(const std::string& name, int scenario) {
  tcp::TcpConfig tcp_cfg;
  ByteCount bytes = 300_KB;
  double loss = 0.0;
  std::size_t queue = 10;
  switch (scenario) {
    case 0:  // clean dumbbell
      break;
    case 1:  // lossy
      loss = 0.05;
      queue = 8;
      break;
    case 2:  // lossy + SACK
      loss = 0.05;
      queue = 8;
      tcp_cfg.sack_enabled = true;
      break;
    case 3:  // paced slow start + bandwidth check
      tcp_cfg.vegas_paced_slow_start = true;
      tcp_cfg.vegas_ss_bandwidth_check = true;
      bytes = 200_KB;
      break;
  }
  net::DumbbellConfig cfg;
  cfg.pairs = 1;
  cfg.bottleneck_queue = queue;
  exp::DumbbellWorld world(cfg, tcp_cfg, 2);
  if (loss > 0) {
    world.topo().bottleneck_fwd->set_loss_model(
        std::make_unique<net::BernoulliLoss>(loss, 55));
  }
  trace::ConnTracer tracer;
  traffic::BulkTransfer::Config bt;
  bt.bytes = bytes;
  bt.port = 5001;
  bt.cc = find(name);
  bt.observer = &tracer;
  traffic::BulkTransfer t(world.left(0), world.right(0), bt);
  world.sim().run_until(sim::Time::seconds(600));
  EXPECT_TRUE(t.done()) << name << " scenario " << scenario;
  return check::trace_digest(tracer.buffer());
}

class PortDigestTest
    : public ::testing::TestWithParam<Pin> {};

TEST_P(PortDigestTest, MatchesPrePortCapture) {
  const Pin& pin = GetParam();
  EXPECT_EQ(run_digest(pin.name, pin.scenario), pin.digest)
      << pin.name << " scenario " << pin.scenario
      << ": the vtable port diverged from the subclass engine";
}

INSTANTIATE_TEST_SUITE_P(AllSevenTimesFour, PortDigestTest,
                         ::testing::ValuesIn(kPins),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           n[0] = static_cast<char>(std::toupper(n[0]));
                           return n + "S" +
                                  std::to_string(info.param.scenario);
                         });

}  // namespace
}  // namespace vegas::cc
