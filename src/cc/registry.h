// Self-registering module registry: name → CongOps (tcp/cong_ops.h),
// and AlgoSpec, the one way a caller names an algorithm and its knobs.
//
// A module .cc file defines its static CongOps table and registers it at
// static-initialization time with CC_REGISTER_MODULE.  Lookup is
// case-insensitive over each module's canonical name, alternate spelling
// and display label; closest() provides the did-you-mean hint the
// scenario parser and CLI surface for typos.
//
// Static-library caveat: a TU whose only export is a registrar object is
// dropped by the archive linker.  CC_REGISTER_MODULE therefore also
// defines an external-linkage anchor function per module, and
// registry.cc references every builtin anchor, forcing extraction.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tcp/config.h"
#include "tcp/cong_ops.h"

namespace vegas::cc {

/// Registers `ops` (must have static storage duration).  ensure()-fails
/// on a duplicate or empty name — registration is a programming error
/// surface, not user input.
void register_ops(const tcp::CongOps& ops);

/// Case-insensitive lookup over name/alt/label; nullptr if unknown.
const tcp::CongOps* find(std::string_view name);

/// All registered modules, sorted by canonical name.
std::vector<const tcp::CongOps*> modules();

/// Canonical name of the registered module closest to `name` by edit
/// distance (did-you-mean); empty only if the registry is empty.
std::string closest(std::string_view name);

/// One sender running the named module; ensure()-fails on unknown names.
std::unique_ptr<tcp::TcpSender> make_sender(std::string_view name,
                                            const tcp::TcpConfig& cfg);

/// Algorithm choice with Vegas thresholds (paper's Vegas-1,3 / Vegas-2,4)
/// plus the secondary Vegas knobs the ablation benches sweep.  `name` is
/// a registry key — any registered module, not just the paper-era seven.
/// A connection takes the module as `ops()` and the knobs through its
/// TcpConfig, after `apply()`.
struct AlgoSpec {
  std::string name = "reno";
  double alpha = 2.0;
  double beta = 4.0;
  double gamma = 1.0;          // slow-start exit threshold (§3.3)
  double fine_decrease = 0.75; // window cut on fine-detected loss (§3.1)

  static AlgoSpec reno() { return {"reno", 0, 0}; }
  static AlgoSpec tahoe() { return {"tahoe", 0, 0}; }
  static AlgoSpec vegas(double a = 2, double b = 4) {
    return {"vegas", a, b};
  }
  static AlgoSpec named(std::string module) {
    AlgoSpec spec;
    spec.name = std::move(module);
    return spec;
  }

  /// The module's table; ensure()-fails on an unknown name.
  const tcp::CongOps& ops() const;
  /// Writes α/β/γ/fine_decrease into `cfg` for a Vegas spec (only the
  /// vegas module reads them); any other spec leaves `cfg` unchanged.
  void apply(tcp::TcpConfig& cfg) const;
  std::string label() const;
};

namespace detail {
struct Registrar {
  explicit Registrar(const tcp::CongOps& ops) { register_ops(ops); }
};
}  // namespace detail

/// Registers `ops` under an external-linkage anchor named after `token`
/// (a valid identifier).  Expand at vegas::cc namespace scope.
#define CC_REGISTER_MODULE(token, ops)                                   \
  void cc_module_anchor_##token() {}                                     \
  namespace {                                                            \
  const ::vegas::cc::detail::Registrar cc_registrar_##token{ops};        \
  }

}  // namespace vegas::cc
