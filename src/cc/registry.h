// Self-registering module registry: name → CongOps (tcp/cong_ops.h).
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

#include "tcp/cong_ops.h"
#include "tcp/stack.h"

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

/// Connection factory for a registered module; ensure()-fails on an
/// unknown name (validate user input with find() first).
tcp::SenderFactory make_factory(std::string_view name);

/// One sender running the named module; ensure()-fails on unknown names.
std::unique_ptr<tcp::TcpSender> make_sender(std::string_view name,
                                            const tcp::TcpConfig& cfg);

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
