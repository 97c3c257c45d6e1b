#include "sweep/key.h"

#include <cstdlib>

#include "cc/registry.h"
#include "common/hash.h"
#include "scenario/parser.h"
#include "scenario/sweep.h"

namespace vegas::sweep {

std::string cc_fingerprint() {
  common::Hash128 h;
  h.mix("cc-registry");
  for (const tcp::CongOps* m : cc::modules()) {
    h.mix(m->name);
    h.mix(m->label != nullptr ? m->label : "");
    h.mix(m->alt != nullptr ? m->alt : "");
    // State layout is the cheapest observable proxy for "the module
    // changed": growing or shrinking a module's private struct almost
    // always accompanies a behaviour change.  kKeyFormatVersion covers
    // the rest (bump it for behaviour-only changes).
    h.mix_u64(m->priv_size);
    h.mix_u64(m->priv_align);
  }
  return h.hex();
}

KeyContext default_key_context(int shards) {
  KeyContext ctx;
  ctx.binary_salt = kKeyFormatVersion;
  if (const char* salt = std::getenv("VEGAS_SWEEP_SALT")) {
    if (salt[0] != '\0') {
      ctx.binary_salt += ':';
      ctx.binary_salt += salt;
    }
  }
  ctx.cc_fingerprint = cc_fingerprint();
  ctx.shards = shards;
  return ctx;
}

std::string canonical_cell_text(const scenario::Scenario& sc,
                                std::size_t index) {
  return scenario::to_text(
      scenario::cell_document(sc.doc(), sc.grid(), index));
}

std::string cell_key(const scenario::Scenario& sc, std::size_t index,
                     const KeyContext& ctx) {
  common::Hash128 h;
  h.mix("cell");
  h.mix(ctx.binary_salt);
  h.mix(ctx.cc_fingerprint);
  h.mix_u64(static_cast<std::uint64_t>(ctx.shards));
  h.mix(canonical_cell_text(sc, index));
  return h.hex();
}

std::string grid_key(const std::vector<std::string>& cell_keys,
                     const KeyContext& ctx) {
  common::Hash128 h;
  h.mix("grid");
  h.mix(ctx.binary_salt);
  h.mix(ctx.cc_fingerprint);
  h.mix_u64(static_cast<std::uint64_t>(ctx.shards));
  h.mix_u64(cell_keys.size());
  for (const std::string& k : cell_keys) h.mix(k);
  return h.hex();
}

}  // namespace vegas::sweep
