#include "cc/registry.h"

#include <algorithm>
#include <cctype>

#include "common/ensure.h"

namespace vegas::cc {

using tcp::CongOps;

// Anchors defined by CC_REGISTER_MODULE in each builtin module TU; the
// calls below force the archive linker to pull those TUs in.
void cc_module_anchor_reno();
void cc_module_anchor_tahoe();
void cc_module_anchor_newreno();
void cc_module_anchor_vegas();
void cc_module_anchor_dual();
void cc_module_anchor_card();
void cc_module_anchor_tris();
void cc_module_anchor_cubic();
void cc_module_anchor_yeah();
void cc_module_anchor_relentless();
void cc_module_anchor_new_aimd();

namespace {

void link_builtins() {
  cc_module_anchor_reno();
  cc_module_anchor_tahoe();
  cc_module_anchor_newreno();
  cc_module_anchor_vegas();
  cc_module_anchor_dual();
  cc_module_anchor_card();
  cc_module_anchor_tris();
  cc_module_anchor_cubic();
  cc_module_anchor_yeah();
  cc_module_anchor_relentless();
  cc_module_anchor_new_aimd();
}

char lower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = lower(c);
  return out;
}

// Copy-free: scenario setup resolves every flow's module through find().
bool ieq(std::string_view a, const char* b) {
  if (b == nullptr) return false;
  const std::string_view bv(b);
  return a.size() == bv.size() &&
         std::equal(a.begin(), a.end(), bv.begin(),
                    [](char x, char y) { return lower(x) == lower(y); });
}

// Write-once at static initialization (module registrars), read-only
// afterwards; per-run contents are independent of any execution order.
std::vector<const CongOps*>& table() {
  static std::vector<const CongOps*> mods;  // lint: mutable-static-ok
  return mods;
}

/// Classic dynamic-programming edit distance, for did-you-mean hints
/// over a dozen short names (cold path: parse errors and CLI typos).
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j - 1] + 1, row[j] + 1, subst});
    }
  }
  return row[b.size()];
}

}  // namespace

void register_ops(const CongOps& ops) {
  vegas::ensure(ops.name != nullptr && ops.name[0] != '\0',
                "CongOps registration requires a name");
  vegas::ensure(ops.label != nullptr && ops.label[0] != '\0',
                "CongOps registration requires a label");
  for (const CongOps* m : table()) {
    vegas::ensure(!ieq(ops.name, m->name) && !ieq(ops.name, m->alt),
                  "duplicate congestion-control module registration");
    if (ops.alt != nullptr) {
      vegas::ensure(!ieq(ops.alt, m->name) && !ieq(ops.alt, m->alt),
                    "duplicate congestion-control module registration");
    }
  }
  table().push_back(&ops);
}

const CongOps* find(std::string_view name) {
  link_builtins();
  for (const CongOps* m : table()) {
    if (ieq(name, m->name) || ieq(name, m->alt) || ieq(name, m->label)) {
      return m;
    }
  }
  return nullptr;
}

std::vector<const CongOps*> modules() {
  link_builtins();
  std::vector<const CongOps*> mods = table();
  std::sort(mods.begin(), mods.end(), [](const CongOps* a, const CongOps* b) {
    return std::string_view(a->name) < std::string_view(b->name);
  });
  return mods;
}

std::string closest(std::string_view name) {
  const std::string want = lower(name);
  std::string best;
  std::size_t best_dist = 0;
  for (const CongOps* m : modules()) {  // sorted: ties go lexicographic
    for (const char* cand : {m->name, m->alt, m->label}) {
      if (cand == nullptr) continue;
      const std::size_t d = edit_distance(want, lower(cand));
      if (best.empty() || d < best_dist) {
        best = m->name;
        best_dist = d;
      }
    }
  }
  return best;
}

namespace {

const CongOps& must_find(std::string_view name) {
  const CongOps* ops = find(name);
  vegas::ensure(ops != nullptr, "unknown congestion-control module");
  return *ops;
}

}  // namespace

std::unique_ptr<tcp::TcpSender> make_sender(std::string_view name,
                                            const tcp::TcpConfig& cfg) {
  return std::make_unique<tcp::TcpSender>(cfg, must_find(name));
}

const CongOps& AlgoSpec::ops() const { return must_find(name); }

void AlgoSpec::apply(tcp::TcpConfig& cfg) const {
  if (name != "vegas") return;
  cfg.vegas_alpha = alpha;
  cfg.vegas_beta = beta;
  cfg.vegas_gamma = gamma;
  cfg.vegas_fine_decrease = fine_decrease;
}

std::string AlgoSpec::label() const {
  if (name == "vegas") {
    return "Vegas-" + std::to_string(static_cast<int>(alpha)) + "," +
           std::to_string(static_cast<int>(beta));
  }
  const CongOps* ops = find(name);
  return ops != nullptr ? ops->label : name;
}

}  // namespace vegas::cc
