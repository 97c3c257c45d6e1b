#include "core/factory.h"

#include "cc/registry.h"

namespace vegas::core {

std::string_view registry_name(Algorithm algo) {
  switch (algo) {
    case Algorithm::kReno: return "reno";
    case Algorithm::kTahoe: return "tahoe";
    case Algorithm::kNewReno: return "newreno";
    case Algorithm::kVegas: return "vegas";
    case Algorithm::kDual: return "dual";
    case Algorithm::kCard: return "card";
    case Algorithm::kTris: return "tris";
  }
  return "reno";
}

tcp::SenderFactory make_sender_factory(Algorithm algo) {
  return cc::make_factory(registry_name(algo));
}

tcp::SenderFactory vegas_factory(double alpha, double beta,
                                 std::optional<double> gamma) {
  // The paper's Vegas-1,3 / Vegas-2,4 variants are built here: α/β (and
  // optionally γ) pinned over whatever TcpConfig a connection uses.
  return [alpha, beta, gamma](const tcp::TcpConfig& cfg) {
    tcp::TcpConfig tuned = cfg;
    tuned.vegas_alpha = alpha;
    tuned.vegas_beta = beta;
    if (gamma.has_value()) tuned.vegas_gamma = *gamma;
    return cc::make_sender("vegas", tuned);
  };
}

std::string to_string(Algorithm algo) {
  return std::string(cc::find(registry_name(algo))->label);
}

std::optional<Algorithm> parse_algorithm(std::string_view name) {
  const tcp::CongOps* ops = cc::find(name);
  if (ops == nullptr) return std::nullopt;
  const std::string_view key = ops->name;
  if (key == "reno") return Algorithm::kReno;
  if (key == "tahoe") return Algorithm::kTahoe;
  if (key == "newreno") return Algorithm::kNewReno;
  if (key == "vegas") return Algorithm::kVegas;
  if (key == "dual") return Algorithm::kDual;
  if (key == "card") return Algorithm::kCard;
  if (key == "tris") return Algorithm::kTris;
  return std::nullopt;  // modern modules carry no legacy enum value
}

}  // namespace vegas::core
