// The options record: one row per trajectory-shaping option. A run
// renders its record once; snapshots carry it in their OPTS section,
// resume_round refuses a snapshot whose record differs, and the run
// manifest lists it as opt.<name> entries.
#include "algo/options.hpp"

#include <charconv>
#include <concepts>
#include <iterator>
#include <type_traits>

#include "algo/fault_config.hpp"
#include "core/check.hpp"

namespace hm::algo {

namespace {

std::string canonical(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}
std::string canonical(bool v) { return v ? "true" : "false"; }
std::string canonical(std::integral auto v) { return std::to_string(v); }
template <typename E>
  requires std::is_enum_v<E>
std::string canonical(E v) {
  return to_string(v);
}
std::string canonical(const std::vector<index_t>& v) {
  std::string s = "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(v[i]);
  }
  return s + "}";
}

using Tree = std::vector<index_t>;
struct Row {
  const char* name;
  std::string (*render)(const TrainOptions&, const Tree&);
};

// A row named by its member path, rendering that member.
#define HM_ROW(field) \
  Row { #field, [](const auto& o, const auto&) { return canonical(o.field); } }

// Algorithm 1's parameters come first, so a refused resume names them
// before the knobs around them.
const Row kRows[] = {
    HM_ROW(seed),
    {"tree", [](const TrainOptions&, const Tree& t) { return canonical(t); }},
    {"taus",
     [](const TrainOptions& o, const Tree& t) {
       return canonical(resolve_taus(o, static_cast<index_t>(t.size())));
     }},
    HM_ROW(eta_w), HM_ROW(eta_p), HM_ROW(sampled_edges), HM_ROW(p_set.lo),
    HM_ROW(p_set.hi), HM_ROW(rounds), HM_ROW(batch_size),
    HM_ROW(sampled_clients), HM_ROW(w_radius), HM_ROW(weight_decay),
    HM_ROW(prox_mu), HM_ROW(eval_every), HM_ROW(loss_est_batch),
    HM_ROW(quantize_bits), HM_ROW(use_checkpoint), HM_ROW(q),
    HM_ROW(fault.enabled), HM_ROW(fault.client_dropout_prob),
    HM_ROW(fault.straggler_prob), HM_ROW(fault.straggler_mult_mean),
    HM_ROW(fault.edge_loss_prob), HM_ROW(fault.max_retries),
    HM_ROW(fault.client_crash_round), HM_ROW(fault.edge_crash_round),
    HM_ROW(fault.attack), HM_ROW(fault.attack_prob),
    HM_ROW(fault.attack_scale), HM_ROW(fault.churn_prob),
    HM_ROW(fault.churn_dwell), HM_ROW(fault.seed),
    HM_ROW(on_fault), HM_ROW(stale_decay), HM_ROW(aggregate),
    HM_ROW(trim_frac),
};

#undef HM_ROW

// TrainOptions fields without a row of their own, each with the reason.
// detlint's option-not-in-record rule holds every field of TrainOptions,
// FaultSpec and SimplexSet to a row above or an entry here.
[[maybe_unused]] constexpr std::pair<const char*, const char*> kNoRow[] = {
    {"tau1", "resolved into the taus row"},
    {"tau2", "resolved into the taus row"},
    {"snapshot", "where snapshots go, not what they hold"},
    {"resume_from", "names the store the record is checked against"},
    {"transport", "every backend is bit-identical to the in-process oracle"},
};

}  // namespace

std::vector<index_t> resolve_taus(const TrainOptions& opts, index_t depth) {
  std::vector<index_t> taus = opts.taus;
  if (taus.empty()) {
    taus = depth == 1 ? std::vector<index_t>{opts.tau1}
                      : std::vector<index_t>{opts.tau2, opts.tau1};
  } else {
    const TrainOptions defaults;
    HM_CHECK_MSG(opts.tau1 == defaults.tau1 && opts.tau2 == defaults.tau2,
                 "set either taus or tau1/tau2, not both (tau1 = "
                     << opts.tau1 << ", tau2 = " << opts.tau2 << ")");
  }
  HM_CHECK_MSG(static_cast<index_t>(taus.size()) == depth,
               "need one tau per tree level: the tree has depth "
                   << depth << ", taus has " << taus.size() << " entries");
  return taus;
}

OptionsRecord options_record(const TrainOptions& opts,
                             const std::vector<index_t>& tree) {
  OptionsRecord record;
  record.reserve(std::size(kRows));
  for (const Row& row : kRows) {
    record.emplace_back(row.name, row.render(opts, tree));
  }
  return record;
}

}  // namespace hm::algo
