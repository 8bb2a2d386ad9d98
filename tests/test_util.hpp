// Shared fixtures and helpers for the algorithm-level tests: small
// federated tasks with controlled heterogeneity that train in well under
// a second, the bit-exact fingerprint/trajectory-comparison helpers used
// by the fault, snapshot, and scenario matrices, the trainer table whose
// rows the determinism matrix pins (test_golden) and whose trace schema
// test_obs checks, the scenario enumeration for the adversarial matrix,
// and the snapshot whose bytes the codec tests pin.
#pragma once

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/drfa.hpp"
#include "algo/fedavg.hpp"
#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "algo/options.hpp"
#include "algo/qffl.hpp"
#include "data/federated.hpp"
#include "data/generators.hpp"
#include "io/snapshot.hpp"
#include "nn/mlp.hpp"
#include "nn/softmax_regression.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/fault.hpp"
#include "sim/multi_topology.hpp"
#include "sim/topology.hpp"

namespace hm::testing_util {

/// The pool the trainers under test run on: one per test binary, sized
/// to the host. Trajectories do not depend on its size; the determinism
/// matrix (test_golden) runs its cells on pools of 1 and 4 threads.
inline parallel::ThreadPool& test_pool() {
  static parallel::ThreadPool pool;
  return pool;
}

/// The snapshot whose serialized bytes (and frame) the codec tests pin to
/// the values the original bytewise codec produced: one section of every
/// kind, with w[i] = 0.25 i - 3 for i < 1000.
inline io::Snapshot pinned_codec_snapshot() {
  std::vector<scalar_t> w(1000);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 0.25 * static_cast<scalar_t>(i) - 3.0;
  }
  io::Snapshot s;
  s.put_u64(1, 9);
  s.put_f64_vec(2, w);
  s.put_f64_vec_list(3, {w, {}});
  s.put_i64_vec(4, {-1, 0, 7});
  s.put_bytes(5, {1, 2, 3});
  return s;
}

/// Heterogeneous task: `num_edges` edges, one class each (paper §6.1
/// protocol), low dimension for speed.
inline data::FederatedDataset heterogeneous_task(index_t num_edges = 4,
                                                 index_t clients_per_edge = 2,
                                                 seed_t seed = 77,
                                                 index_t samples = 1200,
                                                 scalar_t separation = 3.0) {
  data::GaussianSpec spec;
  spec.dim = 12;
  spec.num_classes = num_edges;
  spec.num_samples = samples;
  spec.separation = separation;
  // Classes (== edges) of unequal hardness and size: the regime where
  // minimax weighting matters (see DESIGN.md).
  spec.difficulty_spread = 0.5;
  spec.imbalance = 2.0;
  spec.seed = seed;
  const auto all = data::make_gaussian_classes(spec);
  rng::Xoshiro256 gen(seed + 1);
  const auto tt = data::split_train_test(all, 0.25, gen);
  return data::partition_one_class_per_edge(tt, num_edges, clients_per_edge,
                                            gen);
}

/// I.i.d. control task (every edge sees every class).
inline data::FederatedDataset iid_task(index_t num_edges = 4,
                                       index_t clients_per_edge = 2,
                                       seed_t seed = 88) {
  data::GaussianSpec spec;
  spec.dim = 12;
  spec.num_classes = 4;
  spec.num_samples = 1200;
  spec.separation = 3.0;
  spec.seed = seed;
  const auto all = data::make_gaussian_classes(spec);
  rng::Xoshiro256 gen(seed + 1);
  const auto tt = data::split_train_test(all, 0.25, gen);
  return data::partition_iid(tt, num_edges, clients_per_edge, gen);
}

/// The task of the depth-3 tree {4, 2, 2}: 4 areas x (2 mid nodes x 2
/// leaves).
inline const data::FederatedDataset& deep_task() {
  static const data::FederatedDataset fed = heterogeneous_task(4, 4);
  return fed;
}

/// `o` with the blocks per tree level given as `taus` in place of
/// tau1/tau2.
inline algo::TrainOptions with_taus(algo::TrainOptions o,
                                    std::vector<index_t> taus) {
  o.tau1 = 1;
  o.tau2 = 1;
  o.taus = std::move(taus);
  return o;
}

// ---------------------------------------------------------------------
// Bit-exact fingerprinting. Scalars are hashed through their bit
// patterns, so two fingerprints agree iff every value is bit-identical.

inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

inline std::uint64_t bits(scalar_t x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

inline std::uint64_t mix_vec(std::uint64_t h,
                             const std::vector<scalar_t>& v) {
  h = mix(h, v.size());
  for (const scalar_t x : v) h = mix(h, bits(x));
  return h;
}

/// Every counter of `c` in COMM-section order, extra_rtts as its bits.
/// `model_only` drops the fault delivery counters: an enabled
/// zero-probability plan legitimately meters deliveries the disabled
/// fast path never counts, while every model-visible quantity must stay
/// bit-identical.
inline std::vector<std::uint64_t> comm_counters(const sim::CommStats& c,
                                                bool model_only = false) {
  std::vector<std::uint64_t> out;
  sim::for_each_counter(c, [&](const char* link, const char*,
                               const auto& v) {
    if (model_only && link != nullptr) return;
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>, double>) {
      out.push_back(bits(v));
    } else {
      out.push_back(v);
    }
  });
  return out;
}

inline std::uint64_t mix_comm(std::uint64_t h, const sim::CommStats& c,
                              bool model_only = false) {
  for (const std::uint64_t v : comm_counters(c, model_only)) h = mix(h, v);
  return h;
}

inline std::uint64_t fingerprint_history(
    std::uint64_t h, const metrics::TrainingHistory& hist,
    bool model_only) {
  h = mix(h, hist.size());
  for (const auto& r : hist.records()) {
    h = mix(h, static_cast<std::uint64_t>(r.round));
    h = mix_comm(h, r.comm, model_only);
    h = mix_vec(h, r.edge_acc);
    h = mix(h, bits(r.summary.average));
    h = mix(h, bits(r.summary.worst));
    h = mix(h, bits(r.summary.best));
    h = mix(h, bits(r.summary.variance_pct2));
    h = mix(h, bits(r.global_loss));
  }
  return h;
}

inline std::uint64_t fingerprint(const algo::TrainResult& r,
                                 bool model_only) {
  std::uint64_t h = 0;
  h = mix_vec(h, r.w);
  h = mix_vec(h, r.p);
  h = mix_vec(h, r.w_avg);
  h = mix_vec(h, r.p_avg);
  h = mix_comm(h, r.comm, model_only);
  h = fingerprint_history(h, r.history, model_only);
  return h;
}

// ---------------------------------------------------------------------
// Trajectory byte-comparison (snapshot/scenario matrices).

/// Everything a run produces, reduced to exact-comparable form. `tsv` is
/// the full history dump, so a diverging run with a duplicated or
/// missing evaluation record fails with a readable diff.
struct RunOutput {
  std::vector<scalar_t> w;
  std::uint64_t fp = 0;  // p, averages, comm counters, history records
  std::string tsv;
  std::uint64_t unplanned_deaths = 0;
};

inline void expect_same_output(const RunOutput& a, const RunOutput& b,
                               const std::string& label) {
  ASSERT_EQ(a.w.size(), b.w.size()) << label;
  for (std::size_t i = 0; i < a.w.size(); ++i) {
    ASSERT_EQ(bits(a.w[i]), bits(b.w[i]))
        << label << ": w[" << i << "] diverged";
  }
  EXPECT_EQ(a.fp, b.fp) << label;
  EXPECT_EQ(a.tsv, b.tsv) << label;
}

inline RunOutput output_of(const algo::TrainResult& r) {
  RunOutput out;
  out.w = r.w;
  out.fp = fingerprint(r, /*model_only=*/false);
  out.unplanned_deaths = r.unplanned_deaths;
  std::ostringstream os;
  r.history.write_tsv(os, "run");
  out.tsv = os.str();
  return out;
}

// ---------------------------------------------------------------------
// Process hygiene of the socket backend.

inline bool no_children_remain() {
  int status = 0;
  const pid_t r = ::waitpid(-1, &status, WNOHANG);
  return r == -1 && errno == ECHILD;
}

inline int open_fd_count() {
  int n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

inline int thread_count() {
  int n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// A model that forwards everything to `inner`, but first calls
/// `on_step(shard)` in every sgd_step, from whichever thread or process
/// runs it: the failure-path tests throw or _exit from there.
class HookedModel final : public nn::Model {
 public:
  HookedModel(const nn::Model& inner,
              std::function<void(const data::Dataset&)> on_step)
      : inner_(inner), on_step_(std::move(on_step)) {}

  index_t num_params() const override { return inner_.num_params(); }
  index_t num_classes() const override { return inner_.num_classes(); }
  index_t input_dim() const override { return inner_.input_dim(); }
  bool is_convex() const override { return inner_.is_convex(); }
  std::unique_ptr<nn::Workspace> make_workspace() const override {
    return inner_.make_workspace();
  }
  void init_params(nn::VecView w, rng::Xoshiro256& gen) const override {
    inner_.init_params(w, gen);
  }
  scalar_t loss_and_grad(nn::ConstVecView w, const data::Dataset& d,
                         std::span<const index_t> batch, nn::VecView grad,
                         nn::Workspace& ws) const override {
    return inner_.loss_and_grad(w, d, batch, grad, ws);
  }
  scalar_t sgd_step(nn::VecView w, const data::Dataset& d,
                    std::span<const index_t> batch, const nn::SgdRule& rule,
                    nn::VecView grad_scratch,
                    nn::Workspace& ws) const override {
    on_step_(d);
    return inner_.sgd_step(w, d, batch, rule, grad_scratch, ws);
  }
  scalar_t loss(nn::ConstVecView w, const data::Dataset& d,
                std::span<const index_t> batch,
                nn::Workspace& ws) const override {
    return inner_.loss(w, d, batch, ws);
  }
  void predict(nn::ConstVecView w, const data::Dataset& d,
               std::span<const index_t> batch, std::span<index_t> out,
               nn::Workspace& ws) const override {
    inner_.predict(w, d, batch, out, ws);
  }
  void loss_many(std::span<const nn::LossJob> jobs,
                 std::span<scalar_t> losses, nn::Workspace& ws,
                 parallel::ThreadPool* pool) const override {
    inner_.loss_many(jobs, losses, ws, pool);
  }

 private:
  const nn::Model& inner_;
  std::function<void(const data::Dataset&)> on_step_;
};

/// Arms the tracer for its lifetime and always disarms on exit, so a
/// failing assertion can't leak an enabled tracer into later tests.
struct TraceSession {
  explicit TraceSession(std::size_t capacity) {
    obs::set_trace_capacity(capacity);
    obs::set_trace_enabled(true);
  }
  ~TraceSession() { obs::set_trace_enabled(false); }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
};

// ---------------------------------------------------------------------
// The trainer table: a short seeded run of every trainer, including the
// fault, stale-store, robust-combiner and checkpoint-ablation paths of
// both round loops.

inline algo::TrainOptions golden_opts() {
  algo::TrainOptions o;
  o.rounds = 3;
  o.tau1 = 2;
  o.tau2 = 2;
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eta_p = 0.02;
  o.eval_every = 1;  // a loss record every round
  o.seed = 5;
  return o;
}

/// `o` under a seeded fault plan: client dropout, lossy wide-area links
/// with a one-retry budget, stragglers, and area 1 crashing at round 1,
/// degraded by `policy` and combined by `agg`.
inline algo::TrainOptions faulty_opts(algo::TrainOptions o,
                                      algo::OnFault policy,
                                      algo::Aggregate agg) {
  o.fault.enabled = true;
  o.fault.client_dropout_prob = 0.25;
  o.fault.edge_loss_prob = 0.4;
  o.fault.max_retries = 1;
  o.fault.straggler_prob = 0.3;
  o.fault.edge_crash_round = {-1, 1};
  o.fault.seed = 11;
  o.on_fault = policy;
  o.aggregate = agg;
  return o;
}

/// The 4-area, 2-clients-per-area task the trainer-level matrices share.
inline const data::FederatedDataset& shared_task() {
  static const data::FederatedDataset fed = heterogeneous_task(4, 2);
  return fed;
}

/// One cell of the determinism matrix: the execution axes a trajectory
/// must not depend on (DESIGN.md §6). The default cell is a straight,
/// untraced in-proc run on test_pool().
struct Cell {
  parallel::ThreadPool* pool = nullptr;  // null: test_pool()
  net::TransportKind transport = net::TransportKind::kInproc;
  index_t workers = 0;     // transport lanes; 0 = the backend's default
  bool armed = false;      // tracer armed for the whole run
  std::string resume_dir;  // set: killed after round 1, resumed from here
};

/// `train(opts, pool)` under `cell`. A resume cell snapshots after every
/// round into a fresh `cell.resume_dir`, dies after round 1 and resumes
/// from the snapshot that round left.
template <typename Train>
algo::TrainResult run_in_cell(const Cell& cell, algo::TrainOptions o,
                              const Train& train) {
  parallel::ThreadPool& pool =
      cell.pool != nullptr ? *cell.pool : test_pool();
  o.transport.kind = cell.transport;
  o.transport.workers = cell.workers;
  std::optional<TraceSession> session;
  if (cell.armed) session.emplace(std::size_t{1} << 14);
  if (!cell.resume_dir.empty()) {
    std::filesystem::remove_all(cell.resume_dir);
    algo::TrainOptions first = o;
    first.snapshot.every_k_rounds = 1;
    first.snapshot.dir = cell.resume_dir;
    first.snapshot.crash_after_round = 1;
    EXPECT_THROW(train(first, pool), io::SimulatedCrash) << cell.resume_dir;
    o.resume_from = cell.resume_dir;
  }
  return train(o, pool);
}

using TwoLayerTrain = algo::TrainResult (*)(const nn::Model&,
                                            const data::FederatedDataset&,
                                            const algo::TrainOptions&,
                                            parallel::ThreadPool&);
using TreeTrain = algo::TrainResult (*)(const nn::Model&,
                                        const data::FederatedDataset&,
                                        const sim::MultiTopology&,
                                        const algo::TrainOptions&,
                                        parallel::ThreadPool&);

/// Softmax regression when `hidden` is empty, else an MLP with those
/// hidden widths.
inline std::unique_ptr<nn::Model> make_model(
    const data::FederatedDataset& fed, std::vector<index_t> hidden) {
  if (hidden.empty()) {
    return std::make_unique<nn::SoftmaxRegression>(fed.dim(),
                                                   fed.num_classes());
  }
  hidden.insert(hidden.begin(), fed.dim());
  hidden.push_back(fed.num_classes());
  return std::make_unique<nn::Mlp>(std::move(hidden));
}

/// One trainer table row. `algo` names its trace output: one
/// `<algo>.round` span and one `algo.<algo>.rounds` count per round.
/// Only `hierarchical` rows run over every transport; the two-layer
/// trainers run in-proc only.
struct Runner {
  std::string name;
  const char* algo;
  bool hierarchical;
  std::function<algo::TrainResult(const Cell&)> run;
};

/// A two-layer trainer on shared_task().
inline Runner two_layer_row(std::string name, const char* algo,
                            TwoLayerTrain train, algo::TrainOptions o,
                            std::vector<index_t> hidden = {}) {
  return {std::move(name), algo, false, [=](const Cell& cell) {
            const auto& fed = shared_task();
            const auto model = make_model(fed, hidden);
            return run_in_cell(cell, o, [&](const algo::TrainOptions& oo,
                                            parallel::ThreadPool& pool) {
              return train(*model, fed, oo, pool);
            });
          }};
}

/// A hierarchical trainer: on shared_task()'s client-edge-cloud tree,
/// or with `deep` on deep_task()'s tree {4, 2, 2}.
inline Runner tree_row(std::string name, const char* algo, TreeTrain train,
                       algo::TrainOptions o, bool deep = false,
                       std::vector<index_t> hidden = {}) {
  return {std::move(name), algo, true, [=](const Cell& cell) {
            const auto& fed = deep ? deep_task() : shared_task();
            const sim::MultiTopology topo(
                deep ? std::vector<index_t>{4, 2, 2}
                     : std::vector<index_t>{fed.num_edges(),
                                            fed.clients_per_edge});
            const auto model = make_model(fed, hidden);
            return run_in_cell(cell, o, [&](const algo::TrainOptions& oo,
                                            parallel::ThreadPool& pool) {
              return train(*model, fed, topo, oo, pool);
            });
          }};
}

/// Every trainer, in the order of test_golden's pinned table.
inline std::vector<Runner> trainer_table() {
  using algo::Aggregate;
  using algo::OnFault;
  const algo::TrainOptions base = golden_opts();
  std::vector<Runner> out;
  out.push_back(two_layer_row("fedavg", "fedavg", algo::train_fedavg, base));
  out.push_back(
      tree_row("hierfavg", "hierfavg", algo::train_hierfavg, base));
  out.push_back(two_layer_row("drfa", "drfa", algo::train_drfa, base));
  // Stochastic-AFL is DRFA on a one-step schedule and reports as drfa.
  out.push_back(two_layer_row("stochastic_afl", "drfa",
                              algo::train_stochastic_afl, base));
  {
    algo::TrainOptions o = base;
    o.q = 2;
    out.push_back(two_layer_row("qffl", "qffl", algo::train_qffl, o));
  }
  out.push_back(
      tree_row("hierminimax", "hierminimax", algo::train_hierminimax, base));
  out.push_back(tree_row("hierminimax_multi", "hierminimax",
                         algo::train_hierminimax, with_taus(base, {2, 2})));
  out.push_back(tree_row("hierfavg_multi", "hierfavg", algo::train_hierfavg,
                         with_taus(base, {2, 2})));
  // Depth 3 pins the L-level stream rule beyond the flat derivation:
  // interior blocks, innermost-block indices and checkpoint averaging up
  // two levels.
  out.push_back(tree_row("hierminimax_multi_d3", "hierminimax",
                         algo::train_hierminimax,
                         with_taus(base, {2, 2, 2}), /*deep=*/true));
  // Depth 3 under partial participation, 8-bit uplinks and weight decay.
  {
    algo::TrainOptions o = with_taus(base, {2, 2, 2});
    o.quantize_bits = 8;
    o.weight_decay = 0.01;
    o.sampled_edges = 3;
    out.push_back(tree_row("hierminimax_d3_quant", "hierminimax",
                           algo::train_hierminimax, o, /*deep=*/true));
  }
  // MLP rows: every hidden width is at least 4x the batch, so the
  // batch-sized forward GEMMs take gemm_nt's transposed (small-side
  // packed) path. The HierMinimax row runs decayed, projected steps; the
  // FedAvg row adds a proximal term.
  {
    algo::TrainOptions o = base;
    o.weight_decay = 0.05;
    o.w_radius = 9.0;
    out.push_back(tree_row("hierminimax_mlp", "hierminimax",
                           algo::train_hierminimax, o, false, {32, 16}));
  }
  {
    algo::TrainOptions o = base;
    o.batch_size = 8;
    o.prox_mu = 0.5;
    out.push_back(two_layer_row("fedavg_mlp_prox", "fedavg",
                                algo::train_fedavg, o, {32}));
  }
  // Degraded rows: casualties on both links, substituted from the stale
  // store (kReuseStale) or abandoning the round (kSkipRound), under the
  // robust combiners, and the last-iterate checkpoint ablation.
  out.push_back(two_layer_row(
      "drfa_faults_stale", "drfa", algo::train_drfa,
      faulty_opts(base, OnFault::kReuseStale, Aggregate::kTrimmedMean)));
  out.push_back(tree_row(
      "hierminimax_faults_stale", "hierminimax", algo::train_hierminimax,
      faulty_opts(base, OnFault::kReuseStale, Aggregate::kTrimmedMean)));
  {
    // No crash and rarer wide-area losses than the stale rows, so some
    // rounds aggregate and some skip.
    algo::TrainOptions o =
        faulty_opts(base, OnFault::kSkipRound, Aggregate::kMedian);
    o.fault.edge_crash_round.clear();
    o.fault.edge_loss_prob = 0.3;
    out.push_back(tree_row("hierminimax_d3_faults_skip", "hierminimax",
                           algo::train_hierminimax,
                           with_taus(o, {2, 2, 2}), /*deep=*/true));
  }
  {
    algo::TrainOptions o = base;
    o.use_checkpoint = false;
    out.push_back(tree_row("hierminimax_no_ckpt", "hierminimax",
                           algo::train_hierminimax, o));
  }
  return out;
}

// ---------------------------------------------------------------------
// Scenario-matrix enumeration: one named FaultSpec per row, shared by
// the fault matrix (test_fault.cpp) and the adversarial matrix
// (test_scenario.cpp).

struct Scenario {
  std::string name;
  sim::FaultSpec spec;  // always enabled; "none" is the zero-prob plan
};

/// Classic fault rows: dropout, stragglers + lossy links, crashes.
inline std::vector<Scenario> fault_scenarios() {
  std::vector<Scenario> out;
  {
    Scenario s;
    s.name = "none";
    s.spec.enabled = true;  // exercises the fault code path, zero faults
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "dropout20";
    s.spec.enabled = true;
    s.spec.client_dropout_prob = 0.2;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "heavy_stragglers";
    s.spec.enabled = true;
    s.spec.straggler_prob = 0.6;
    s.spec.straggler_mult_mean = 8.0;
    s.spec.edge_loss_prob = 0.3;  // wide-area retries in the same scenario
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "edge_crash";
    s.spec.enabled = true;
    s.spec.edge_crash_round = {-1, 2};        // edge 1 dies at round 2
    s.spec.client_crash_round = {-1, -1, 3};  // client 2 dies at round 3
    s.spec.client_dropout_prob = 0.1;
    out.push_back(s);
  }
  return out;
}

/// Adversarial & non-stationary rows: the three Byzantine attacks plus
/// population churn. (Concept drift lives in the dataset, not the
/// FaultSpec, and is enumerated separately by test_scenario.cpp.)
inline std::vector<Scenario> adversarial_scenarios(
    double attack_frac = 0.25) {
  std::vector<Scenario> out;
  {
    Scenario s;
    s.name = "sign_flip";
    s.spec.enabled = true;
    s.spec.attack = sim::AttackKind::kSignFlip;
    s.spec.attack_prob = attack_frac;
    s.spec.attack_scale = 4.0;  // amplified reflection
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "scaled_noise";
    s.spec.enabled = true;
    s.spec.attack = sim::AttackKind::kScaledNoise;
    s.spec.attack_prob = attack_frac;
    s.spec.attack_scale = 8.0;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "label_flip";
    s.spec.enabled = true;
    s.spec.attack = sim::AttackKind::kLabelFlip;
    s.spec.attack_prob = attack_frac;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "churn";
    s.spec.enabled = true;
    s.spec.churn_prob = 0.3;
    s.spec.churn_dwell = 2;
    out.push_back(s);
  }
  return out;
}

}  // namespace hm::testing_util
