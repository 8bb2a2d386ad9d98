// Shared fixtures and helpers for the algorithm-level tests: small
// federated tasks with controlled heterogeneity that train in well under
// a second, the bit-exact fingerprint/trajectory-comparison helpers used
// by the fault, snapshot, and scenario matrices, the scenario
// enumeration for the adversarial matrix, and the snapshot whose bytes
// the codec tests pin.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/options.hpp"
#include "data/federated.hpp"
#include "data/generators.hpp"
#include "io/snapshot.hpp"
#include "nn/softmax_regression.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/fault.hpp"
#include "sim/topology.hpp"

namespace hm::testing_util {

/// The pool the trainers under test run on: one per test binary, sized
/// to the host. Trajectories do not depend on its size; the
/// DeterministicAcrossThreadCounts tests build their own pools.
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
  std::uint64_t h = 0;
  h = mix_vec(h, r.p);
  h = mix_vec(h, r.w_avg);
  h = mix_vec(h, r.p_avg);
  h = mix_comm(h, r.comm);
  for (const auto& rec : r.history.records()) {
    h = mix(h, static_cast<std::uint64_t>(rec.round));
    h = mix_comm(h, rec.comm);
    h = mix_vec(h, rec.edge_acc);
    h = mix(h, bits(rec.global_loss));
  }
  out.fp = h;
  std::ostringstream os;
  r.history.write_tsv(os, "run");
  out.tsv = os.str();
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
