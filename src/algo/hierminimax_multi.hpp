// HierMinimax generalized to an arbitrary L-level hierarchy (the paper's
// §1/§3 claim that the method extends beyond three layers).
//
// One training round: Phase 1 samples m areas (depth-1 subtrees) by the
// weight vector p; inside a sampled area, a node at depth l runs
// taus[l-1] aggregation blocks of its children, bottoming out in
// taus[depth-1] local SGD steps at each leaf; each level averages its
// children after every block. The checkpoint is the leaf iterate after
// c1 in [1, taus.back()] steps of innermost block c2 (counted over the
// whole round), averaged up the tree like the models. Phase 2 is
// unchanged: a uniform area sample estimates losses at the checkpoint
// and p ascends (Eq. 7 with step eta_p * prod(taus)).
//
// Both trainers run on the same round engine as train_hierminimax and
// train_hierfavg (algo/hierminimax.cpp). With taus = {tau2, tau1} on the
// tree {N_E, N_0} they are bit-identical to those flat trainers.
#pragma once

#include "algo/options.hpp"
#include "data/federated.hpp"
#include "nn/model.hpp"
#include "sim/multi_topology.hpp"

namespace hm::algo {

struct MultiTrainOptions {
  index_t rounds = 100;
  /// taus[l] = blocks run by a node at depth l+1... concretely:
  /// taus.size() == topo.depth(); taus[0] is the number of aggregation
  /// blocks at the area (depth-1) level, ..., taus.back() is the number
  /// of local SGD steps per leaf per innermost block.
  std::vector<index_t> taus;
  index_t batch_size = 1;
  scalar_t eta_w = 0.01;
  scalar_t eta_p = 0.01;
  index_t sampled_areas = 0;  // m; 0 = all areas
  scalar_t w_radius = 0;
  SimplexSet p_set;
  seed_t seed = 1;
  index_t eval_every = 10;
  index_t loss_est_batch = 32;

  // Fault injection (see TrainOptions): leaf-level dropout/crash/straggle
  // plus cloud-area link loss and area (edge_crash_round) crashes.
  // Interior aggregation servers are assumed reliable.
  sim::FaultSpec fault;
  OnFault on_fault = OnFault::kRenormalize;
  scalar_t stale_decay = 0.5;

  // Robust model aggregation (see TrainOptions::aggregate). Applied at
  // the innermost (leaf->parent) level, where Byzantine leaves report,
  // and at the top (area->cloud) level; interior levels average few,
  // already-aggregated children and stay kMean.
  Aggregate aggregate = Aggregate::kMean;
  scalar_t trim_frac = 0.2;

  // Crash-safe snapshots + bit-exact resume (see TrainOptions).
  io::SnapshotPolicy snapshot;
  std::string resume_from;
};

/// Per-link-level communication meter (level 0 = cloud-area link).
struct MultiCommStats {
  struct Level {
    std::uint64_t rounds = 0;
    std::uint64_t models_up = 0;
    std::uint64_t models_down = 0;
  };
  std::vector<Level> levels;

  // Fault delivery accounting: leaf reports (innermost link) and area
  // uplinks (cloud link). Mapped onto client_edge/edge_cloud in the flat
  // CommStats snapshots History records.
  sim::LinkFaultStats leaf_fault;
  sim::LinkFaultStats top_fault;

  std::uint64_t total_rounds() const {
    std::uint64_t total = 0;
    for (const auto& l : levels) total += l.rounds;
    return total;
  }
};

struct MultiTrainResult {
  std::vector<scalar_t> w;
  std::vector<scalar_t> p;   // over areas
  metrics::TrainingHistory history;
  MultiCommStats comm;
};

/// `fed` must have one client shard per topology leaf and one test set
/// per area (clients_per_edge == topo.leaves_per_area()).
MultiTrainResult train_hierminimax_multi(const nn::Model& model,
                                         const data::FederatedDataset& fed,
                                         const sim::MultiTopology& topo,
                                         const MultiTrainOptions& opts,
                                         parallel::ThreadPool& pool);

MultiTrainResult train_hierminimax_multi(const nn::Model& model,
                                         const data::FederatedDataset& fed,
                                         const sim::MultiTopology& topo,
                                         const MultiTrainOptions& opts);

/// L-level hierarchical *minimization* baseline (multi-level local SGD a
/// la Castiglia et al. [5] / HierFAVG generalized): identical Phase-1
/// tree schedule, uniform area sampling without replacement, no
/// checkpoint, no weight vector and no Phase 2. The control arm for the
/// multi-level minimax comparison.
MultiTrainResult train_hierfavg_multi(const nn::Model& model,
                                      const data::FederatedDataset& fed,
                                      const sim::MultiTopology& topo,
                                      const MultiTrainOptions& opts,
                                      parallel::ThreadPool& pool);

MultiTrainResult train_hierfavg_multi(const nn::Model& model,
                                      const data::FederatedDataset& fed,
                                      const sim::MultiTopology& topo,
                                      const MultiTrainOptions& opts);

}  // namespace hm::algo
