// The area-and-below share of one hierarchical round, factored out of the
// coordinator so it can run anywhere: in the trainer's process (the
// in-proc oracle and the loopback transport) or inside a forked worker
// process that serves a subset of the areas.
//
// The split is exact, not approximate. Everything here is a pure
// function of (round index, checkpoint indices, the broadcast model, the
// run options): all randomness comes from non-advancing splits of a
// root generator rebuilt from opts.seed, the fault plan is a pure
// function of (fault seed, round, entity), and per-node buffers are
// written before every read within a round. Leaf buffers belong to
// slots, not to leaves: leaf i of the g-th live area of a round trains in
// slot g * N_0 + i in every block, so a program keeps one model per leaf
// of its largest round rather than one per leaf of the tree. Two
// EdgeProgram instances —
// in different processes — therefore produce bit-identical per-area
// results for any partition of the area set (run_local_sgd_jobs and
// Model::loss_many are bit-identical per job regardless of grouping).
//
// Deliberately NOT here: every sim::CommStats update. Fault metering
// accumulates order-sensitive floating-point sums, so the coordinator
// replays the accounting loops itself, in the exact legacy order,
// whichever transport carried the computation.
#pragma once

#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "algo/local_sgd.hpp"
#include "algo/options.hpp"
#include "algo/trainer_common.hpp"
#include "data/federated.hpp"
#include "nn/model.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "sim/cluster.hpp"
#include "sim/fault.hpp"
#include "sim/multi_topology.hpp"

namespace hm::algo::detail {

/// The tree one hierarchical run trains over. Depth-1 nodes are the areas
/// p ranges over (the edges of the three-layer system), leaves are the
/// clients. A depth-l node runs taus[l-1] blocks of its children per
/// block of its parent; a leaf runs taus.back() local SGD steps per
/// innermost block; a three-layer run has tree {N_E, N_0} and taus
/// {tau2, tau1}. `taus` is resolve_taus(opts, tree depth), and the
/// engine reads its schedule from `taus` alone, never opts.tau1/tau2.
struct Hierarchy {
  sim::MultiTopology tree;
  std::vector<index_t> taus;
  TrainOptions opts;

  /// Innermost blocks per round: the product of the outer taus.
  index_t blocks_per_round() const {
    return std::accumulate(taus.begin(), taus.end() - 1, index_t{1},
                           std::multiplies<>());
  }
};

class EdgeProgram {
 public:
  EdgeProgram(const nn::Model& model, const data::FederatedDataset& fed,
              const Hierarchy& h, parallel::ThreadPool& pool);

  /// Phase 1 for the given participating areas: seed each area's model
  /// from the broadcast `w` and run the round's blocks_per_round()
  /// innermost blocks down its subtree, as one device region: each area
  /// runs its blocks back to back, a block's close (the aggregations
  /// below) runs as coordinate pieces that any free thread takes once the
  /// area's jobs of that block finished, and no barrier joins the areas.
  /// Interior nodes broadcast their model at the start of each of their
  /// blocks and take the plain mean of their children at its end; the
  /// leaves' parents combine the leaf
  /// reports with the robust combiner after local SGD, quantization and
  /// payload attacks. In innermost block c2 the leaves capture the
  /// iterate after c1 steps; the capture is averaged up to the area.
  /// c2 < 0 captures nothing (and allocates no checkpoint buffer). The
  /// per-area results land in edge_w / edge_ckpt / edge_has_ckpt, which
  /// are full-size (indexed by area id); only the listed areas' slots are
  /// touched. Uplink quantization toward the cloud is NOT applied — that
  /// is the coordinator's hop.
  void phase1(index_t k, index_t c1, index_t c2,
              std::span<const index_t> edges, const std::vector<scalar_t>& w,
              std::vector<std::vector<scalar_t>>& edge_w,
              std::vector<std::vector<scalar_t>>& edge_ckpt,
              std::vector<char>& edge_has_ckpt);

  /// Phase 2 for the given loss-estimation areas: score every leaf job
  /// with client_ok[j*n + i] set (j indexes `edges`, i the leaf's index
  /// in its area, n the leaves per area) at the shared `checkpoint`,
  /// writing losses into the aligned client_losses span. Skipped jobs'
  /// slots are left untouched (the caller zero-fills).
  void phase2(index_t k, std::span<const index_t> edges,
              const std::vector<scalar_t>& checkpoint,
              std::span<const char> client_ok,
              std::span<scalar_t> client_losses);

 private:
  std::vector<scalar_t>& ensure(std::vector<scalar_t>& v) const;

  const nn::Model& model_;
  const data::FederatedDataset& fed_;
  const Hierarchy& h_;
  rng::Xoshiro256 root_;  // never advanced, only split (resume-safe)
  sim::FaultPlan plan_;
  sim::ClusterSim cluster_;
  AggregateSpec agg_;
  // Per-depth node buffers, indexed [depth][node id at that depth] and
  // materialized on first touch. Depth 1 lives in the caller's per-area
  // arrays, so slots 0 and 1 stay empty. Depth L holds the leaves and is
  // indexed by leaf slot instead (see the header comment).
  std::vector<std::vector<std::vector<scalar_t>>> node_w_;
  std::vector<std::vector<std::vector<scalar_t>>> node_ckpt_;
  std::vector<std::vector<char>> node_has_ckpt_;
  std::vector<ClientScratch> scratch_;  // by leaf slot
  PoisonStore poison_;
  std::unique_ptr<nn::Workspace> ph2_ws_;  // created by the first phase2
};

}  // namespace hm::algo::detail
