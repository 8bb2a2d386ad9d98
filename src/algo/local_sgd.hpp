// Projected mini-batch local SGD (Eq. 4 of the paper) — the inner loop
// every algorithm shares — plus the checkpoint-capture hook HierMinimax
// and DRFA need.
#pragma once

#include <functional>
#include <span>

#include "core/check.hpp"
#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "sim/cluster.hpp"

namespace hm::algo {

struct LocalSgdConfig {
  index_t steps = 1;            // tau_1
  index_t batch_size = 1;
  scalar_t eta = 0.01;          // eta_w
  scalar_t w_radius = 0;        // L2-ball projection radius; 0 = identity
  scalar_t weight_decay = 0;    // decoupled L2 decay per step (lambda)
  scalar_t prox_mu = 0;         // FedProx proximal strength: adds
                                // mu * (w - w_start) to every gradient,
                                // anchoring the client at the model it
                                // received for this run
  /// If in [1, steps], a copy of the iterate *after* that many steps is
  /// written to `checkpoint` (the w_n^{(k,c2,c1)} of Algorithm 1).
  index_t checkpoint_step = 0;
};

/// Per-thread reusable scratch for one simulated client.
struct ClientScratch {
  std::unique_ptr<nn::Workspace> ws;
  std::vector<scalar_t> grad;
  std::vector<scalar_t> prox_center;

  void ensure(const nn::Model& model) {
    if (!ws) ws = model.make_workspace();
    grad.resize(static_cast<std::size_t>(model.num_params()));
  }
};

/// Run config.steps projected SGD steps on `w` in place, sampling
/// mini-batches from `shard` with `gen`. If checkpoint capture is
/// requested, `checkpoint` must have num_params() length.
void run_local_sgd(const nn::Model& model, const data::Dataset& shard,
                   const LocalSgdConfig& config, nn::VecView w,
                   nn::VecView checkpoint, rng::Xoshiro256& gen,
                   ClientScratch& scratch);

/// One client of a parallel local-SGD block: the per-call arguments of
/// run_local_sgd, prepared by the trainer. `gen` must stay valid for the
/// whole run. `scratch_id` slots into the trainer's ClientScratch vector and
/// must be distinct across the jobs of one run (grad buffers alias
/// otherwise). A non-empty `start` (the model the client received) is
/// copied into `w` inside the job's device task, before the first step;
/// it must not overlap any job's `w`.
struct LocalSgdJob {
  const data::Dataset* shard = nullptr;
  nn::VecView w;
  nn::VecView checkpoint;  // empty unless this job captures
  rng::Xoshiro256* gen = nullptr;
  index_t scratch_id = 0;
  nn::ConstVecView start;  // empty: run from w as it stands
};

/// Several dependent blocks in one run_local_sgd_jobs call. Jobs are
/// listed block-major and, within a block, group by group; job j belongs
/// to group group[j] (an area) and block block[j]. Closing block b of
/// group g (the area's aggregation) is split into `pieces` independent
/// tasks close(g, b, piece), each on its own slice of the coordinates.
/// The run is one device region whose tickets are, for each block b and
/// each group g in turn, the pieces closing (g, b - 1) and then g's jobs
/// of block b; the pieces closing the last block come last. A job of
/// block b waits until every piece closing (g, b - 1) finished; a piece
/// closing (g, b) waits until g's jobs of block b finished. finish(j)
/// runs on job j's thread right after its local SGD. Every (group, block)
/// is closed, a group with no jobs included. A ticket only ever waits on
/// lower tickets, which the scheduler claims first, so the run cannot
/// deadlock on any pool, a 1-thread one included. A throwing job, finish
/// or piece releases every waiting ticket, which then skips its work; the
/// run rethrows the first error.
struct BlockPipeline {
  std::span<const index_t> group;  // per job, in [0, num_groups)
  std::span<const index_t> block;  // per job, in [0, num_blocks)
  index_t num_groups = 0;
  index_t num_blocks = 1;
  index_t pieces = 1;  // close pieces per (group, block)
  std::function<void(index_t job)> finish;
  std::function<void(index_t group, index_t block, index_t piece)> close;
};

/// Run one local-SGD block for every job (all sharing `config`): one
/// device task per job on the cluster scheduler
/// (sim::ClusterSim::run_devices), each an optional start copy and a
/// run_local_sgd call. A job whose checkpoint is empty never captures,
/// whatever config.checkpoint_step says. The result is bit-identical to
/// copying every start into its w first and then running. With `pipe`,
/// the jobs span several blocks (see BlockPipeline); a start copy then
/// reads the start model once the previous block is closed.
void run_local_sgd_jobs(const nn::Model& model, const LocalSgdConfig& config,
                        std::span<const LocalSgdJob> jobs,
                        std::vector<ClientScratch>& scratch,
                        const sim::ClusterSim& cluster,
                        const BlockPipeline* pipe = nullptr);

/// Compatibility shim for perfbench/cpp/layers.cpp, the one caller of the
/// former batched-engine signature. It exists only for perfbench and goes
/// away with the next benchmark change; it accepts only batched=false and
/// forwards to the overload above.
struct BatchEngineState {};
inline void run_local_sgd_jobs(const nn::Model& model,
                               const LocalSgdConfig& config,
                               std::span<const LocalSgdJob> jobs,
                               std::vector<ClientScratch>& scratch,
                               BatchEngineState& /*unused*/, bool batched,
                               const sim::ClusterSim& cluster) {
  HM_CHECK(!batched);
  run_local_sgd_jobs(model, config, jobs, scratch, cluster);
}

}  // namespace hm::algo
