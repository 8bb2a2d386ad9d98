// Model abstraction used by every federated algorithm.
//
// Models are *stateless* with respect to parameters: the architecture
// object holds shapes only, and parameters live in a caller-owned flat
// vector. This is the natural shape for federated optimization, where one
// architecture is shared by many parameter copies (per client, per edge,
// global, checkpoint) and aggregation is a BLAS-1 average of flat vectors.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "rng/rng.hpp"
#include "tensor/matrix.hpp"

namespace hm::parallel {
class ThreadPool;
}  // namespace hm::parallel

namespace hm::nn {

using tensor::ConstVecView;
using tensor::VecView;

/// Opaque per-caller scratch space. One Workspace per thread; reused
/// across calls so hot loops do not allocate.
class Workspace {
 public:
  virtual ~Workspace() = default;
};

/// One slice of a multi-job loss-only evaluation: parameters, a dataset
/// shard, and the rows to score. Jobs that share `w` (by data pointer)
/// can be fused into one stacked sweep by loss_many overrides.
struct LossJob {
  ConstVecView w;
  const data::Dataset* data;
  std::span<const index_t> batch;
};

/// One local-SGD update (Eq. 4 before projection), applied in place:
///   w = decay * w - eta * (grad + prox_mu * (w - prox_center)).
/// decay is the decoupled weight-decay factor 1 - eta*lambda (1 = none).
/// prox_center (num_params() long) is read only when prox_mu > 0.
struct SgdRule {
  scalar_t eta = 0;
  scalar_t decay = 1;
  scalar_t prox_mu = 0;
  ConstVecView prox_center;
};

class Model {
 public:
  virtual ~Model() = default;

  /// Length of the flat parameter vector.
  virtual index_t num_params() const = 0;

  /// Number of output classes.
  virtual index_t num_classes() const = 0;

  /// Input feature dimension.
  virtual index_t input_dim() const = 0;

  /// Whether the per-sample loss is convex in the parameters.
  virtual bool is_convex() const = 0;

  virtual std::unique_ptr<Workspace> make_workspace() const = 0;

  /// Initialize `w` (Xavier/He as appropriate for the architecture).
  virtual void init_params(VecView w, rng::Xoshiro256& gen) const = 0;

  /// Mean cross-entropy loss over the batch; writes the gradient of that
  /// mean into `grad` (overwriting it). Returns the loss.
  virtual scalar_t loss_and_grad(ConstVecView w, const data::Dataset& d,
                                 std::span<const index_t> batch, VecView grad,
                                 Workspace& ws) const = 0;

  /// One SGD step on `w` in place; returns the batch loss at the old w.
  /// CONTRACT: bit-identical to loss_and_grad into `grad_scratch`, then
  /// grad[i] += prox_mu * (w[i] - prox_center[i]) when prox_mu > 0, then
  /// axpby(-eta, grad, decay, w) — which is exactly what the base version
  /// does. Overrides may update w without materializing the gradient;
  /// `grad_scratch` (num_params() long) holds unspecified values after.
  virtual scalar_t sgd_step(VecView w, const data::Dataset& d,
                            std::span<const index_t> batch,
                            const SgdRule& rule, VecView grad_scratch,
                            Workspace& ws) const;

  /// Mean cross-entropy loss over the batch (no gradient).
  virtual scalar_t loss(ConstVecView w, const data::Dataset& d,
                        std::span<const index_t> batch,
                        Workspace& ws) const = 0;

  /// Predicted class per batch row, written into `out` (same length).
  virtual void predict(ConstVecView w, const data::Dataset& d,
                       std::span<const index_t> batch,
                       std::span<index_t> out, Workspace& ws) const = 0;

  /// Evaluate many loss-only jobs in one call, writing job g's mean loss
  /// into losses[g] (one slot per job, required). CONTRACT: every job's
  /// result is bit-identical to a loss() call with the same arguments.
  /// Overriding models may stack consecutive jobs that share a parameter
  /// vector into one fused evaluation sweep (the trainers' loss-estimation
  /// phases and the per-edge evaluators all score many shards at one `w`),
  /// which amortizes operand packing and runs the kernels at full batch
  /// throughput; a large stacked multiply splits its rows across `pool`
  /// (null = serial; callers inside a parallel region pass none). The
  /// base implementation simply loops over loss().
  virtual void loss_many(std::span<const LossJob> jobs,
                         std::span<scalar_t> losses, Workspace& ws,
                         parallel::ThreadPool* pool = nullptr) const;
};

/// 0..n-1, the full-batch index list.
std::vector<index_t> all_indices(index_t n);

/// Fraction of correct predictions over the whole dataset (single thread;
/// see hm::metrics for the parallel per-edge evaluator).
scalar_t accuracy(const Model& model, ConstVecView w, const data::Dataset& d,
                  Workspace& ws);

}  // namespace hm::nn
