// Fully-connected ReLU network with softmax cross-entropy output — the
// non-convex model of the paper's §6.2 experiments (two hidden layers of
// 300 and 100 units there; layer sizes are configurable here).
//
// Parameter layout (flat): for each layer l in order,
//   W_l (out_l x in_l, row-major) followed by b_l (out_l).
#pragma once

#include <vector>

#include "nn/model.hpp"

namespace hm::nn {

class Mlp final : public Model {
 public:
  /// `layer_dims` = {input, hidden..., output}; at least {in, out}.
  explicit Mlp(std::vector<index_t> layer_dims);

  index_t num_params() const override { return total_params_; }
  index_t num_classes() const override { return dims_.back(); }
  index_t input_dim() const override { return dims_.front(); }
  bool is_convex() const override { return dims_.size() == 2; }

  index_t num_layers() const {
    return static_cast<index_t>(dims_.size()) - 1;
  }
  const std::vector<index_t>& layer_dims() const { return dims_; }

  /// Weight matrix view of layer l inside a flat parameter vector.
  tensor::ConstMatView weights(ConstVecView w, index_t layer) const;
  tensor::MatView weights(VecView w, index_t layer) const;
  /// Bias view of layer l.
  ConstVecView biases(ConstVecView w, index_t layer) const;
  VecView biases(VecView w, index_t layer) const;

  std::unique_ptr<Workspace> make_workspace() const override;
  void init_params(VecView w, rng::Xoshiro256& gen) const override;
  scalar_t loss_and_grad(ConstVecView w, const data::Dataset& d,
                         std::span<const index_t> batch, VecView grad,
                         Workspace& ws) const override;
  /// Fused step: each W_l is updated in place by gemm_tn(alpha = -eta,
  /// beta = decay) right after delta_{l-1} is taken from the old W_l, so
  /// the weight gradient is never written out. With prox_mu > 0 it falls
  /// back to the base version.
  scalar_t sgd_step(VecView w, const data::Dataset& d,
                    std::span<const index_t> batch, const SgdRule& rule,
                    VecView grad_scratch, Workspace& ws) const override;
  scalar_t loss(ConstVecView w, const data::Dataset& d,
                std::span<const index_t> batch, Workspace& ws) const override;
  void loss_many(std::span<const LossJob> jobs, std::span<scalar_t> losses,
                 Workspace& ws,
                 parallel::ThreadPool* pool = nullptr) const override;
  void predict(ConstVecView w, const data::Dataset& d,
               std::span<const index_t> batch, std::span<index_t> out,
               Workspace& ws) const override;

 private:
  /// Forward pass and output delta, then for l = L-1 .. 0: delta_{l-1}
  /// from W_l, then layer_grad(l, delta_l, a_{l-1}). Returns the batch
  /// loss. W_l is not read after layer_grad(l, ...) runs, so the callback
  /// may overwrite it.
  template <typename LayerGrad>
  scalar_t backprop(ConstVecView w, const data::Dataset& d,
                    std::span<const index_t> batch, Workspace& ws,
                    LayerGrad&& layer_grad) const;

  std::vector<index_t> dims_;
  std::vector<index_t> w_offsets_;  // start of W_l in the flat vector
  std::vector<index_t> b_offsets_;  // start of b_l
  index_t total_params_ = 0;
};

/// Convenience factory for the paper's architecture: input -> 300 -> 100
/// -> classes with ReLU activations.
Mlp make_paper_mlp(index_t input_dim, index_t num_classes);

}  // namespace hm::nn
