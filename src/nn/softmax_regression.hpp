// Multinomial logistic regression (softmax regression). The convex model
// of the paper's §6.1 experiments; cross-entropy composed with a linear
// map is convex in (W, b).
//
// Parameter layout: W (classes x dim, row-major) followed by b (classes).
#pragma once

#include "nn/model.hpp"

namespace hm::nn {

class SoftmaxRegression final : public Model {
 public:
  SoftmaxRegression(index_t input_dim, index_t num_classes);

  index_t num_params() const override { return (dim_ + 1) * classes_; }
  index_t num_classes() const override { return classes_; }
  index_t input_dim() const override { return dim_; }
  bool is_convex() const override { return true; }

  std::unique_ptr<Workspace> make_workspace() const override;
  void init_params(VecView w, rng::Xoshiro256& gen) const override;
  scalar_t loss_and_grad(ConstVecView w, const data::Dataset& d,
                         std::span<const index_t> batch, VecView grad,
                         Workspace& ws) const override;
  scalar_t loss(ConstVecView w, const data::Dataset& d,
                std::span<const index_t> batch, Workspace& ws) const override;
  void loss_many(std::span<const LossJob> jobs, std::span<scalar_t> losses,
                 Workspace& ws,
                 parallel::ThreadPool* pool = nullptr) const override;
  void predict(ConstVecView w, const data::Dataset& d,
               std::span<const index_t> batch, std::span<index_t> out,
               Workspace& ws) const override;

 private:
  index_t dim_;
  index_t classes_;
};

}  // namespace hm::nn
