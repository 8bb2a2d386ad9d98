#include "nn/model.hpp"

#include <numeric>

#include "core/check.hpp"
#include "tensor/vecops.hpp"

namespace hm::nn {

scalar_t Model::sgd_step(VecView w, const data::Dataset& d,
                         std::span<const index_t> batch, const SgdRule& rule,
                         VecView grad, Workspace& ws) const {
  HM_CHECK(grad.size() == w.size());
  const scalar_t loss = loss_and_grad(w, d, batch, grad, ws);
  if (rule.prox_mu > 0) {
    HM_CHECK(rule.prox_center.size() == w.size());
    for (std::size_t i = 0; i < grad.size(); ++i) {
      grad[i] += rule.prox_mu * (w[i] - rule.prox_center[i]);
    }
  }
  tensor::axpby(-rule.eta, grad, rule.decay, w);
  return loss;
}

void Model::loss_many(std::span<const LossJob> jobs,
                      std::span<scalar_t> losses, Workspace& ws,
                      parallel::ThreadPool*) const {
  HM_CHECK(losses.size() == jobs.size());
  for (std::size_t g = 0; g < jobs.size(); ++g) {
    const LossJob& job = jobs[g];
    losses[g] = loss(job.w, *job.data, job.batch, ws);
  }
}

std::vector<index_t> all_indices(index_t n) {
  std::vector<index_t> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), index_t{0});
  return idx;
}

scalar_t accuracy(const Model& model, ConstVecView w, const data::Dataset& d,
                  Workspace& ws) {
  HM_CHECK(d.size() > 0);
  const auto batch = all_indices(d.size());
  std::vector<index_t> pred(static_cast<std::size_t>(d.size()));
  model.predict(w, d, batch, pred, ws);
  index_t correct = 0;
  for (index_t i = 0; i < d.size(); ++i) {
    if (pred[static_cast<std::size_t>(i)] == d.y[static_cast<std::size_t>(i)])
      ++correct;
  }
  return static_cast<scalar_t>(correct) / static_cast<scalar_t>(d.size());
}

}  // namespace hm::nn
