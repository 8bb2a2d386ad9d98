#include "algo/local_sgd.hpp"

#include "core/check.hpp"
#include "tensor/vecops.hpp"

namespace hm::algo {

void run_local_sgd(const nn::Model& model, const data::Dataset& shard,
                   const LocalSgdConfig& config, nn::VecView w,
                   nn::VecView checkpoint, rng::Xoshiro256& gen,
                   ClientScratch& scratch) {
  HM_CHECK(config.steps >= 0 && config.batch_size > 0 && config.eta > 0);
  HM_CHECK(static_cast<index_t>(w.size()) == model.num_params());
  const bool capture =
      config.checkpoint_step >= 1 && config.checkpoint_step <= config.steps;
  if (capture) {
    HM_CHECK(static_cast<index_t>(checkpoint.size()) == model.num_params());
  }
  scratch.ensure(model);
  nn::SgdRule rule;
  rule.eta = config.eta;
  // Decoupled decay folded into the step: w = (1 - eta*wd)*w - eta*g.
  rule.decay = config.weight_decay > 0 ? 1 - config.eta * config.weight_decay
                                       : scalar_t{1};
  rule.prox_mu = config.prox_mu;
  if (config.prox_mu > 0) {
    scratch.prox_center.assign(w.begin(), w.end());
    rule.prox_center = scratch.prox_center;
  }

  std::vector<index_t> batch(static_cast<std::size_t>(config.batch_size));
  for (index_t step = 0; step < config.steps; ++step) {
    for (auto& idx : batch) {
      idx = static_cast<index_t>(gen.uniform_index(
          static_cast<std::uint64_t>(shard.size())));
    }
    model.sgd_step(w, shard, batch, rule, scratch.grad, *scratch.ws);
    tensor::project_l2_ball(w, config.w_radius);
    if (capture && step + 1 == config.checkpoint_step) {
      tensor::copy(w, checkpoint);
    }
  }
}

void run_local_sgd_jobs(const nn::Model& model, const LocalSgdConfig& config,
                        std::span<const LocalSgdJob> jobs,
                        std::vector<ClientScratch>& scratch,
                        const sim::ClusterSim& cluster) {
  if (jobs.empty()) return;
  cluster.run_devices(static_cast<index_t>(jobs.size()), [&](index_t j) {
    const LocalSgdJob& job = jobs[static_cast<std::size_t>(j)];
    if (!job.start.empty()) tensor::copy(job.start, job.w);
    run_local_sgd(model, *job.shard, config, job.w, job.checkpoint, *job.gen,
                  scratch[static_cast<std::size_t>(job.scratch_id)]);
  });
}

}  // namespace hm::algo
