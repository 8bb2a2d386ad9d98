#include "algo/qffl.hpp"

#include <cmath>

#include "algo/local_sgd.hpp"
#include "algo/trainer_common.hpp"
#include "core/check.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/quantize.hpp"
#include "tensor/vecops.hpp"

namespace hm::algo {

TrainResult train_qffl(const nn::Model& model,
                       const data::FederatedDataset& fed,
                       const TrainOptions& opts, scalar_t q,
                       parallel::ThreadPool& pool) {
  detail::require_inproc(opts, "train_qffl");
  fed.validate();
  HM_CHECK(opts.rounds > 0 && opts.tau1 > 0 && opts.eta_w > 0);
  HM_CHECK_MSG(q >= 0, "q must be nonnegative");
  const index_t d = model.num_params();
  const index_t num_clients = fed.num_clients();
  const index_t m =
      opts.sampled_clients > 0 ? opts.sampled_clients : num_clients;
  HM_CHECK(m <= num_clients);
  const scalar_t lipschitz = 1 / opts.eta_w;  // the L of q-FedAvg

  rng::Xoshiro256 root(opts.seed);

  TrainResult result;
  result.w.assign(static_cast<std::size_t>(d), 0);
  {
    rng::Xoshiro256 init_gen = root.split(detail::kTagInit);
    model.init_params(result.w, init_gen);
  }
  result.p = detail::uniform_weights(fed.num_edges());
  result.w_avg = result.w;
  result.p_avg = result.p;

  std::vector<std::vector<scalar_t>> client_w(
      static_cast<std::size_t>(num_clients),
      std::vector<scalar_t>(static_cast<std::size_t>(d)));
  std::vector<scalar_t> client_loss(static_cast<std::size_t>(num_clients), 0);
  std::vector<ClientScratch> scratch(static_cast<std::size_t>(num_clients));
  const sim::ClusterSim cluster(pool);

  detail::RunState rs;
  rs.algo_id = detail::kAlgoQffl;
  rs.seed = opts.seed;
  rs.root = &root;
  rs.w = &result.w;
  rs.w_avg = &result.w_avg;
  rs.comm = &result.comm;
  rs.history = &result.history;
  const index_t k0 = detail::resume_round(opts.resume_from, rs);

  if (k0 == 0) {
    detail::maybe_record(model, fed, pool, 0, opts.rounds, opts.eval_every,
                         result.w, result.comm, result.history);
  }

  for (index_t k = k0; k < opts.rounds; ++k) {
    HM_OBS_SPAN("qffl.round", "algo", k, 0);
    HM_OBS_INC("algo.qffl.rounds");
    rng::Xoshiro256 round_gen = root.split(static_cast<std::uint64_t>(k) + 1);
    rng::Xoshiro256 sample_gen = round_gen.split(detail::kTagSampleEdges);
    const auto clients =
        rng::sample_without_replacement(num_clients, m, sample_gen);
    result.comm.edge_cloud_models_down +=
        static_cast<std::uint64_t>(clients.size());

    // F_k at the broadcast model (full shard — exact, cheap here).
    cluster.run_devices(
        static_cast<index_t>(clients.size()), [&](index_t j) {
          const index_t n = clients[static_cast<std::size_t>(j)];
          const data::Dataset& shard = fed.client_shard_at(k, n);
          auto& sc = scratch[static_cast<std::size_t>(n)];
          sc.ensure(model);
          client_loss[static_cast<std::size_t>(n)] = model.loss(
              result.w, shard, nn::all_indices(shard.size()), *sc.ws);
        });
    LocalSgdConfig cfg;
    cfg.steps = opts.tau1;
    cfg.batch_size = opts.batch_size;
    cfg.eta = opts.eta_w;
    cfg.w_radius = opts.w_radius;
    cfg.weight_decay = opts.weight_decay;
    cfg.prox_mu = opts.prox_mu;
    std::vector<LocalSgdJob> jobs;
    std::vector<rng::Xoshiro256> gens;
    jobs.reserve(clients.size());
    gens.reserve(clients.size());
    for (const index_t n : clients) {
      gens.push_back(round_gen.split(detail::kTagLocal)
                         .split(static_cast<std::uint64_t>(n)));
      jobs.push_back({&fed.client_shard_at(k, n),
                      client_w[static_cast<std::size_t>(n)], {}, &gens.back(),
                      n, result.w});
    }
    run_local_sgd_jobs(model, cfg, jobs, scratch, cluster);

    // Aggregate the q-FedAvg update. Delta w_k = L (w - w_bar_k).
    std::vector<scalar_t> update(static_cast<std::size_t>(d), 0);
    scalar_t h_total = 0;
    for (const index_t n : clients) {
      const auto& w_bar = client_w[static_cast<std::size_t>(n)];
      const scalar_t f_k =
          std::max<scalar_t>(client_loss[static_cast<std::size_t>(n)], 1e-10);
      const scalar_t f_q = std::pow(f_k, q);
      scalar_t delta_sq = 0;
      for (std::size_t i = 0; i < update.size(); ++i) {
        const scalar_t delta_i = lipschitz * (result.w[i] - w_bar[i]);
        update[i] += f_q * delta_i;
        delta_sq += delta_i * delta_i;
      }
      h_total += (q > 0 ? q * std::pow(f_k, q - 1) * delta_sq : 0) +
                 lipschitz * f_q;
    }
    HM_CHECK(h_total > 0);
    tensor::axpy(-1 / h_total, update, nn::VecView(result.w));
    tensor::project_l2_ball(result.w, opts.w_radius);

    result.comm.edge_cloud_rounds += 1;
    result.comm.edge_cloud_models_up +=
        static_cast<std::uint64_t>(clients.size());
    result.comm.edge_cloud_scalars +=
        2 * static_cast<std::uint64_t>(clients.size());  // F_k and h_k
    result.comm.edge_cloud_bytes +=
        static_cast<std::uint64_t>(clients.size()) *
        (sim::payload_bytes(d, 0) + sim::payload_bytes(d, opts.quantize_bits) +
         16);

    detail::update_running_average(result.w_avg, result.w, k, &pool);
    detail::maybe_record(model, fed, pool, k + 1, opts.rounds,
                         opts.eval_every, result.w, result.comm,
                         result.history);
    detail::snapshot_round_end(opts.snapshot, k, rs);
  }
  return result;
}

TrainResult train_qffl(const nn::Model& model,
                       const data::FederatedDataset& fed,
                       const TrainOptions& opts, scalar_t q) {
  return train_qffl(model, fed, opts, q, parallel::ThreadPool::global());
}

}  // namespace hm::algo
