#include "algo/fedavg.hpp"

#include "algo/local_sgd.hpp"
#include "sim/quantize.hpp"
#include "algo/trainer_common.hpp"
#include "core/check.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/vecops.hpp"

namespace hm::algo {

TrainResult train_fedavg(const nn::Model& model,
                         const data::FederatedDataset& fed,
                         const TrainOptions& opts,
                         parallel::ThreadPool& pool) {
  detail::require_inproc(opts, "train_fedavg");
  fed.validate();
  HM_CHECK(opts.rounds > 0 && opts.tau1 > 0);
  const index_t d = model.num_params();
  const index_t num_clients = fed.num_clients();
  const index_t m =
      opts.sampled_clients > 0 ? opts.sampled_clients : num_clients;
  HM_CHECK(m <= num_clients);

  rng::Xoshiro256 root(opts.seed);
  const sim::FaultPlan plan(opts.fault);

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
  std::vector<ClientScratch> scratch(static_cast<std::size_t>(num_clients));
  const sim::ClusterSim cluster(pool);
  detail::StaleStore stale;
  if (plan.enabled()) stale.init(num_clients);
  detail::PoisonStore poison;
  const detail::AggregateSpec agg{opts.aggregate, opts.trim_frac};

  detail::RunState rs;
  rs.algo_id = detail::kAlgoFedAvg;
  rs.seed = opts.seed;
  rs.root = &root;
  rs.w = &result.w;
  rs.w_avg = &result.w_avg;
  rs.comm = &result.comm;
  rs.stale = &stale;
  rs.history = &result.history;
  const index_t k0 = detail::resume_round(opts.resume_from, rs);

  if (k0 == 0) {
    detail::maybe_record(model, fed, pool, 0, opts.rounds, opts.eval_every,
                         result.w, result.comm, result.history);
  }

  for (index_t k = k0; k < opts.rounds; ++k) {
    HM_OBS_SPAN("fedavg.round", "algo", k, 0);
    HM_OBS_INC("algo.fedavg.rounds");
    rng::Xoshiro256 round_gen = root.split(static_cast<std::uint64_t>(k) + 1);
    rng::Xoshiro256 sample_gen = round_gen.split(detail::kTagSampleEdges);
    const auto clients =
        rng::sample_without_replacement(num_clients, m, sample_gen);
    result.comm.edge_cloud_models_down +=
        static_cast<std::uint64_t>(clients.size());

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
      const data::Dataset* shard = &fed.client_shard_at(k, n);
      if (plan.client_poisoned(k, n)) shard = &poison.get(*shard, n);
      jobs.push_back({shard, client_w[static_cast<std::size_t>(n)], {},
                      &gens.back(), n, result.w});
    }
    run_local_sgd_jobs(model, cfg, jobs, scratch, cluster);
    if (opts.quantize_bits > 0) {
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        rng::Xoshiro256 qgen = gens[j].split(detail::kTagQuant);
        sim::quantize_payload(
            client_w[static_cast<std::size_t>(clients[j])],
            opts.quantize_bits, qgen);
      }
    }
    if (plan.payload_attack()) {
      // Byzantine uploads: compromised clients corrupt what they send;
      // result.w still holds the round's broadcast model (the sign-flip
      // reflection reference).
      for (const index_t n : clients) {
        if (!plan.client_attacker(k, n)) continue;
        plan.corrupt_payload(k, n, result.w.data(),
                             client_w[static_cast<std::size_t>(n)].data(), d);
      }
    }

    if (!plan.enabled()) {
      detail::robust_uniform_average(client_w, clients, agg, result.w, &pool);
      tensor::project_l2_ball(result.w, opts.w_radius);
    } else {
      // Decide which sampled clients report over the wide-area link:
      // offline (crashed or churned-away) clients never send, dropped
      // clients' reports are lost, link loss burns the retry budget,
      // stragglers arrive late.
      std::vector<char> delivered(clients.size(), 0);
      for (std::size_t j = 0; j < clients.size(); ++j) {
        const index_t n = clients[j];
        if (plan.client_offline(k, n)) continue;
        if (plan.client_dropped(k, n)) {
          result.comm.edge_cloud_fault.note_lost_report();
          continue;
        }
        if (!plan.deliver(k, sim::fault_msg(sim::kMsgModelUp, n),
                          result.comm.edge_cloud_fault)) {
          continue;
        }
        result.comm.edge_cloud_fault.note_straggle(plan.straggler_mult(k, n));
        delivered[j] = 1;
      }
      if (detail::degraded_uniform_average(client_w, clients, delivered,
                                           opts.on_fault, opts.stale_decay,
                                           k, stale, result.w, result.w,
                                           agg, &pool)) {
        tensor::project_l2_ball(result.w, opts.w_radius);
      }
    }
    result.comm.edge_cloud_rounds += 1;
    result.comm.edge_cloud_models_up +=
        static_cast<std::uint64_t>(clients.size());
    result.comm.edge_cloud_bytes +=
        static_cast<std::uint64_t>(clients.size()) *
        (sim::payload_bytes(d, 0) +
         sim::payload_bytes(d, opts.quantize_bits));

    detail::update_running_average(result.w_avg, result.w, k, &pool);
    detail::maybe_record(model, fed, pool, k + 1, opts.rounds,
                         opts.eval_every, result.w, result.comm,
                         result.history);
    detail::snapshot_round_end(opts.snapshot, k, rs);
  }
  return result;
}

TrainResult train_fedavg(const nn::Model& model,
                         const data::FederatedDataset& fed,
                         const TrainOptions& opts) {
  return train_fedavg(model, fed, opts, parallel::ThreadPool::global());
}

}  // namespace hm::algo
