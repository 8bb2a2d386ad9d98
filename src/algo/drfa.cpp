#include "algo/drfa.hpp"

#include "algo/local_sgd.hpp"
#include "sim/quantize.hpp"
#include "algo/trainer_common.hpp"
#include "core/check.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/vecops.hpp"

namespace hm::algo {

namespace {

using detail::Participants;

/// Collapse a per-client weight vector to per-edge weights for reporting.
std::vector<scalar_t> edge_weights_from_clients(
    const std::vector<scalar_t>& q, index_t num_edges,
    index_t clients_per_edge) {
  std::vector<scalar_t> p(static_cast<std::size_t>(num_edges), 0);
  for (index_t n = 0; n < static_cast<index_t>(q.size()); ++n) {
    p[static_cast<std::size_t>(n / clients_per_edge)] +=
        q[static_cast<std::size_t>(n)];
  }
  return p;
}

}  // namespace

TrainResult train_drfa(const nn::Model& model,
                       const data::FederatedDataset& fed,
                       const TrainOptions& opts, parallel::ThreadPool& pool) {
  detail::require_inproc(opts, "train_drfa");
  fed.validate();
  HM_CHECK(opts.rounds > 0 && opts.tau1 > 0 && opts.eta_p > 0);
  const index_t d = model.num_params();
  const index_t num_clients = fed.num_clients();
  const index_t m =
      opts.sampled_clients > 0 ? opts.sampled_clients : num_clients;
  HM_CHECK(m <= num_clients);
  // The client-level weight set mirrors opts.p_set scaled to N clients
  // only in the full-simplex case; capped sets are re-validated here.
  SimplexSet q_set = opts.p_set;
  HM_CHECK(q_set.feasible(num_clients));

  rng::Xoshiro256 root(opts.seed);
  const sim::FaultPlan plan(opts.fault);

  TrainResult result;
  result.w.assign(static_cast<std::size_t>(d), 0);
  {
    rng::Xoshiro256 init_gen = root.split(detail::kTagInit);
    model.init_params(result.w, init_gen);
  }
  result.w_avg = result.w;
  detail::StaleStore stale;
  if (plan.enabled()) stale.init(num_clients);
  detail::PoisonStore poison;
  const detail::AggregateSpec agg{opts.aggregate, opts.trim_frac};

  std::vector<scalar_t> q = detail::uniform_weights(num_clients);
  std::vector<scalar_t> q_avg = q;

  std::vector<std::vector<scalar_t>> client_w(
      static_cast<std::size_t>(num_clients),
      std::vector<scalar_t>(static_cast<std::size_t>(d)));
  std::vector<std::vector<scalar_t>> client_ckpt = client_w;
  std::vector<ClientScratch> scratch(static_cast<std::size_t>(num_clients));
  // Loss estimation scores every sampled client at the one shared
  // checkpoint; a single workspace + one loss_many call lets the model
  // fuse the whole sweep into stacked evaluation blocks.
  const std::unique_ptr<nn::Workspace> loss_ws = model.make_workspace();
  const sim::ClusterSim cluster(pool);
  std::vector<scalar_t> checkpoint(static_cast<std::size_t>(d));

  detail::RunState rs;
  rs.algo_id = detail::kAlgoDrfa;
  rs.seed = opts.seed;
  rs.root = &root;
  rs.w = &result.w;
  rs.w_avg = &result.w_avg;
  rs.aux = &q;
  rs.aux_avg = &q_avg;
  rs.comm = &result.comm;
  rs.stale = &stale;
  rs.history = &result.history;
  const index_t k0 = detail::resume_round(opts.resume_from, rs);

  if (k0 == 0) {
    detail::maybe_record(model, fed, pool, 0, opts.rounds, opts.eval_every,
                         result.w, result.comm, result.history);
  }

  for (index_t k = k0; k < opts.rounds; ++k) {
    HM_OBS_SPAN("drfa.round", "algo", k, 0);
    HM_OBS_INC("algo.drfa.rounds");
    rng::Xoshiro256 round_gen = root.split(static_cast<std::uint64_t>(k) + 1);

    // --- Phase 1: sample m clients ~ q (with replacement), local SGD
    // with checkpoint index c in [tau1].
    rng::Xoshiro256 sample_gen = round_gen.split(detail::kTagSampleEdges);
    const Participants parts = Participants::from_draws(
        rng::sample_weighted_with_replacement(q, m, sample_gen));
    rng::Xoshiro256 ckpt_gen = round_gen.split(detail::kTagCheckpoint);
    const index_t c = 1 + static_cast<index_t>(ckpt_gen.uniform_index(
                              static_cast<std::uint64_t>(opts.tau1)));
    const auto participating = static_cast<std::uint64_t>(parts.ids.size());
    result.comm.edge_cloud_models_down += participating;

    LocalSgdConfig cfg;
    cfg.steps = opts.tau1;
    cfg.batch_size = opts.batch_size;
    cfg.eta = opts.eta_w;
    cfg.w_radius = opts.w_radius;
    cfg.weight_decay = opts.weight_decay;
    cfg.prox_mu = opts.prox_mu;
    cfg.checkpoint_step = c;
    std::vector<LocalSgdJob> jobs;
    std::vector<rng::Xoshiro256> gens;
    jobs.reserve(parts.ids.size());
    gens.reserve(parts.ids.size());
    for (const index_t n : parts.ids) {
      gens.push_back(round_gen.split(detail::kTagLocal)
                         .split(static_cast<std::uint64_t>(n)));
      const data::Dataset* shard = &fed.client_shard_at(k, n);
      if (plan.client_poisoned(k, n)) shard = &poison.get(*shard, n);
      jobs.push_back({shard, client_w[static_cast<std::size_t>(n)],
                      client_ckpt[static_cast<std::size_t>(n)], &gens.back(),
                      n, result.w});
    }
    run_local_sgd_jobs(model, cfg, jobs, scratch, cluster);
    if (opts.quantize_bits > 0) {
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const index_t n = parts.ids[j];
        rng::Xoshiro256 qgen = gens[j].split(detail::kTagQuant);
        sim::quantize_payload(client_w[static_cast<std::size_t>(n)],
                              opts.quantize_bits, qgen);
        sim::quantize_payload(client_ckpt[static_cast<std::size_t>(n)],
                              opts.quantize_bits, qgen);
      }
    }
    if (plan.payload_attack()) {
      // Only the model report is corrupted; the checkpoint upload is the
      // variance-reduction scaffolding for Phase 2 and stays honest (see
      // DESIGN.md §13 for the threat-model boundary).
      for (const index_t n : parts.ids) {
        if (!plan.client_attacker(k, n)) continue;
        plan.corrupt_payload(k, n, result.w.data(),
                             client_w[static_cast<std::size_t>(n)].data(), d);
      }
    }

    bool aggregated = true;
    if (!plan.enabled()) {
      detail::robust_weighted_average(client_w, parts, agg, result.w, &pool);
      detail::weighted_average(client_ckpt, parts, checkpoint, &pool);
      tensor::project_l2_ball(result.w, opts.w_radius);
    } else {
      std::vector<char> delivered(parts.ids.size(), 0);
      for (std::size_t j = 0; j < parts.ids.size(); ++j) {
        const index_t n = parts.ids[j];
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
      aggregated = detail::degraded_weighted_average(
          client_w, parts, delivered, opts.on_fault, opts.stale_decay, k,
          stale, result.w, result.w, agg, &pool);
      if (aggregated) {
        // Checkpoint: only delivered reports carry one; renormalize over
        // the survivors. With no surviving checkpoint (possible under
        // kReuseStale), estimate Phase-2 losses on the aggregate instead.
        Participants surv;
        for (std::size_t j = 0; j < parts.ids.size(); ++j) {
          if (!delivered[j]) continue;
          surv.ids.push_back(parts.ids[j]);
          surv.multiplicity.push_back(parts.multiplicity[j]);
          surv.total += parts.multiplicity[j];
        }
        if (surv.ids.empty()) {
          tensor::copy(result.w, checkpoint);
        } else {
          detail::weighted_average(client_ckpt, surv, checkpoint, &pool);
        }
        tensor::project_l2_ball(result.w, opts.w_radius);
      }
    }
    result.comm.edge_cloud_rounds += 1;
    result.comm.edge_cloud_models_up += 2 * participating;  // model + ckpt
    result.comm.edge_cloud_bytes +=
        participating * (sim::payload_bytes(d, 0) +
                         2 * sim::payload_bytes(d, opts.quantize_bits));

    // --- Phase 2: uniform client sample, loss estimation at checkpoint.
    // A skipped Phase 1 (kSkipRound with casualties, or no survivors at
    // all) also skips the q ascent: there is no fresh checkpoint to
    // estimate losses at, so the round leaves (w, q) untouched.
    if (aggregated) {
      rng::Xoshiro256 uniform_gen = round_gen.split(detail::kTagSampleUniform);
      const auto loss_clients =
          rng::sample_without_replacement(num_clients, m, uniform_gen);
      result.comm.edge_cloud_models_down +=
          static_cast<std::uint64_t>(loss_clients.size());
      // Loss reports ride the same faulty wide-area link as models; only
      // delivered reports enter the ascent, and the importance weight is
      // renormalized to the delivered count.
      std::vector<char> loss_ok(loss_clients.size(), 1);
      std::uint64_t num_loss_ok = static_cast<std::uint64_t>(loss_clients.size());
      if (plan.enabled()) {
        for (std::size_t j = 0; j < loss_clients.size(); ++j) {
          const index_t n = loss_clients[j];
          if (plan.client_offline(k, n)) {
            loss_ok[j] = 0;
          } else if (plan.client_dropped(k, n)) {
            result.comm.edge_cloud_fault.note_lost_report();
            loss_ok[j] = 0;
          } else if (!plan.deliver(k, sim::fault_msg(sim::kMsgLossUp, n),
                                   result.comm.edge_cloud_fault)) {
            loss_ok[j] = 0;
          } else {
            result.comm.edge_cloud_fault.note_straggle(
                plan.straggler_mult(k, n));
          }
          if (!loss_ok[j]) num_loss_ok -= 1;
        }
      }
      std::vector<scalar_t> losses(loss_clients.size(), 0);
      // Draw every surviving client's estimation batch (per-client RNG
      // streams, independent of evaluation order), then score them all in
      // one fused loss_many sweep at the shared checkpoint.
      std::vector<std::vector<index_t>> batches(loss_clients.size());
      std::vector<nn::LossJob> loss_jobs;
      std::vector<std::size_t> job_slot;
      loss_jobs.reserve(loss_clients.size());
      job_slot.reserve(loss_clients.size());
      for (std::size_t j = 0; j < loss_clients.size(); ++j) {
        if (!loss_ok[j]) continue;
        const index_t n = loss_clients[j];
        // Drift-aware: Phase 2 estimates losses on the shard the client
        // holds *now*, so q tracks the current worst clients. Loss
        // reports are honest even for label-flip attackers — the attack
        // corrupts training, not measurement.
        const data::Dataset& shard = fed.client_shard_at(k, n);
        rng::Xoshiro256 gen = round_gen.split(detail::kTagLoss)
                                  .split(static_cast<std::uint64_t>(n));
        auto& batch = batches[j];
        if (opts.loss_est_batch > 0) {
          batch.resize(static_cast<std::size_t>(opts.loss_est_batch));
          for (auto& idx : batch) {
            idx = static_cast<index_t>(gen.uniform_index(
                static_cast<std::uint64_t>(shard.size())));
          }
        } else {
          batch = nn::all_indices(shard.size());
        }
        loss_jobs.push_back(nn::LossJob{checkpoint, &shard, batch});
        job_slot.push_back(j);
      }
      std::vector<scalar_t> job_losses(loss_jobs.size());
      model.loss_many(loss_jobs, job_losses, *loss_ws);
      for (std::size_t s = 0; s < loss_jobs.size(); ++s) {
        losses[job_slot[s]] = job_losses[s];
      }
      result.comm.edge_cloud_scalars +=
          static_cast<std::uint64_t>(loss_clients.size());
      result.comm.edge_cloud_rounds += 1;
      result.comm.edge_cloud_bytes +=
          static_cast<std::uint64_t>(loss_clients.size()) *
          (sim::payload_bytes(d, 0) + 8);

      if (num_loss_ok > 0) {
        const scalar_t scale_v = static_cast<scalar_t>(num_clients) /
                                 static_cast<scalar_t>(num_loss_ok);
        const scalar_t step = opts.eta_p * static_cast<scalar_t>(opts.tau1);
        for (std::size_t j = 0; j < loss_clients.size(); ++j) {
          if (!loss_ok[j]) continue;
          q[static_cast<std::size_t>(loss_clients[j])] +=
              step * scale_v * losses[j];
        }
        project_capped_simplex(q, q_set);
      }
    }

    detail::update_running_average(result.w_avg, result.w, k, &pool);
    detail::update_running_average(q_avg, q, k);
    detail::maybe_record(model, fed, pool, k + 1, opts.rounds,
                         opts.eval_every, result.w, result.comm,
                         result.history);
    detail::snapshot_round_end(opts.snapshot, k, rs);
  }

  result.p =
      edge_weights_from_clients(q, fed.num_edges(), fed.clients_per_edge);
  result.p_avg = edge_weights_from_clients(q_avg, fed.num_edges(),
                                           fed.clients_per_edge);
  return result;
}

TrainResult train_drfa(const nn::Model& model,
                       const data::FederatedDataset& fed,
                       const TrainOptions& opts) {
  return train_drfa(model, fed, opts, parallel::ThreadPool::global());
}

TrainResult train_stochastic_afl(const nn::Model& model,
                                 const data::FederatedDataset& fed,
                                 const TrainOptions& opts,
                                 parallel::ThreadPool& pool) {
  detail::require_inproc(opts, "train_stochastic_afl");
  TrainOptions afl_opts = opts;
  afl_opts.tau1 = 1;  // single-step local update per round
  afl_opts.tau2 = 1;
  return train_drfa(model, fed, afl_opts, pool);
}

TrainResult train_stochastic_afl(const nn::Model& model,
                                 const data::FederatedDataset& fed,
                                 const TrainOptions& opts) {
  return train_stochastic_afl(model, fed, opts,
                              parallel::ThreadPool::global());
}

}  // namespace hm::algo
