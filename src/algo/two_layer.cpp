// The one two-layer round loop. FedAvg, DRFA, Stochastic-AFL and q-FFL
// are the same coordinator over a flat client set that talks to the
// server directly over the wide-area link (all traffic is charged as
// edge-cloud); the entry point picks the variant:
//
//   variant          client sampling               checkpoint + Phase 2   aggregation
//   FedAvg           uniform, without replacement  no                     mean / robust
//   DRFA             by q, with replacement        yes                    mean / robust
//   Stochastic-AFL   DRFA with tau1 = tau2 = 1     yes                    mean / robust
//   q-FFL            uniform, without replacement  no; loss pass at w     q-FedAvg update
//
// DRFA's weight vector q is over clients, as in the original two-layer
// formulations; it is reported per edge area (edge_weights_from_clients),
// and the min-only variants report uniform p. Why these methods do not
// run on the hierarchical engine: DESIGN.md, "One two-layer round loop".
#include <algorithm>
#include <cmath>

#include "algo/drfa.hpp"
#include "algo/fault_config.hpp"
#include "algo/fedavg.hpp"
#include "algo/local_sgd.hpp"
#include "algo/qffl.hpp"
#include "algo/trainer_common.hpp"
#include "core/check.hpp"
#include "obs/obs.hpp"
#include "sim/quantize.hpp"
#include "tensor/vecops.hpp"

namespace hm::algo {

namespace {

using detail::Participants;

enum class Variant { kFedAvg, kDrfa, kStochasticAfl, kQffl };

/// Per-variant constants, indexed by Variant. Span names and algo ids are
/// part of the trace schema and the snapshot format; Stochastic-AFL is
/// DRFA on a one-step schedule and shares both.
struct VariantInfo {
  const char* trainer;  // entry point, named in option errors
  bool minimax;  // q-weighted sampling, checkpoint, Phase 2; p from q
  bool qffl;     // loss pass at w and the q-FedAvg update
  std::uint64_t algo_id;
  const char* round_span;
};

constexpr VariantInfo kVariants[] = {
    {"train_fedavg", false, false, detail::kAlgoFedAvg, "fedavg.round"},
    {"train_drfa", true, false, detail::kAlgoDrfa, "drfa.round"},
    {"train_stochastic_afl", true, false, detail::kAlgoDrfa, "drfa.round"},
    {"train_qffl", false, true, detail::kAlgoQffl, "qffl.round"},
};

void count_round(Variant v) {
  // One call site per counter: HM_OBS_INC caches its counter statically.
  switch (v) {
    case Variant::kFedAvg: HM_OBS_INC("algo.fedavg.rounds"); break;
    case Variant::kDrfa:
    case Variant::kStochasticAfl: HM_OBS_INC("algo.drfa.rounds"); break;
    case Variant::kQffl: HM_OBS_INC("algo.qffl.rounds"); break;
  }
}

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

/// Whether client n's report of kind `msg` reaches the server in round
/// k: offline (crashed or churned-away) clients never send, dropped
/// clients' reports are lost, link loss burns the retry budget,
/// stragglers arrive late.
bool reaches_server(const sim::FaultPlan& plan, index_t k, index_t n,
                    std::uint64_t msg, sim::LinkFaultStats& fault) {
  if (plan.client_offline(k, n)) return false;
  if (plan.client_dropped(k, n)) {
    fault.note_lost_report();
    return false;
  }
  if (!plan.deliver(k, sim::fault_msg(msg, n), fault)) return false;
  fault.note_straggle(plan.straggler_mult(k, n));
  return true;
}

TrainResult run_two_layer(const nn::Model& model,
                          const data::FederatedDataset& fed,
                          const TrainOptions& opts, Variant variant,
                          parallel::ThreadPool& pool) {
  const VariantInfo& info = kVariants[static_cast<std::size_t>(variant)];
  const bool minimax = info.minimax;
  detail::require_inproc(opts, info.trainer);
  fed.validate();
  HM_CHECK(opts.rounds > 0 && opts.tau1 > 0);
  if (minimax) HM_CHECK(opts.eta_p > 0);
  if (info.qffl) {
    HM_CHECK(opts.eta_w > 0);
    HM_CHECK_MSG(opts.q >= 0, "q must be nonnegative, got " << opts.q);
    HM_CHECK_MSG(!opts.fault.enabled && opts.aggregate == Aggregate::kMean,
                 info.trainer
                     << " takes no fault plan and combines reports with "
                        "its own q-FedAvg update: got fault.enabled = "
                     << (opts.fault.enabled ? "true" : "false")
                     << ", aggregate = '"
                     << to_string(opts.aggregate) << "'");
  }
  const index_t d = model.num_params();
  const index_t num_clients = fed.num_clients();
  const index_t m =
      opts.sampled_clients > 0 ? opts.sampled_clients : num_clients;
  HM_CHECK(m <= num_clients);
  // The client-level weight set mirrors opts.p_set scaled to N clients
  // only in the full-simplex case; capped sets are re-validated here.
  if (minimax) HM_CHECK(opts.p_set.feasible(num_clients));

  rng::Xoshiro256 root(opts.seed);
  const sim::FaultPlan plan(opts.fault);

  TrainResult result;
  result.w.assign(static_cast<std::size_t>(d), 0);
  {
    rng::Xoshiro256 init_gen = root.split(detail::kTagInit);
    model.init_params(result.w, init_gen);
  }
  result.w_avg = result.w;
  sim::CommStats& comm = result.comm;

  std::vector<scalar_t> q;  // DRFA's per-client weights
  std::vector<scalar_t> q_avg;
  std::vector<std::vector<scalar_t>> client_w(
      static_cast<std::size_t>(num_clients),
      std::vector<scalar_t>(static_cast<std::size_t>(d)));
  std::vector<std::vector<scalar_t>> client_ckpt;
  std::vector<scalar_t> checkpoint;
  // Loss estimation scores every sampled client at the one shared
  // checkpoint; a single workspace + one loss_many call lets the model
  // fuse the whole sweep into stacked evaluation blocks.
  std::unique_ptr<nn::Workspace> loss_ws;
  if (minimax) {
    q = detail::uniform_weights(num_clients);
    q_avg = q;
    client_ckpt = client_w;
    checkpoint.resize(static_cast<std::size_t>(d));
    loss_ws = model.make_workspace();
  }
  std::vector<scalar_t> client_loss;  // q-FFL: F_k at the broadcast model
  std::vector<scalar_t> update;       // q-FFL: sum_k F_k^q Delta w_k
  if (info.qffl) {
    client_loss.assign(static_cast<std::size_t>(num_clients), 0);
    update.resize(static_cast<std::size_t>(d));
  }
  std::vector<ClientScratch> scratch(static_cast<std::size_t>(num_clients));
  const sim::ClusterSim cluster(pool);
  detail::StaleStore stale;
  if (opts.on_fault == OnFault::kReuseStale) stale.init(num_clients);
  detail::PoisonStore poison;
  // Reports per participant and round: the model, plus the checkpoint
  // (DRFA); q-FFL adds two scalars, F_k and h_k.
  const std::uint64_t uploads = minimax ? 2 : 1;
  const std::uint64_t scalars_up = info.qffl ? 2 : 0;

  detail::RunState rs;
  rs.algo_id = info.algo_id;
  rs.options = options_record(opts, {num_clients});
  rs.root = &root;
  rs.w = &result.w;
  rs.w_avg = &result.w_avg;
  if (minimax) {
    rs.aux = &q;
    rs.aux_avg = &q_avg;
  }
  rs.comm = &comm;
  rs.stale = &stale;
  rs.history = &result.history;
  const index_t k0 = detail::resume_round(opts.resume_from, rs);

  if (k0 == 0) {
    detail::maybe_record(model, fed, pool, 0, opts.rounds, opts.eval_every,
                         result.w, comm, result.history);
  }

  LocalSgdConfig cfg;
  cfg.steps = opts.tau1;
  cfg.batch_size = opts.batch_size;
  cfg.eta = opts.eta_w;
  cfg.w_radius = opts.w_radius;
  cfg.weight_decay = opts.weight_decay;
  cfg.prox_mu = opts.prox_mu;
  // At most m participants a round, so `gens` never reallocates under
  // the jobs that point into it.
  std::vector<LocalSgdJob> jobs;
  std::vector<rng::Xoshiro256> gens;
  jobs.reserve(static_cast<std::size_t>(m));
  gens.reserve(static_cast<std::size_t>(m));

  // A due snapshot is written while the next round runs (DESIGN.md §10).
  io::SnapshotWriter writer(opts.snapshot.dir, opts.snapshot.keep);
  for (index_t k = k0; k < opts.rounds; ++k) {
    HM_OBS_SPAN(info.round_span, "algo", k, 0);
    count_round(variant);
    rng::Xoshiro256 round_gen = root.split(static_cast<std::uint64_t>(k) + 1);

    // --- Phase 1: sample m clients (DRFA: by q, with checkpoint step c
    // in [tau1]), local SGD, uplink.
    const detail::RoundDraw draw = detail::draw_round(
        round_gen, minimax ? &q : nullptr, num_clients, m, opts.tau1, 1);
    const Participants& parts = draw.parts;
    cfg.checkpoint_step = draw.c1;
    const auto participating = static_cast<std::uint64_t>(parts.ids.size());
    comm.edge_cloud_models_down += participating;

    if (info.qffl) {
      // F_k at the broadcast model (full shard — exact, cheap here).
      HM_OBS_ADD("sim.device_jobs", parts.ids.size());
      cluster.run_devices(
          static_cast<index_t>(parts.ids.size()), [&](index_t j) {
            const index_t n = parts.ids[static_cast<std::size_t>(j)];
            const data::Dataset& shard = fed.client_shard_at(k, n);
            auto& sc = scratch[static_cast<std::size_t>(n)];
            sc.ensure(model);
            client_loss[static_cast<std::size_t>(n)] = model.loss(
                result.w, shard, nn::all_indices(shard.size()), *sc.ws);
          });
    }
    jobs.clear();
    gens.clear();
    for (const index_t n : parts.ids) {
      gens.push_back(round_gen.split(detail::kTagLocal)
                         .split(static_cast<std::uint64_t>(n)));
      const data::Dataset* shard = &fed.client_shard_at(k, n);
      if (plan.client_poisoned(k, n)) shard = &poison.get(*shard, n);
      const auto i = static_cast<std::size_t>(n);
      jobs.push_back({shard, client_w[i],
                      minimax ? nn::VecView(client_ckpt[i]) : nn::VecView(),
                      &gens.back(), n, result.w});
    }
    run_local_sgd_jobs(model, cfg, jobs, scratch, cluster);
    if (opts.quantize_bits > 0) {
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const auto i = static_cast<std::size_t>(parts.ids[j]);
        rng::Xoshiro256 qgen = gens[j].split(detail::kTagQuant);
        sim::quantize_payload(client_w[i], opts.quantize_bits, qgen);
        if (minimax) {
          sim::quantize_payload(client_ckpt[i], opts.quantize_bits, qgen);
        }
      }
    }
    if (plan.payload_attack()) {
      // Byzantine uploads: compromised clients corrupt their model report
      // against the round's broadcast model (result.w still holds it).
      // DRFA's checkpoint upload is the variance-reduction scaffolding
      // for Phase 2 and stays honest (DESIGN.md §13).
      for (const index_t n : parts.ids) {
        if (!plan.client_attacker(k, n)) continue;
        plan.corrupt_payload(k, n, result.w.data(),
                             client_w[static_cast<std::size_t>(n)].data(), d);
      }
    }

    bool aggregated = true;
    if (info.qffl) {
      // w <- w - sum_k F_k^q Delta w_k / sum_k (q F_k^{q-1} ||Delta w_k||^2
      // + L F_k^q), with Delta w_k = L (w - w_bar_k) and L = 1/eta_w.
      const scalar_t lipschitz = 1 / opts.eta_w;
      const scalar_t q_exp = opts.q;
      std::fill(update.begin(), update.end(), scalar_t{0});
      scalar_t h_total = 0;
      for (const index_t n : parts.ids) {
        const auto& w_bar = client_w[static_cast<std::size_t>(n)];
        const scalar_t f_k = std::max<scalar_t>(
            client_loss[static_cast<std::size_t>(n)], 1e-10);
        const scalar_t f_q = std::pow(f_k, q_exp);
        scalar_t delta_sq = 0;
        for (std::size_t i = 0; i < update.size(); ++i) {
          const scalar_t delta_i = lipschitz * (result.w[i] - w_bar[i]);
          update[i] += f_q * delta_i;
          delta_sq += delta_i * delta_i;
        }
        h_total +=
            (q_exp > 0 ? q_exp * std::pow(f_k, q_exp - 1) * delta_sq : 0) +
            lipschitz * f_q;
      }
      HM_CHECK(h_total > 0);
      tensor::axpy(-1 / h_total, update, nn::VecView(result.w));
      tensor::project_l2_ball(result.w, opts.w_radius);
    } else {
      // Every delivered client report carries its checkpoint (DRFA).
      std::vector<char> delivered(parts.ids.size(), 1);
      if (plan.enabled()) {
        for (std::size_t j = 0; j < parts.ids.size(); ++j) {
          delivered[j] = reaches_server(plan, k, parts.ids[j],
                                        sim::kMsgModelUp,
                                        comm.edge_cloud_fault);
        }
      }
      aggregated = detail::cloud_aggregate(
          client_w, minimax ? &client_ckpt : nullptr, {}, parts, delivered,
          opts, k, stale, result.w, checkpoint, &pool);
    }
    comm.edge_cloud_rounds += 1;
    comm.edge_cloud_models_up += uploads * participating;
    comm.edge_cloud_scalars += scalars_up * participating;
    comm.edge_cloud_bytes +=
        participating * (sim::payload_bytes(d, 0) +
                         uploads * sim::payload_bytes(d, opts.quantize_bits) +
                         8 * scalars_up);

    // --- Phase 2 (DRFA): uniform client sample, loss estimation at the
    // checkpoint. A skipped Phase 1 (kSkipRound with casualties, or no
    // survivors at all) also skips the q ascent: there is no fresh
    // checkpoint to estimate losses at, so the round leaves (w, q)
    // untouched.
    if (minimax && aggregated) {
      rng::Xoshiro256 uniform_gen = round_gen.split(detail::kTagSampleUniform);
      const auto loss_clients =
          rng::sample_without_replacement(num_clients, m, uniform_gen);
      comm.edge_cloud_models_down +=
          static_cast<std::uint64_t>(loss_clients.size());
      // Draw every surviving client's estimation batch (per-client RNG
      // streams, independent of evaluation order), then score them all in
      // one fused loss_many sweep at the shared checkpoint. Loss reports
      // ride the same faulty wide-area link as models; only delivered
      // reports enter the ascent, and the importance weight is
      // renormalized to the delivered count.
      std::vector<std::vector<index_t>> batches(loss_clients.size());
      std::vector<nn::LossJob> loss_jobs;
      std::vector<index_t> job_client;
      loss_jobs.reserve(loss_clients.size());
      job_client.reserve(loss_clients.size());
      for (std::size_t j = 0; j < loss_clients.size(); ++j) {
        const index_t n = loss_clients[j];
        if (plan.enabled() && !reaches_server(plan, k, n, sim::kMsgLossUp,
                                              comm.edge_cloud_fault)) {
          continue;
        }
        // Drift-aware: Phase 2 estimates losses on the shard the client
        // holds *now*, so q tracks the current worst clients. Loss
        // reports are honest even for label-flip attackers — the attack
        // corrupts training, not measurement.
        const data::Dataset& shard = fed.client_shard_at(k, n);
        batches[j] = detail::loss_batch(
            shard.size(), opts.loss_est_batch,
            round_gen.split(detail::kTagLoss)
                .split(static_cast<std::uint64_t>(n)));
        loss_jobs.push_back(nn::LossJob{checkpoint, &shard, batches[j]});
        job_client.push_back(n);
      }
      std::vector<scalar_t> losses(loss_jobs.size());
      model.loss_many(loss_jobs, losses, *loss_ws, &pool);
      comm.edge_cloud_scalars +=
          static_cast<std::uint64_t>(loss_clients.size());
      comm.edge_cloud_rounds += 1;
      comm.edge_cloud_bytes +=
          static_cast<std::uint64_t>(loss_clients.size()) *
          (sim::payload_bytes(d, 0) + 8);

      detail::ascent_step(job_client, losses, opts.eta_p,
                          std::span<const index_t>(&opts.tau1, 1),
                          opts.p_set, q);
    }

    detail::update_running_average(result.w_avg, result.w, k, &pool);
    if (minimax) detail::update_running_average(q_avg, q, k);
    detail::maybe_record(model, fed, pool, k + 1, opts.rounds,
                         opts.eval_every, result.w, comm, result.history);
    detail::snapshot_round_end(opts.snapshot, k, rs, writer);
  }
  writer.wait();

  if (minimax) {
    result.p =
        edge_weights_from_clients(q, fed.num_edges(), fed.clients_per_edge);
    result.p_avg = edge_weights_from_clients(q_avg, fed.num_edges(),
                                             fed.clients_per_edge);
  } else {
    result.p = detail::uniform_weights(fed.num_edges());
    result.p_avg = result.p;
  }
  return result;
}

}  // namespace

TrainResult train_fedavg(const nn::Model& model,
                         const data::FederatedDataset& fed,
                         const TrainOptions& opts,
                         parallel::ThreadPool& pool) {
  return run_two_layer(model, fed, opts, Variant::kFedAvg, pool);
}

TrainResult train_drfa(const nn::Model& model,
                       const data::FederatedDataset& fed,
                       const TrainOptions& opts, parallel::ThreadPool& pool) {
  return run_two_layer(model, fed, opts, Variant::kDrfa, pool);
}

TrainResult train_stochastic_afl(const nn::Model& model,
                                 const data::FederatedDataset& fed,
                                 const TrainOptions& opts,
                                 parallel::ThreadPool& pool) {
  TrainOptions afl_opts = opts;
  afl_opts.tau1 = 1;  // single-step local update per round
  afl_opts.tau2 = 1;
  return run_two_layer(model, fed, afl_opts, Variant::kStochasticAfl, pool);
}

TrainResult train_qffl(const nn::Model& model,
                       const data::FederatedDataset& fed,
                       const TrainOptions& opts, parallel::ThreadPool& pool) {
  return run_two_layer(model, fed, opts, Variant::kQffl, pool);
}

}  // namespace hm::algo
