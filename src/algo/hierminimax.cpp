// The one hierarchical round engine. train_hierminimax and
// train_hierfavg are the same coordinator loop over a detail::Hierarchy
// (the caller's tree and taus); the entry point picks the variant:
//
//   variant          area sampling                checkpoint  Phase 2
//   HierMinimax      by p, with replacement       yes         yes
//   HierFAVG         uniform, without replacement no          no
//
// Every stream comes from the tree path, so depth 2 with taus
// {tau2, tau1} is Algorithm 1 exactly (see DESIGN.md §2, "One
// hierarchical round engine", for the stream rule).
#include "algo/hierminimax.hpp"

#include "algo/edge_channel.hpp"
#include "algo/hierfavg.hpp"
#include "algo/trainer_common.hpp"
#include "core/check.hpp"
#include "obs/obs.hpp"
#include "sim/liveness.hpp"
#include "sim/quantize.hpp"
#include "tensor/vecops.hpp"

namespace hm::algo {

namespace {

using detail::Hierarchy;
using detail::Participants;

enum class Variant { kHierMinimax, kHierFavg };

/// Per-variant constants, indexed by Variant. Span names are part of the
/// trace schema; HierFAVG has no Phase 2 span.
struct VariantInfo {
  bool minimax;  // p-weighted sampling, checkpoint and Phase 2
  std::uint64_t algo_id;
  const char* round_span;
  const char* phase1_span;
  const char* phase2_span;
};

constexpr VariantInfo kVariants[] = {
    {true, detail::kAlgoHierMinimax, "hierminimax.round",
     "hierminimax.phase1", "hierminimax.phase2"},
    {false, detail::kAlgoHierFavg, "hierfavg.round", "hierfavg.phase1",
     nullptr},
};

void count_round(Variant v) {
  // One call site per counter: HM_OBS_INC caches its counter statically.
  switch (v) {
    case Variant::kHierMinimax: HM_OBS_INC("algo.hierminimax.rounds"); break;
    case Variant::kHierFavg: HM_OBS_INC("algo.hierfavg.rounds"); break;
  }
}

void validate_inputs(const nn::Model& model, const data::FederatedDataset& fed,
                     const Hierarchy& h, bool minimax) {
  const TrainOptions& opts = h.opts;
  fed.validate();
  HM_CHECK_MSG(h.tree.depth() >= 2,
               "a hierarchical run needs a tree of depth >= 2, got depth "
                   << h.tree.depth());
  for (const index_t t : h.taus) HM_CHECK(t > 0);
  HM_CHECK_MSG(fed.num_edges() == h.tree.num_areas(),
               "dataset has " << fed.num_edges() << " edges, topology "
                              << h.tree.num_areas());
  HM_CHECK(fed.clients_per_edge == h.tree.leaves_per_area());
  HM_CHECK(fed.dim() == model.input_dim());
  HM_CHECK(fed.num_classes() == model.num_classes());
  HM_CHECK(opts.rounds > 0 && opts.eta_w > 0);
  HM_CHECK(opts.sampled_edges >= 0 &&
           opts.sampled_edges <= h.tree.num_areas());
  if (minimax) {
    HM_CHECK(opts.eta_p > 0);
    HM_CHECK(opts.p_set.feasible(h.tree.num_areas()));
  }
  HM_CHECK(opts.transport.workers >= 0);
  HM_CHECK(opts.transport.rpc_timeout_ms > 0);
  HM_CHECK(opts.transport.rpc_retries >= 0 &&
           opts.transport.rpc_backoff_ms >= 0);
}

// The coordinator half of Algorithm 1. Everything area-and-below (local
// SGD, the per-node aggregations, Phase-2 loss scoring) lives behind the
// EdgeChannel; the coordinator keeps sampling, the cloud hops (uplink
// quantization, area-cloud aggregation, the ascent step), snapshots, and
// ALL comm metering. Fault accounting accumulates order-sensitive
// floating-point sums (LinkFaultStats.extra_rtts), so the coordinator
// replays the per-block delivery loops in a fixed order from pure
// FaultPlan queries — identically whether the area computation ran
// in-process or in forked workers.
TrainResult run_engine(const nn::Model& model,
                       const data::FederatedDataset& fed,
                       const sim::MultiTopology& topo,
                       const TrainOptions& opts, Variant variant,
                       parallel::ThreadPool& pool) {
  const VariantInfo& info = kVariants[static_cast<std::size_t>(variant)];
  const bool minimax = info.minimax;
  const Hierarchy h{topo, resolve_taus(opts, topo.depth()), opts};
  validate_inputs(model, fed, h, minimax);
  const index_t d = model.num_params();
  const index_t num_edges = h.tree.num_areas();        // N_E
  const index_t n0 = h.tree.leaves_per_area();         // N_0
  const index_t m_e = opts.sampled_edges > 0 ? opts.sampled_edges : num_edges;
  // Reports per area and hop: the model, plus the checkpoint (minimax).
  const std::uint64_t uploads = minimax ? 2 : 1;

  rng::Xoshiro256 root(opts.seed);
  const sim::FaultPlan plan(opts.fault);

  TrainResult result;
  result.w.assign(static_cast<std::size_t>(d), 0);
  {
    rng::Xoshiro256 init_gen = root.split(detail::kTagInit);
    model.init_params(result.w, init_gen);
  }
  result.p = detail::uniform_weights(num_edges);  // fixed for HierFAVG
  result.w_avg = result.w;
  result.p_avg = result.p;
  sim::CommStats& comm = result.comm;
  sim::LinkFaultStats& leaf_fault = comm.client_edge_fault;
  sim::LinkFaultStats& top_fault = comm.edge_cloud_fault;

  // Interior links (depth >= 3) carry no faults, so their traffic per
  // participating area is the same every round: each block of a
  // depth-l node broadcasts to its children and collects their models,
  // and the minimax checkpoint climbs each link once at round end. One
  // client_edge round per synchronized block, as on the leaf link. Phase 2
  // passes the checkpoint down through every interior node, which sends
  // one loss scalar back up.
  std::uint64_t interior_blocks = 0;  // client_edge rounds per round
  std::uint64_t interior_down = 0;    // broadcasts per area and round
  std::uint64_t interior_up = 0;      // reports per area and round
  std::uint64_t interior_nodes = 0;   // interior nodes per area
  {
    std::uint64_t blocks = 1;
    for (index_t lv = 1; lv + 1 < h.tree.depth(); ++lv) {
      blocks *= static_cast<std::uint64_t>(
          h.taus[static_cast<std::size_t>(lv - 1)]);
      const auto children =
          static_cast<std::uint64_t>(h.tree.nodes_at(lv + 1) / num_edges);
      interior_nodes += children;
      interior_blocks += blocks;
      interior_down += blocks * children;
      interior_up += (blocks + (minimax ? 1 : 0)) * children;
    }
  }

  // Per-area mirrors on the coordinator. Inner vectors start empty and
  // materialize on first touch (with area sampling most areas may never
  // participate); once created a buffer persists, so later rounds see
  // exactly the stale contents an eager layout would have had.
  std::vector<std::vector<scalar_t>> edge_w(
      static_cast<std::size_t>(num_edges));
  std::vector<std::vector<scalar_t>> edge_ckpt(
      static_cast<std::size_t>(num_edges));
  const auto ensure = [d](std::vector<scalar_t>& v) -> std::vector<scalar_t>& {
    if (v.empty()) v.assign(static_cast<std::size_t>(d), 0);
    return v;
  };
  std::vector<scalar_t> checkpoint;
  std::vector<scalar_t> edge_losses;
  if (minimax) {
    checkpoint.resize(static_cast<std::size_t>(d));
    edge_losses.resize(static_cast<std::size_t>(num_edges));
  }

  // The area-and-below computation, in-process or in worker processes.
  const std::unique_ptr<detail::EdgeChannel> channel =
      detail::make_edge_channel(model, fed, h, pool);
  sim::EdgeLiveness live;
  live.init(num_edges);

  detail::StaleStore stale;
  if (plan.enabled() || channel->can_fail()) stale.init(num_edges);
  const detail::AggregateSpec agg{opts.aggregate, opts.trim_frac};
  // Whether area e captured a checkpoint in block c2 this round (an area
  // whose every leaf failed at that block has no fresh checkpoint).
  std::vector<char> edge_has_ckpt(static_cast<std::size_t>(num_edges), 1);

  detail::RunState rs;
  rs.algo_id = info.algo_id;
  rs.options = options_record(opts, h.tree.branching());
  rs.root = &root;
  rs.w = &result.w;
  if (minimax) rs.p = &result.p;
  rs.w_avg = &result.w_avg;
  if (minimax) rs.p_avg = &result.p_avg;
  rs.comm = &comm;
  rs.stale = &stale;
  rs.history = &result.history;
  const index_t k0 = detail::resume_round(opts.resume_from, rs);

  if (k0 == 0) {
    detail::maybe_record(model, fed, pool, 0, opts.rounds, opts.eval_every,
                         result.w, comm, result.history);
  }

  for (index_t k = k0; k < opts.rounds; ++k) {
    HM_OBS_SPAN(info.round_span, "algo", k, 0);
    count_round(variant);
    rng::Xoshiro256 round_gen = root.split(static_cast<std::uint64_t>(k) + 1);

    // --- Phase 1: sample areas (by p^(k) with replacement, so Eq. (5) is
    // unbiased; HierFAVG uniformly without) and the checkpoint index: the
    // iterate after c1 local steps of innermost block c2 (HierFAVG: none).
    rng::Xoshiro256 sample_gen = round_gen.split(detail::kTagSampleEdges);
    const Participants parts = Participants::from_draws(
        minimax
            ? rng::sample_weighted_with_replacement(result.p, m_e, sample_gen)
            : rng::sample_without_replacement(num_edges, m_e, sample_gen));
    index_t c1 = 0;
    index_t c2 = -1;
    if (minimax) {
      rng::Xoshiro256 ckpt_gen = round_gen.split(detail::kTagCheckpoint);
      c1 = 1 + static_cast<index_t>(ckpt_gen.uniform_index(
                   static_cast<std::uint64_t>(h.taus.back())));
      c2 = static_cast<index_t>(ckpt_gen.uniform_index(
          static_cast<std::uint64_t>(h.blocks_per_round())));
    }

    const auto participating =
        static_cast<std::uint64_t>(parts.ids.size());  // physical areas
    comm.edge_cloud_models_down += participating;

    // Seed + the subtree rounds for every participating area, wherever
    // that area's compute lives. A worker process that died marks its
    // areas in `live`.
    {
      HM_OBS_SPAN(info.phase1_span, "algo", k, parts.ids.size());
      channel->phase1(k, c1, c2, parts.ids, result.w, edge_w, edge_ckpt,
                      edge_has_ckpt, live);
    }

    // An area is down when the plan says so (simulated crash) or its
    // worker process actually died — both take the same degraded paths.
    const bool degraded = plan.enabled() || live.any_down();
    const auto edge_down = [&](index_t e) {
      return plan.edge_crashed(k, e) || live.down(e);
    };

    // Delivery metering for the leaf reports of every innermost block,
    // replayed in block, area, leaf order (fault-stat accumulation is
    // order-sensitive floating point).
    for (index_t t2 = 0; t2 < h.blocks_per_round(); ++t2) {
      if (plan.enabled()) {
        for (const index_t e : parts.ids) {
          if (edge_down(e)) continue;
          for (index_t c = e * n0; c < (e + 1) * n0; ++c) {
            if (plan.client_offline(k, c)) continue;  // silent, never sent
            if (plan.client_dropped(k, c)) {
              leaf_fault.note_lost_report();
              continue;
            }
            leaf_fault.note_delivered();
            leaf_fault.note_straggle(plan.straggler_mult(k, c));
          }
        }
      }
      comm.client_edge_rounds += 1;
      comm.client_edge_models_down +=
          participating * static_cast<std::uint64_t>(n0);
      comm.client_edge_models_up +=
          participating * static_cast<std::uint64_t>(n0) *
          (t2 == c2 ? 2 : 1);  // model + checkpoint at block c2
      comm.client_edge_bytes +=
          participating * static_cast<std::uint64_t>(n0) *
          (sim::payload_bytes(d, 0) +  // broadcast down, uncompressed
           static_cast<std::uint64_t>(t2 == c2 ? 2 : 1) *
               sim::payload_bytes(d, opts.quantize_bits));
    }
    comm.client_edge_rounds += interior_blocks;
    comm.client_edge_models_down += participating * interior_down;
    comm.client_edge_models_up += participating * interior_up;
    comm.client_edge_bytes += participating * (interior_down + interior_up) *
                              sim::payload_bytes(d, 0);

    // Uplink quantization of the per-area aggregates (Hier-Local-QSGD
    // style: both hops compress toward the cloud). The coordinator owns
    // this hop — workers return pre-quantization aggregates.
    if (opts.quantize_bits > 0) {
      for (const index_t e : parts.ids) {
        rng::Xoshiro256 qgen = round_gen.split(detail::kTagQuant)
                                   .split(static_cast<std::uint64_t>(e));
        sim::quantize_payload(edge_w[static_cast<std::size_t>(e)],
                              opts.quantize_bits, qgen);
        if (minimax) {
          sim::quantize_payload(
              ensure(edge_ckpt[static_cast<std::size_t>(e)]),
              opts.quantize_bits, qgen);
        }
      }
    }

    // Area-cloud aggregation: global model (Eq. 5) + checkpoint (Eq. 6).
    // Checkpoint aggregation stays a plain weighted mean: attackers
    // upload honest checkpoints (threat-model boundary, DESIGN.md §13).
    bool aggregated = true;
    if (!degraded) {
      detail::robust_weighted_average(edge_w, parts, agg, result.w, &pool);
      if (minimax) {
        if (opts.use_checkpoint) {
          detail::weighted_average(edge_ckpt, parts, checkpoint, &pool);
        } else {
          tensor::copy(result.w, checkpoint);  // ablation: last iterate
        }
      }
      tensor::project_l2_ball(result.w, opts.w_radius);
    } else {
      // Each participating area uploads its report over the faulty
      // wide-area link. A dead worker's areas simply never deliver (no
      // link-fault query — the process is gone).
      std::vector<char> delivered(parts.ids.size(), 0);
      for (std::size_t j = 0; j < parts.ids.size(); ++j) {
        const index_t e = parts.ids[j];
        if (edge_down(e)) continue;
        if (!plan.enabled() ||
            plan.deliver(k, sim::fault_msg(sim::kMsgModelUp, e),
                         top_fault)) {
          delivered[j] = 1;
        }
      }
      aggregated = detail::degraded_weighted_average(
          edge_w, parts, delivered, opts.on_fault, opts.stale_decay, k,
          stale, result.w, result.w, agg, &pool);
      if (aggregated && minimax) {
        if (opts.use_checkpoint) {
          // Checkpoints exist only for delivered areas that captured one
          // at block c2; renormalize over those. With none surviving,
          // fall back to the aggregate (last-iterate losses this round).
          Participants surv;
          for (std::size_t j = 0; j < parts.ids.size(); ++j) {
            const index_t e = parts.ids[j];
            if (!delivered[j] || !edge_has_ckpt[static_cast<std::size_t>(e)])
              continue;
            surv.ids.push_back(e);
            surv.multiplicity.push_back(parts.multiplicity[j]);
            surv.total += parts.multiplicity[j];
          }
          if (surv.ids.empty()) {
            tensor::copy(result.w, checkpoint);
          } else {
            detail::weighted_average(edge_ckpt, surv, checkpoint, &pool);
          }
        } else {
          tensor::copy(result.w, checkpoint);
        }
      }
      if (aggregated) tensor::project_l2_ball(result.w, opts.w_radius);
    }
    comm.edge_cloud_rounds += 1;
    comm.edge_cloud_models_up += uploads * participating;
    comm.edge_cloud_bytes +=
        participating * (sim::payload_bytes(d, 0) +  // broadcast down
                         uploads * sim::payload_bytes(d, opts.quantize_bits));

    // --- Phase 2: uniform area sample, loss estimation on the checkpoint.
    // A skipped Phase 1 (kSkipRound with casualties, or no surviving
    // reports at all) also skips the ascent: there is no fresh checkpoint
    // to estimate losses at, so the round leaves (w, p) untouched.
    if (minimax && aggregated) {
      HM_OBS_SPAN(info.phase2_span, "algo", k, 0);
      rng::Xoshiro256 uniform_gen = round_gen.split(detail::kTagSampleUniform);
      const auto losses_set =
          rng::sample_without_replacement(num_edges, m_e, uniform_gen);
      comm.edge_cloud_models_down +=
          static_cast<std::uint64_t>(losses_set.size());
      comm.client_edge_models_down +=
          static_cast<std::uint64_t>(losses_set.size()) *
          (static_cast<std::uint64_t>(n0) + interior_nodes);
      comm.client_edge_rounds += 1;

      std::fill(edge_losses.begin(), edge_losses.end(), scalar_t{0});
      const index_t loss_jobs = static_cast<index_t>(losses_set.size()) * n0;
      std::vector<scalar_t> client_losses(
          static_cast<std::size_t>(loss_jobs), 0);
      // Loss reports ride the same faulty links as models: a leaf report
      // can be lost on the leaf link, the per-area mean is over whichever
      // leaves reported, and the area's scalar can be lost on the
      // wide-area hop. Areas with nothing to report leave v_e = 0.
      std::vector<char> edge_ok(losses_set.size(), 1);
      std::vector<char> client_ok(static_cast<std::size_t>(loss_jobs), 1);
      std::vector<index_t> edge_nsurv(losses_set.size(), n0);
      std::uint64_t num_loss_edges =
          static_cast<std::uint64_t>(losses_set.size());
      if (degraded) {
        for (std::size_t j = 0; j < losses_set.size(); ++j) {
          const index_t e = losses_set[j];
          if (edge_down(e)) {
            edge_ok[j] = 0;
            edge_nsurv[j] = 0;
            for (index_t i = 0; i < n0; ++i) {
              client_ok[j * static_cast<std::size_t>(n0) +
                        static_cast<std::size_t>(i)] = 0;
            }
            num_loss_edges -= 1;
            continue;
          }
          index_t nsurv = 0;
          for (index_t i = 0; i < n0; ++i) {
            const index_t c = e * n0 + i;
            const std::size_t job =
                j * static_cast<std::size_t>(n0) + static_cast<std::size_t>(i);
            if (plan.client_offline(k, c)) {
              client_ok[job] = 0;
              continue;
            }
            if (plan.client_dropped(k, c)) {
              leaf_fault.note_lost_report();
              client_ok[job] = 0;
              continue;
            }
            if (plan.enabled()) {
              leaf_fault.note_delivered();
              leaf_fault.note_straggle(plan.straggler_mult(k, c));
            }
            nsurv += 1;
          }
          edge_nsurv[j] = nsurv;
          if (nsurv == 0 ||
              (plan.enabled() &&
               !plan.deliver(k, sim::fault_msg(sim::kMsgLossUp, e),
                             top_fault))) {
            edge_ok[j] = 0;
            num_loss_edges -= 1;
          }
        }
      }
      // Score every surviving leaf job at the shared checkpoint,
      // wherever that leaf's compute lives.
      channel->phase2(k, losses_set, checkpoint, client_ok, client_losses,
                      live);
      // A lane that died during Phase 2 delivered nothing: its areas'
      // loss reports are lost exactly like a failed wide-area delivery.
      if (channel->can_fail()) {
        for (std::size_t j = 0; j < losses_set.size(); ++j) {
          if (edge_ok[j] != 0 && live.down(losses_set[j])) {
            edge_ok[j] = 0;
            num_loss_edges -= 1;
          }
        }
      }
      for (index_t j = 0; j < static_cast<index_t>(losses_set.size()); ++j) {
        if (!edge_ok[static_cast<std::size_t>(j)]) continue;
        scalar_t f_e = 0;
        for (index_t i = 0; i < n0; ++i) {
          f_e += client_losses[static_cast<std::size_t>(j * n0 + i)];
        }
        edge_losses[static_cast<std::size_t>(
            losses_set[static_cast<std::size_t>(j)])] =
            f_e /
            static_cast<scalar_t>(edge_nsurv[static_cast<std::size_t>(j)]);
      }
      comm.client_edge_scalars +=
          static_cast<std::uint64_t>(losses_set.size()) *
          (static_cast<std::uint64_t>(n0) + interior_nodes);
      comm.edge_cloud_scalars +=
          static_cast<std::uint64_t>(losses_set.size());
      comm.edge_cloud_rounds += 1;
      // Phase-2 bytes: checkpoint broadcasts down every hop + scalar
      // losses up (one per leaf and per interior node, which forwards its
      // subtree's report).
      comm.edge_cloud_bytes +=
          static_cast<std::uint64_t>(losses_set.size()) *
              sim::payload_bytes(d, 0) +
          static_cast<std::uint64_t>(losses_set.size()) * 8;
      comm.client_edge_bytes +=
          static_cast<std::uint64_t>(losses_set.size()) *
              (static_cast<std::uint64_t>(n0) + interior_nodes) *
              (sim::payload_bytes(d, 0) + 8);

      // Ascent step (Eq. 7): v_e = (N_E/m_E) f_e on delivered areas, else
      // 0, with m_E renormalized to the delivered count. The step is
      // eta_p times the leaf iterations per round, taus.back() first.
      if (num_loss_edges > 0) {
        const scalar_t scale_v = static_cast<scalar_t>(num_edges) /
                                 static_cast<scalar_t>(num_loss_edges);
        scalar_t step = opts.eta_p;
        for (auto t = h.taus.rbegin(); t != h.taus.rend(); ++t) {
          step *= static_cast<scalar_t>(*t);
        }
        for (std::size_t j = 0; j < losses_set.size(); ++j) {
          if (!edge_ok[j]) continue;
          const index_t e = losses_set[j];
          result.p[static_cast<std::size_t>(e)] +=
              step * scale_v * edge_losses[static_cast<std::size_t>(e)];
        }
        project_capped_simplex(result.p, opts.p_set);
      }
    }

    detail::update_running_average(result.w_avg, result.w, k, &pool);
    if (minimax) detail::update_running_average(result.p_avg, result.p, k);
    detail::maybe_record(model, fed, pool, k + 1, opts.rounds,
                         opts.eval_every, result.w, comm, result.history);
    detail::snapshot_round_end(opts.snapshot, k, rs);
  }
  return result;
}

}  // namespace

TrainResult train_hierminimax(const nn::Model& model,
                              const data::FederatedDataset& fed,
                              const sim::MultiTopology& topo,
                              const TrainOptions& opts,
                              parallel::ThreadPool& pool) {
  return run_engine(model, fed, topo, opts, Variant::kHierMinimax, pool);
}

TrainResult train_hierfavg(const nn::Model& model,
                           const data::FederatedDataset& fed,
                           const sim::MultiTopology& topo,
                           const TrainOptions& opts,
                           parallel::ThreadPool& pool) {
  return run_engine(model, fed, topo, opts, Variant::kHierFavg, pool);
}

}  // namespace hm::algo
