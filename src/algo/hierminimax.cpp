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

#include <span>

#include "algo/edge_channel.hpp"
#include "algo/hierfavg.hpp"
#include "algo/trainer_common.hpp"
#include "core/check.hpp"
#include "obs/obs.hpp"
#include "sim/liveness.hpp"
#include "sim/quantize.hpp"

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

/// Meter area e's leaf reports of round k, in leaf order: offline leaves
/// send nothing, dropped ones are lost, the rest arrive, maybe late.
/// `ok` (empty or one per leaf) flags arrivals; returns their count.
index_t replay_leaf_reports(const sim::FaultPlan& plan, index_t k, index_t e,
                            index_t n0, sim::LinkFaultStats& fault,
                            std::span<char> ok = {}) {
  index_t arrived = 0;
  for (index_t i = 0; i < n0; ++i) {
    const index_t c = e * n0 + i;
    bool arrives = false;
    if (plan.client_offline(k, c)) {
      // silent, never sent
    } else if (plan.client_dropped(k, c)) {
      fault.note_lost_report();
    } else {
      if (plan.enabled()) fault.note_delivered();
      fault.note_straggle(plan.straggler_mult(k, c));
      arrives = true;
    }
    if (!ok.empty()) ok[static_cast<std::size_t>(i)] = arrives ? 1 : 0;
    arrived += arrives ? 1 : 0;
  }
  return arrived;
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
  if (minimax) checkpoint.resize(static_cast<std::size_t>(d));

  // The area-and-below computation, in-process or in worker processes.
  const std::unique_ptr<detail::EdgeChannel> channel =
      detail::make_edge_channel(model, fed, h, pool);
  sim::EdgeLiveness live;
  live.init(num_edges);

  detail::StaleStore stale;
  if (opts.on_fault == OnFault::kReuseStale) stale.init(num_edges);
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

  // A due snapshot is written while the next round runs (DESIGN.md §10).
  io::SnapshotWriter writer(opts.snapshot.dir, opts.snapshot.keep);
  for (index_t k = k0; k < opts.rounds; ++k) {
    HM_OBS_SPAN(info.round_span, "algo", k, 0);
    count_round(variant);
    rng::Xoshiro256 round_gen = root.split(static_cast<std::uint64_t>(k) + 1);

    // --- Phase 1: sample areas (HierMinimax by p^(k), HierFAVG
    // uniformly) and the checkpoint index: the iterate after c1 local
    // steps of innermost block c2 (HierFAVG: none).
    const detail::RoundDraw draw =
        detail::draw_round(round_gen, minimax ? &result.p : nullptr,
                           num_edges, m_e, h.taus.back(),
                           h.blocks_per_round());
    const Participants& parts = draw.parts;

    const auto participating =
        static_cast<std::uint64_t>(parts.ids.size());  // physical areas
    comm.edge_cloud_models_down += participating;

    // Seed + the subtree rounds for every participating area, wherever
    // that area's compute lives. A worker process that died marks its
    // areas in `live`.
    {
      HM_OBS_SPAN(info.phase1_span, "algo", k, parts.ids.size());
      channel->phase1(k, draw.c1, draw.c2, parts.ids, result.w, edge_w,
                      edge_ckpt, edge_has_ckpt, live);
    }

    // An area is down when the plan says so (simulated crash) or its
    // worker process actually died — both take the same degraded paths.
    const auto edge_down = [&](index_t e) {
      return plan.edge_crashed(k, e) || live.down(e);
    };

    // Delivery metering for the leaf reports of every innermost block,
    // replayed in block, area, leaf order.
    for (index_t t2 = 0; t2 < h.blocks_per_round(); ++t2) {
      for (const index_t e : parts.ids) {
        if (!edge_down(e)) replay_leaf_reports(plan, k, e, n0, leaf_fault);
      }
      const std::uint64_t up = t2 == draw.c2 ? 2 : 1;  // + checkpoint
      comm.client_edge_rounds += 1;
      comm.client_edge_models_down +=
          participating * static_cast<std::uint64_t>(n0);
      comm.client_edge_models_up +=
          participating * static_cast<std::uint64_t>(n0) * up;
      comm.client_edge_bytes +=
          participating * static_cast<std::uint64_t>(n0) *
          (sim::payload_bytes(d, 0) +  // broadcast down, uncompressed
           up * sim::payload_bytes(d, opts.quantize_bits));
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

    // Area-cloud aggregation (Eqs. 5-6). Each participating area uploads
    // its report over the wide-area link, faulty under an enabled plan; a
    // dead worker's areas simply never deliver (no link-fault query — the
    // process is gone).
    std::vector<char> delivered(parts.ids.size());
    for (std::size_t j = 0; j < parts.ids.size(); ++j) {
      const index_t e = parts.ids[j];
      delivered[j] =
          !edge_down(e) &&
          (!plan.enabled() ||
           plan.deliver(k, sim::fault_msg(sim::kMsgModelUp, e), top_fault));
    }
    const bool aggregated = detail::cloud_aggregate(
        edge_w, minimax ? &edge_ckpt : nullptr, edge_has_ckpt, parts,
        delivered, opts, k, stale, result.w, checkpoint, &pool);
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
      const auto scored = static_cast<std::uint64_t>(losses_set.size());
      const std::uint64_t per_area =  // loss reporters per scored area
          static_cast<std::uint64_t>(n0) + interior_nodes;
      comm.edge_cloud_models_down += scored;
      comm.client_edge_models_down += scored * per_area;
      comm.client_edge_rounds += 1;

      // Loss reports ride the same faulty links as models: a leaf report
      // can be lost on the leaf link, the per-area mean is over the
      // nsurv[j] leaves that reported, and the area's scalar can be lost
      // on the wide-area hop (nsurv[j] = 0: no report, so v_e = 0).
      const auto leaves = static_cast<std::size_t>(n0);
      std::vector<scalar_t> client_losses(losses_set.size() * leaves, 0);
      std::vector<char> client_ok(losses_set.size() * leaves, 0);
      std::vector<index_t> nsurv(losses_set.size(), 0);
      for (std::size_t j = 0; j < losses_set.size(); ++j) {
        const index_t e = losses_set[j];
        if (edge_down(e)) continue;
        nsurv[j] = replay_leaf_reports(
            plan, k, e, n0, leaf_fault,
            std::span<char>(client_ok.data() + j * leaves, leaves));
        if (nsurv[j] > 0 && plan.enabled() &&
            !plan.deliver(k, sim::fault_msg(sim::kMsgLossUp, e), top_fault)) {
          nsurv[j] = 0;
        }
      }
      // Score every surviving leaf job at the shared checkpoint,
      // wherever that leaf's compute lives.
      channel->phase2(k, losses_set, checkpoint, client_ok, client_losses,
                      live);
      // The delivered areas' mean leaf losses f_e, in sample order. A
      // lane that died during Phase 2 delivered nothing: its areas' loss
      // reports are lost exactly like a failed wide-area delivery.
      std::vector<index_t> reporters;
      std::vector<scalar_t> f;
      for (std::size_t j = 0; j < losses_set.size(); ++j) {
        if (nsurv[j] == 0 || live.down(losses_set[j])) continue;
        scalar_t f_e = 0;
        for (std::size_t i = 0; i < leaves; ++i) {
          f_e += client_losses[j * leaves + i];
        }
        reporters.push_back(losses_set[j]);
        f.push_back(f_e / static_cast<scalar_t>(nsurv[j]));
      }
      comm.client_edge_scalars += scored * per_area;
      comm.edge_cloud_scalars += scored;
      comm.edge_cloud_rounds += 1;
      // Phase-2 bytes: checkpoint broadcasts down every hop + scalar losses
      // up (an interior node forwards its subtree's report).
      comm.edge_cloud_bytes += scored * (sim::payload_bytes(d, 0) + 8);
      comm.client_edge_bytes +=
          scored * per_area * (sim::payload_bytes(d, 0) + 8);

      // Ascent step (Eq. 7): v_e = (N_E/m_E) f_e on delivered areas, else
      // 0, with m_E renormalized to the delivered count.
      detail::ascent_step(reporters, f, opts.eta_p, h.taus, opts.p_set,
                          result.p);
    }

    detail::update_running_average(result.w_avg, result.w, k, &pool);
    if (minimax) detail::update_running_average(result.p_avg, result.p, k);
    detail::maybe_record(model, fed, pool, k + 1, opts.rounds,
                         opts.eval_every, result.w, comm, result.history);
    detail::snapshot_round_end(opts.snapshot, k, rs, writer);
  }
  writer.wait();
  result.unplanned_deaths = channel->unplanned_deaths();
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
