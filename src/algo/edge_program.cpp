#include "algo/edge_program.hpp"

#include "core/check.hpp"
#include "sim/quantize.hpp"

namespace hm::algo::detail {

namespace {

/// The ids first, first + 1, ..., first + count - 1.
std::vector<index_t> id_range(index_t first, index_t count) {
  std::vector<index_t> ids(static_cast<std::size_t>(count));
  for (index_t i = 0; i < count; ++i) {
    ids[static_cast<std::size_t>(i)] = first + i;
  }
  return ids;
}

}  // namespace

EdgeProgram::EdgeProgram(const nn::Model& model,
                         const data::FederatedDataset& fed,
                         const Hierarchy& h, parallel::ThreadPool& pool)
    : model_(model),
      fed_(fed),
      h_(h),
      root_(h.opts.seed),
      plan_(h.opts.fault),
      cluster_(pool),
      agg_{h.opts.aggregate, h.opts.trim_frac} {
  const index_t depth = h.tree.depth();
  node_w_.resize(static_cast<std::size_t>(depth) + 1);
  node_ckpt_.resize(static_cast<std::size_t>(depth) + 1);
  node_has_ckpt_.resize(static_cast<std::size_t>(depth));
  for (index_t lv = 2; lv < depth; ++lv) {
    const auto s = static_cast<std::size_t>(lv);
    const auto n = static_cast<std::size_t>(h.tree.nodes_at(lv));
    node_w_[s].resize(n);
    node_ckpt_[s].resize(n);
    node_has_ckpt_[s].assign(n, 1);
  }
}

std::vector<scalar_t>& EdgeProgram::ensure(std::vector<scalar_t>& v) const {
  if (v.empty()) {
    v.assign(static_cast<std::size_t>(model_.num_params()), 0);
  }
  return v;
}

void EdgeProgram::phase1(index_t k, index_t c1, index_t c2,
                         std::span<const index_t> edges,
                         const std::vector<scalar_t>& w,
                         std::vector<std::vector<scalar_t>>& edge_w,
                         std::vector<std::vector<scalar_t>>& edge_ckpt,
                         std::vector<char>& edge_has_ckpt) {
  const TrainOptions& opts = h_.opts;
  const index_t d = model_.num_params();
  const index_t depth = h_.tree.depth();
  const index_t inner = depth - 1;  // depth of the leaves' parents
  const std::vector<index_t>& fan = h_.tree.branching();
  const index_t leaf_fan = fan.back();
  const index_t lpa = h_.tree.leaves_per_area();
  const index_t blocks = h_.blocks_per_round();
  rng::Xoshiro256 round_gen =
      root_.split(static_cast<std::uint64_t>(k) + 1);

  // Depth-indexed views; the areas live in the caller's arrays.
  const auto models = [&](index_t lv) -> std::vector<std::vector<scalar_t>>& {
    return lv == 1 ? edge_w : node_w_[static_cast<std::size_t>(lv)];
  };
  const auto ckpts = [&](index_t lv) -> std::vector<std::vector<scalar_t>>& {
    return lv == 1 ? edge_ckpt : node_ckpt_[static_cast<std::size_t>(lv)];
  };
  const auto has_ckpt = [&](index_t lv) -> std::vector<char>& {
    return lv == 1 ? edge_has_ckpt
                   : node_has_ckpt_[static_cast<std::size_t>(lv)];
  };
  const auto nodes_of = [&](index_t lv, index_t e) {
    const index_t per_area = h_.tree.nodes_at(lv) / h_.tree.num_areas();
    return id_range(e * per_area, per_area);
  };
  const auto children = [&](index_t lv, index_t n) {
    const index_t f = fan[static_cast<std::size_t>(lv)];
    return id_range(n * f, f);
  };
  const auto slot = [](index_t id) { return static_cast<std::size_t>(id); };
  parallel::ThreadPool* pool = &cluster_.pool();

  // Seed every listed area with the broadcast global model. A crashed
  // area server takes its whole subtree offline: its model stays the
  // seed and it holds no fresh checkpoint.
  std::vector<index_t> live;
  live.reserve(edges.size());
  for (const index_t e : edges) {
    copy_model(w, ensure(edge_w[slot(e)]), pool);
    if (!plan_.edge_crashed(k, e)) {
      live.push_back(e);
    } else if (c2 >= 0) {
      edge_has_ckpt[slot(e)] = 0;
    }
  }

  // span[lv]: innermost blocks in one block of a depth-lv node.
  std::vector<index_t> span(static_cast<std::size_t>(depth), 1);
  for (index_t lv = inner - 1; lv >= 1; --lv) {
    span[slot(lv)] = span[slot(lv) + 1] * h_.taus[slot(lv)];
  }
  // Interior blocks of area e starting at innermost block b broadcast
  // down, shallowest first.
  const auto broadcast = [&](index_t e, index_t b, ModelSplit split) {
    for (index_t lv = 1; lv < inner; ++lv) {
      if (b % span[slot(lv)] != 0) continue;
      for (const index_t n : nodes_of(lv, e)) {
        for (const index_t c : children(lv, n)) {
          copy_model(models(lv)[slot(n)], models(lv + 1)[slot(c)], split);
        }
      }
    }
  };

  // Leaf buffers and scratch live in fixed slots, one per (live area,
  // leaf): leaf i of live[g] is slot g * lpa + i in every block.
  const std::size_t slots = live.size() * static_cast<std::size_t>(lpa);
  auto& leaf_w = node_w_[static_cast<std::size_t>(depth)];
  auto& leaf_ckpt = node_ckpt_[static_cast<std::size_t>(depth)];
  if (leaf_w.size() < slots) {
    leaf_w.resize(slots);
    leaf_ckpt.resize(slots);
    scratch_.resize(slots);
  }
  const auto leaf_slot = [&](std::size_t g, index_t leaf) {
    return g * slot(lpa) + slot(leaf % lpa);
  };

  // Everything the region writes is materialized here, on this thread,
  // so no task allocates a model-sized buffer or races on one: every
  // node model (block 0's broadcasts touch them all) and, with a capture,
  // every node checkpoint. The survivors of each leaf parent and the
  // checkpoint flags are pure functions of the fault plan, so they are
  // fixed here too (reports[g][m]: the leaf slots that report to the
  // m-th leaf parent of live[g], the same in every block).
  std::vector<std::vector<Participants>> reports(live.size());
  for (std::size_t g = 0; g < live.size(); ++g) {
    const index_t e = live[g];
    for (index_t lv = 2; lv <= inner; ++lv) {
      for (const index_t n : nodes_of(lv, e)) ensure(models(lv)[slot(n)]);
    }
    broadcast(e, 0, pool);
    for (const index_t n : nodes_of(inner, e)) {
      std::vector<index_t> surv;
      for (const index_t c : children(inner, n)) {
        if (plan_.client_reports(k, c)) {
          surv.push_back(static_cast<index_t>(leaf_slot(g, c)));
        }
      }
      reports[g].push_back(Participants::from_draws(surv));
      if (c2 < 0) continue;
      has_ckpt(inner)[slot(n)] = surv.empty() ? 0 : 1;
      ensure(ckpts(inner)[slot(n)]);
    }
    if (c2 < 0) continue;
    for (index_t lv = inner - 1; lv >= 1; --lv) {
      for (const index_t n : nodes_of(lv, e)) {
        char held = 0;
        for (const index_t c : children(lv, n)) {
          held = static_cast<char>(held | has_ckpt(lv + 1)[slot(c)]);
        }
        has_ckpt(lv)[slot(n)] = held;
        ensure(ckpts(lv)[slot(n)]);
      }
    }
  }

  LocalSgdConfig cfg;
  cfg.steps = h_.taus.back();
  cfg.batch_size = opts.batch_size;
  cfg.eta = opts.eta_w;
  cfg.w_radius = opts.w_radius;
  cfg.weight_decay = opts.weight_decay;
  cfg.prox_mu = opts.prox_mu;
  cfg.checkpoint_step = c2 >= 0 ? c1 : 0;  // only block c2's jobs capture
  // Every block's jobs, block-major, then area by area: one job per leaf
  // that computes (offline hardware, churned away, computes nothing this
  // round; dropped clients still compute, only their report is lost). A
  // job trains in its leaf's slot from its parent's model, copied inside
  // the device task once the area closed the previous block.
  std::vector<LocalSgdJob> jobs;
  std::vector<rng::Xoshiro256> gens;
  std::vector<index_t> job_leaf, job_group, job_block;
  const std::size_t max_jobs = slots * static_cast<std::size_t>(blocks);
  jobs.reserve(max_jobs);
  gens.reserve(max_jobs);  // never reallocates under the jobs' pointers
  job_leaf.reserve(max_jobs);
  job_group.reserve(max_jobs);
  job_block.reserve(max_jobs);
  for (index_t b = 0; b < blocks; ++b) {
    for (std::size_t g = 0; g < live.size(); ++g) {
      const index_t e = live[g];
      for (index_t i = 0; i < lpa; ++i) {
        const index_t leaf = e * lpa + i;
        if (plan_.client_offline(k, leaf)) continue;
        const std::size_t s = leaf_slot(g, leaf);
        gens.push_back(round_gen.split(kTagLocal)
                           .split(static_cast<std::uint64_t>(e))
                           .split(static_cast<std::uint64_t>(b))
                           .split(static_cast<std::uint64_t>(i)));
        const data::Dataset* shard = &fed_.shard_at(k, e, i);
        if (plan_.client_poisoned(k, leaf)) {
          shard = &poison_.get(*shard, leaf);
        }
        const nn::VecView ckpt =
            b == c2 ? nn::VecView(ensure(leaf_ckpt[s])) : nn::VecView();
        jobs.push_back({shard, ensure(leaf_w[s]), ckpt, &gens.back(),
                        static_cast<index_t>(s),
                        models(inner)[slot(leaf / leaf_fan)]});
        job_leaf.push_back(leaf);
        job_group.push_back(static_cast<index_t>(g));
        job_block.push_back(b);
      }
    }
  }

  BlockPipeline pipe;
  pipe.group = job_group;
  pipe.block = job_block;
  pipe.num_groups = static_cast<index_t>(live.size());
  pipe.num_blocks = blocks;
  pipe.pieces = std::max<index_t>(
      1, (d + static_cast<index_t>(kModelBlock) - 1) /
             static_cast<index_t>(kModelBlock));
  // A leaf's own report, on its job's thread: uplink quantization, then
  // a payload attack. The leaf's parent still holds the block-start model
  // every leaf under it started from (its close has not begun) — the
  // sign-flip reflection reference. The checkpoint upload stays honest:
  // it is variance-reduction scaffolding for Phase 2, not a model report
  // (DESIGN.md §13).
  pipe.finish = [&](index_t j) {
    const LocalSgdJob& job = jobs[slot(j)];
    const std::size_t s = slot(job.scratch_id);
    if (opts.quantize_bits > 0) {
      rng::Xoshiro256 qgen = gens[slot(j)].split(kTagQuant);
      sim::quantize_payload(leaf_w[s], opts.quantize_bits, qgen);
      if (!job.checkpoint.empty()) {
        sim::quantize_payload(leaf_ckpt[s], opts.quantize_bits, qgen);
      }
    }
    const index_t c = job_leaf[slot(j)];
    if (plan_.payload_attack() && plan_.client_attacker(k, c)) {
      plan_.corrupt_payload(k, c, models(inner)[slot(c / leaf_fan)].data(),
                            leaf_w[s].data(), d);
    }
  };
  // One coordinate piece of area g's close of innermost block b: combine
  // each leaf parent's survivors with the robust combiner (the one hop
  // attackers own; a parent with no survivors keeps its block-start
  // model) and, in block c2, their checkpoints; average the interior
  // blocks that end here up, deepest first (interior servers are
  // reliable and take the plain mean of all children); broadcast the
  // interior blocks that start next; after the last block, average the
  // checkpoint up to the area over the children that hold one. Every
  // step is coordinate-wise, so the pieces are independent, and each
  // touches only area g's nodes and slots.
  pipe.close = [&](index_t g, index_t b, index_t piece) {
    const index_t e = live[slot(g)];
    const std::size_t lo = slot(piece) * kModelBlock;
    const ModelSplit split = ModelSplit::piece(lo, lo + kModelBlock);
    const std::vector<index_t> parents = nodes_of(inner, e);
    for (std::size_t m = 0; m < parents.size(); ++m) {
      const Participants& rep = reports[slot(g)][m];
      if (rep.ids.empty()) continue;
      const index_t n = parents[m];
      robust_weighted_average(leaf_w, rep, agg_, models(inner)[slot(n)],
                              split);
      if (b == c2) {
        weighted_average(leaf_ckpt, rep, ckpts(inner)[slot(n)], split);
      }
    }
    for (index_t lv = inner - 1; lv >= 1; --lv) {
      if ((b + 1) % span[slot(lv)] != 0) continue;
      for (const index_t n : nodes_of(lv, e)) {
        weighted_average(models(lv + 1),
                         Participants::from_draws(children(lv, n)),
                         models(lv)[slot(n)], split);
      }
    }
    if (b + 1 < blocks) broadcast(e, b + 1, split);
    if (b + 1 < blocks || c2 < 0) return;
    for (index_t lv = inner - 1; lv >= 1; --lv) {
      for (const index_t n : nodes_of(lv, e)) {
        std::vector<index_t> held;
        for (const index_t c : children(lv, n)) {
          if (has_ckpt(lv + 1)[slot(c)]) held.push_back(c);
        }
        if (!held.empty()) {
          weighted_average(ckpts(lv + 1), Participants::from_draws(held),
                           ckpts(lv)[slot(n)], split);
        }
      }
    }
  };
  // One device region for the whole round: an area's block b + 1 starts
  // as soon as its own block b is closed, while other areas' jobs keep
  // the remaining threads busy, and idle threads share the closes.
  run_local_sgd_jobs(model_, cfg, jobs, scratch_, cluster_, &pipe);
}

void EdgeProgram::phase2(index_t k, std::span<const index_t> edges,
                         const std::vector<scalar_t>& checkpoint,
                         std::span<const char> client_ok,
                         std::span<scalar_t> client_losses) {
  const index_t n0 = h_.tree.leaves_per_area();
  const index_t loss_jobs = static_cast<index_t>(edges.size()) * n0;
  HM_CHECK(static_cast<index_t>(client_ok.size()) == loss_jobs);
  HM_CHECK(static_cast<index_t>(client_losses.size()) == loss_jobs);
  rng::Xoshiro256 round_gen =
      root_.split(static_cast<std::uint64_t>(k) + 1);
  if (!ph2_ws_) ph2_ws_ = model_.make_workspace();

  // Draw every surviving job's estimation batch (per-job RNG streams,
  // so the samples are independent of evaluation order), then score
  // them all in one fused loss_many sweep at the shared checkpoint.
  std::vector<std::vector<index_t>> batches(
      static_cast<std::size_t>(loss_jobs));
  std::vector<nn::LossJob> jobs;
  std::vector<index_t> job_slot;  // loss_many index -> client_losses slot
  jobs.reserve(static_cast<std::size_t>(loss_jobs));
  job_slot.reserve(static_cast<std::size_t>(loss_jobs));
  for (index_t job = 0; job < loss_jobs; ++job) {
    if (!client_ok[static_cast<std::size_t>(job)]) continue;
    const index_t e = edges[static_cast<std::size_t>(job / n0)];
    const index_t i = job % n0;
    // Phase-2 loss reports are honest even for attackers (the attack
    // corrupts training, not measurement) but do follow data drift.
    const data::Dataset& shard = fed_.shard_at(k, e, i);
    auto& batch = batches[static_cast<std::size_t>(job)];
    batch = loss_batch(shard.size(), h_.opts.loss_est_batch,
                       round_gen.split(kTagLoss)
                           .split(static_cast<std::uint64_t>(e))
                           .split(static_cast<std::uint64_t>(i)));
    jobs.push_back(nn::LossJob{checkpoint, &shard, batch});
    job_slot.push_back(job);
  }
  std::vector<scalar_t> job_losses(jobs.size());
  model_.loss_many(jobs, job_losses, *ph2_ws_, &cluster_.pool());
  for (std::size_t q = 0; q < jobs.size(); ++q) {
    client_losses[static_cast<std::size_t>(job_slot[q])] = job_losses[q];
  }
}

}  // namespace hm::algo::detail
