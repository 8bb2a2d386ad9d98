#include "algo/local_sgd.hpp"

#include <atomic>
#include <limits>

#include "core/check.hpp"
#include "obs/obs.hpp"
#include "tensor/vecops.hpp"

namespace hm::algo {

namespace {

/// Stage polls before a pipelined ticket sleeps on std::atomic::wait.
constexpr int kStageSpins = 1 << 12;

/// Stage of a failed run: every waiting ticket passes and skips.
constexpr int kStageAborted = std::numeric_limits<int>::max();

}  // namespace

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
                        const sim::ClusterSim& cluster,
                        const BlockPipeline* pipe) {
  LocalSgdConfig no_capture = config;
  no_capture.checkpoint_step = 0;
  const auto run_job = [&](index_t j) {
    const LocalSgdJob& job = jobs[static_cast<std::size_t>(j)];
    if (!job.start.empty()) tensor::copy(job.start, job.w);
    run_local_sgd(model, *job.shard,
                  job.checkpoint.empty() ? no_capture : config, job.w,
                  job.checkpoint, *job.gen,
                  scratch[static_cast<std::size_t>(job.scratch_id)]);
  };
  const auto count = static_cast<index_t>(jobs.size());
  HM_OBS_ADD("sim.device_jobs", count);
  if (pipe == nullptr) {
    if (count > 0) cluster.run_devices(count, run_job);
    return;
  }

  const index_t groups = pipe->num_groups;
  const index_t blocks = pipe->num_blocks;
  const index_t pieces = pipe->pieces;
  HM_CHECK(pipe->group.size() == jobs.size() &&
           pipe->block.size() == jobs.size());
  HM_CHECK(groups >= 0 && blocks >= 1 && pieces >= 1 && pipe->close);
  const auto at = [](std::span<const index_t> v, index_t j) {
    return v[static_cast<std::size_t>(j)];
  };
  const auto gb = [&](index_t g, index_t b) {
    return static_cast<std::size_t>(g * blocks + b);
  };
  // first[gb(g, b)]: group g's first job of block b; jobs_in[gb(g, b)]:
  // how many it has.
  std::vector<index_t> first(gb(groups, 0), 0), jobs_in(gb(groups, 0), 0);
  for (index_t j = 0; j < count; ++j) {
    const index_t g = at(pipe->group, j), b = at(pipe->block, j);
    HM_CHECK(g >= 0 && g < groups && b >= 0 && b < blocks);
    if (j > 0) {
      const index_t pg = at(pipe->group, j - 1), pb = at(pipe->block, j - 1);
      HM_CHECK_MSG(b > pb || (b == pb && g >= pg),
                   "pipelined jobs must be listed block-major, then by "
                   "group");
    }
    if (jobs_in[gb(g, b)]++ == 0) first[gb(g, b)] = j;
  }
  // The region's tickets: a job index, or a close piece of (g, b).
  struct Ticket {
    index_t job;  // -1: a close piece
    index_t g, b, piece;
  };
  std::vector<Ticket> tickets;
  tickets.reserve(static_cast<std::size_t>(count + groups * blocks * pieces));
  for (index_t b = 0; b <= blocks; ++b) {
    for (index_t g = 0; g < groups; ++g) {
      for (index_t p = 0; b > 0 && p < pieces; ++p) {
        tickets.push_back({-1, g, b - 1, p});
      }
      if (b == blocks) continue;
      for (index_t j = 0; j < jobs_in[gb(g, b)]; ++j) {
        tickets.push_back({first[gb(g, b)] + j, g, b, 0});
      }
    }
  }

  // stage[g]: 2b while group g's block-b jobs may run, 2b + 1 once they
  // all finished (its close may run), 2 * blocks when closed for good;
  // kStageAborted once the run failed. jobs_left / pieces_left[gb(g, b)]:
  // the jobs and the close pieces of (g, b) still running.
  std::vector<std::atomic<int>> stage(static_cast<std::size_t>(groups));
  std::vector<std::atomic<index_t>> jobs_left(gb(groups, 0));
  std::vector<std::atomic<index_t>> pieces_left(gb(groups, 0));
  for (index_t g = 0; g < groups; ++g) {
    for (index_t b = 0; b < blocks; ++b) {
      jobs_left[gb(g, b)].store(jobs_in[gb(g, b)], std::memory_order_relaxed);
      pieces_left[gb(g, b)].store(pieces, std::memory_order_relaxed);
    }
    stage[static_cast<std::size_t>(g)].store(jobs_in[gb(g, 0)] == 0 ? 1 : 0,
                                              std::memory_order_relaxed);
  }
  std::atomic<bool> failed{false};
  // Move group g from stage `from` to `to`. Only the one thread that
  // completed `from` does this; a failed run has already opened every
  // stage for good, so it is never moved back.
  const auto advance = [&](index_t g, int from, int to) {
    std::atomic<int>& s = stage[static_cast<std::size_t>(g)];
    s.compare_exchange_strong(from, to, std::memory_order_release,
                              std::memory_order_relaxed);
    s.notify_all();
  };

  if (tickets.empty()) return;
  cluster.run_devices(
      static_cast<index_t>(tickets.size()),
      [&](index_t t) {
        const Ticket& tk = tickets[static_cast<std::size_t>(t)];
        const int need = 2 * static_cast<int>(tk.b) + (tk.job < 0 ? 1 : 0);
        // Wait for the stage: spin briefly (a close piece is short next to
        // a job), then sleep on it. Never a timed sleep.
        std::atomic<int>& s = stage[static_cast<std::size_t>(tk.g)];
        int v = s.load(std::memory_order_acquire);
        for (int spin = 0; v < need && spin < kStageSpins; ++spin) {
          v = s.load(std::memory_order_acquire);
        }
        while (v < need) {
          s.wait(v, std::memory_order_acquire);
          v = s.load(std::memory_order_acquire);
        }
        if (failed.load(std::memory_order_acquire)) return;
        try {
          if (tk.job >= 0) {
            run_job(tk.job);
            if (pipe->finish) pipe->finish(tk.job);
            if (jobs_left[gb(tk.g, tk.b)].fetch_sub(
                    1, std::memory_order_acq_rel) == 1) {
              advance(tk.g, need, need + 1);
            }
            return;
          }
          pipe->close(tk.g, tk.b, tk.piece);
          if (pieces_left[gb(tk.g, tk.b)].fetch_sub(
                  1, std::memory_order_acq_rel) == 1) {
            // A next block without jobs is done as soon as it starts.
            const bool idle =
                tk.b + 1 < blocks && jobs_in[gb(tk.g, tk.b + 1)] == 0;
            advance(tk.g, need, need + (idle ? 2 : 1));
          }
        } catch (...) {
          failed.store(true, std::memory_order_release);
          for (auto& o : stage) {
            o.store(kStageAborted, std::memory_order_release);
            o.notify_all();
          }
          throw;
        }
      });
}

}  // namespace hm::algo
