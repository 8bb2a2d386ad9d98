// Parallel execution harness for the simulated cluster: runs one job per
// (selected) client on the shared thread pool. Jobs receive the client id
// and must be mutually independent; determinism comes from per-client RNG
// streams, not from scheduling order.
#pragma once

#include <algorithm>
#include <functional>

#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/fault.hpp"

namespace hm::sim {

class ClusterSim {
 public:
  explicit ClusterSim(parallel::ThreadPool& pool) : pool_(&pool) {}

  parallel::ThreadPool& pool() const { return *pool_; }

  /// Devices per scheduled task. grain=0 picks a size-aware default:
  /// enough tasks to keep every thread busy with load-balancing headroom
  /// (~4 tasks per thread, the caller included), but no finer — device
  /// jobs are coarse (a whole local-SGD run), so oversplitting only buys
  /// ticket traffic. Explicit grain wins; jobs are independent, so grain
  /// never affects results.
  index_t device_grain(index_t count, index_t grain) const {
    if (grain > 0) return grain;
    const auto workers = static_cast<index_t>(pool_->num_threads());
    return std::max(index_t{1}, count / std::max(index_t{1}, workers * 4));
  }

  /// Run `job(i)` for i in [0, count) across the pool; each i is one
  /// simulated device doing local work. Blocks until all jobs finish and
  /// rethrows the first job exception.
  void run_devices(index_t count, const std::function<void(index_t)>& job,
                   index_t grain = 0) const {
    HM_OBS_SPAN("run_devices", "sim", count, 0);
    HM_OBS_INC("sim.device_batches");
    HM_OBS_ADD("sim.device_jobs", count);
    parallel::parallel_for(*pool_, 0, count, job,
                           device_grain(count, grain));
  }

  /// Fault-aware variant: devices that `plan` marks as offline at `round`
  /// (crashed, or churned out of the population) never run their job — an
  /// offline device computes nothing. Dropped and straggling devices
  /// still compute — their failures happen at report time and are the
  /// algorithm layer's concern.
  void run_devices(index_t count, const FaultPlan& plan, index_t round,
                   const std::function<void(index_t)>& job,
                   index_t grain = 0) const {
    if (!plan.enabled()) {
      run_devices(count, job, grain);
      return;
    }
    HM_OBS_SPAN("run_devices", "sim", count, round);
    HM_OBS_INC("sim.device_batches");
    HM_OBS_ADD("sim.device_jobs", count);
    parallel::parallel_for(
        *pool_, 0, count,
        [&](index_t i) {
          if (plan.client_offline(round, i)) return;
          job(i);
        },
        device_grain(count, grain));
  }

 private:
  parallel::ThreadPool* pool_;
};

}  // namespace hm::sim
