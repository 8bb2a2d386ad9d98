// Parallel execution harness for the simulated cluster: runs one job per
// (selected) client on the shared thread pool. Jobs receive the client id
// and must be mutually independent; determinism comes from per-client RNG
// streams, not from scheduling order.
#pragma once

#include <algorithm>
#include <functional>

#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"

namespace hm::sim {

class ClusterSim {
 public:
  explicit ClusterSim(parallel::ThreadPool& pool) : pool_(&pool) {}

  parallel::ThreadPool& pool() const { return *pool_; }

  /// Run `job(i)` for i in [0, count) across the pool; each i is one
  /// simulated device doing local work. Blocks until all jobs finish and
  /// rethrows the first job exception. Device jobs are coarse (a whole
  /// local-SGD run), so a task holds enough devices for about 4 tasks per
  /// thread, the caller included: load-balancing headroom without ticket
  /// traffic. Jobs are independent, so the grain never affects results.
  void run_devices(index_t count,
                   const std::function<void(index_t)>& job) const {
    HM_OBS_SPAN("run_devices", "sim", count, 0);
    HM_OBS_INC("sim.device_batches");
    HM_OBS_ADD("sim.device_jobs", count);
    const auto threads = static_cast<index_t>(pool_->num_threads());
    parallel::parallel_for(*pool_, 0, count, job,
                           std::max(index_t{1}, count / (threads * 4)));
  }

 private:
  parallel::ThreadPool* pool_;
};

}  // namespace hm::sim
