// Parallel execution harness for the simulated cluster: runs one job per
// (selected) client on the shared thread pool. Jobs receive the client id;
// determinism comes from per-client RNG streams, not from scheduling
// order.
#pragma once

#include <functional>

#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace hm::sim {

class ClusterSim {
 public:
  explicit ClusterSim(parallel::ThreadPool& pool) : pool_(&pool) {}

  parallel::ThreadPool& pool() const { return *pool_; }

  /// Run `job(i)` for i in [0, count) across the pool; each i is one
  /// simulated device doing local work, or a piece of a pipelined run's
  /// aggregation (callers count their device jobs in sim.device_jobs). Blocks until all jobs finish and
  /// rethrows the first job exception. Every job is its own region chunk
  /// (jobs are coarse, so a ticket per job costs nothing that matters),
  /// and chunks are claimed in index order, so a job may wait on
  /// lower-numbered jobs, never on higher ones, without deadlock: the
  /// lowest waiting job waits on jobs that are running. The split never
  /// affects results.
  void run_devices(index_t count,
                   const std::function<void(index_t)>& job) const {
    HM_OBS_SPAN("run_devices", "sim", count, 0);
    HM_OBS_INC("sim.device_batches");
    pool_->run_region(
        count,
        [](void* fn, index_t i) {
          (*static_cast<const std::function<void(index_t)>*>(fn))(i);
        },
        const_cast<void*>(static_cast<const void*>(&job)));
  }

 private:
  parallel::ThreadPool* pool_;
};

}  // namespace hm::sim
