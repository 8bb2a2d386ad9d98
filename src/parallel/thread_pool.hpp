// Fixed-size, region-only thread pool.
//
// run_region() is the one execution path, underneath parallel_for. A
// region is a fixed count of chunks executed by the caller plus any
// workers that join; chunks are claimed from a shared atomic ticket and
// completion is a latch-style atomic countdown the caller waits on. No
// allocation, no futures, no per-chunk packaged_task: dispatching a
// region costs a few atomic operations and at most one wakeup chain.
//
// The size counts the caller: ThreadPool(n) runs regions on n threads,
// the calling one plus n - 1 workers, so ThreadPool(1) has no workers and
// runs every region inline on the caller.
//
// Region lifecycle / safety protocol (all in ThreadPool::run_region and
// join_region): callers serialize on region_mutex_. Setup first bumps
// region_epoch_ to an odd value, then waits for active_ == 0, so no
// worker can be reading region state while it is rewritten (workers join
// by incrementing active_ and then re-validating the epoch; the epoch
// write / active_ read pair on the caller side and the active_ write /
// epoch read pair on the worker side are both seq_cst, closing the
// store-load race). Publishing the region bumps the epoch to the next
// even value. Nested regions (a chunk body calling parallel_for) run
// inline and serially on the calling thread, which both avoids deadlock
// and keeps nested reductions in their deterministic serial chunk order.
//
// fork() copies a pool without its worker threads, and possibly with a
// region half set up. A pool remembers the fork generation of the
// process that built it, and using it in a child forked later is a
// CheckError instead of a wait that never ends. A worker can still be in
// join_region after run_region returned, so nothing a worker does outside
// a chunk may take a process-wide lock or first-initialize a static: a
// child forked at that moment would find it held, and its own pool would
// block on it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/types.hpp"

namespace hm::parallel {

class ThreadPool {
 public:
  /// A pool of `num_threads` threads counting the caller (0 = hardware
  /// concurrency): it spawns num_threads - 1 workers.
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Joins all workers (in a forked child, which has none of them, it
  /// only lets go of their handles).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads a region runs on, the caller included.
  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Run fn(ctx, chunk) exactly once for every chunk in [0, num_chunks).
  /// Blocks until all chunks completed; rethrows the first chunk
  /// exception. The caller participates, so the region completes even if
  /// every worker is busy elsewhere. Reentrant calls (from inside a
  /// region chunk) execute serially inline.
  using RegionFn = void (*)(void* ctx, index_t chunk);
  void run_region(index_t num_chunks, RegionFn fn, void* ctx);

  /// Process-wide shared pool, created on first use.
  static ThreadPool& global();

 private:
  /// Reusable region descriptor; rewritten only while quiesced.
  struct Region {
    RegionFn fn = nullptr;
    void* ctx = nullptr;
    index_t num_chunks = 0;
    std::atomic<index_t> next{0};       // chunk ticket
    std::atomic<index_t> remaining{0};  // countdown latch
    std::atomic<bool> has_error{false};
    std::exception_ptr error;
  };

  void worker_loop();
  /// Claim-and-run loop shared by caller and workers (`joiner`).
  void work_region(bool joiner);
  /// Worker-side entry: join the published region if `epoch` still
  /// current; returns after the region has no claimable chunks left.
  void join_region(std::uint64_t epoch);

  const std::uint64_t fork_generation_;  // of the process that built it
  std::vector<std::thread> workers_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool stop_ = false;

  std::mutex region_mutex_;  // serializes external region callers
  std::atomic<std::uint64_t> region_epoch_{0};  // odd = setup in progress
  std::atomic<int> active_{0};  // workers currently inside the region
  Region region_;
};

}  // namespace hm::parallel
