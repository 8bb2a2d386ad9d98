#include "parallel/thread_pool.hpp"

#include <pthread.h>

#include <algorithm>

#include "core/check.hpp"
#include "obs/obs.hpp"

namespace hm::parallel {

namespace {

/// Depth of region nesting on this thread. Non-zero while executing a
/// chunk body, so nested parallel constructs inline serially.
thread_local int tl_region_depth = 0;

struct RegionDepthGuard {
  RegionDepthGuard() { ++tl_region_depth; }
  ~RegionDepthGuard() { --tl_region_depth; }
};

/// Bumped in every child fork() creates; a pool built under another
/// value belongs to an ancestor process and has no threads here.
std::atomic<std::uint64_t> g_fork_generation{0};

void bump_fork_generation() {
  g_fork_generation.fetch_add(1, std::memory_order_relaxed);
}

/// The current fork generation, with the child hook registered (once)
/// before the first pool records it.
std::uint64_t fork_generation() {
  static const int atfork =
      ::pthread_atfork(nullptr, nullptr, &bump_fork_generation);
  HM_CHECK_MSG(atfork == 0, "pthread_atfork failed: " << atfork);
  return g_fork_generation.load(std::memory_order_relaxed);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : fork_generation_(fork_generation()) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (fork_generation_ != fork_generation()) {
    // A forked child's copy: the worker threads never existed here, so
    // joining would wait forever and detaching would write into thread
    // descriptors the child may have reused. Leak the handles instead.
    static_cast<void>(new std::vector<std::thread>(std::move(workers_)));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::work_region(bool joiner) {
  RegionDepthGuard depth;
  Region& r = region_;
  HM_ASSERT(r.fn != nullptr && r.num_chunks > 0);
  for (;;) {
    const index_t c = r.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= r.num_chunks) return;
    if (joiner) {
      // Counted before the worker's first chunk completes, so the
      // caller's latch waits for it: a counter's first use registers it
      // under the obs registry lock and a static-init guard, and a
      // worker still doing that after run_region returned would leave
      // both held in a child forked then. How many workers reach a live
      // region races with the region finishing, hence the timing
      // channel.
      HM_OBS_INC_T("parallel.region_joiners");
      joiner = false;
    }
    try {
      r.fn(r.ctx, c);
    } catch (...) {
      if (!r.has_error.exchange(true, std::memory_order_acq_rel)) {
        r.error = std::current_exception();
      }
    }
    // Each claimed chunk decrements the latch exactly once, so it can
    // never pass through zero.
    const index_t left = r.remaining.fetch_sub(1, std::memory_order_acq_rel);
    HM_ASSERT_MSG(left >= 1, "region latch underflow: remaining=" << left);
    if (left == 1) {
      r.remaining.notify_all();
    }
  }
}

void ThreadPool::join_region(std::uint64_t epoch) {
  HM_ASSERT((epoch & 1) == 0);  // workers only join published regions
  // seq_cst increment, then re-validate the epoch: if a new setup has
  // started (odd) or finished (different even value) we must not touch
  // the region state. See the protocol note in the header.
  active_.fetch_add(1);
  if (region_epoch_.load() == epoch) work_region(/*joiner=*/true);
  if (active_.fetch_sub(1) == 1) active_.notify_all();
}

void ThreadPool::run_region(index_t num_chunks, RegionFn fn, void* ctx) {
  HM_CHECK(num_chunks >= 0 && fn != nullptr);
  HM_CHECK_MSG(
      fork_generation_ == fork_generation(),
      "ThreadPool " << static_cast<const void*>(this) << " ("
                    << num_threads()
                    << " threads) was built before a fork() and has no "
                       "threads in this process; build a pool in the child");
  if (num_chunks == 0) return;
  // Region/chunk totals are dispatch-independent (the inline and pooled
  // paths run the same chunks), so they sit on the value channel; the
  // inline/dispatch split depends on the pool size and nesting, so it is
  // timing.
  HM_OBS_INC("parallel.regions");
  HM_OBS_ADD("parallel.chunks", static_cast<std::uint64_t>(num_chunks));
  HM_OBS_HIST("parallel.region_chunks", num_chunks);
  if (num_chunks == 1 || tl_region_depth > 0 || workers_.empty()) {
    HM_OBS_INC_T("parallel.regions_inlined");
    RegionDepthGuard depth;
    for (index_t c = 0; c < num_chunks; ++c) fn(ctx, c);
    return;
  }
  HM_OBS_INC_T("parallel.regions_dispatched");
  std::lock_guard<std::mutex> region_lock(region_mutex_);
  // Phase 1: invalidate (odd epoch) and quiesce stragglers from the
  // previous region before rewriting shared state.
  region_epoch_.fetch_add(1);  // even -> odd
  for (int a = active_.load(); a != 0; a = active_.load()) {
    active_.wait(a);
  }
  // The epoch stays odd until the publish below (we hold region_mutex_),
  // so no joiner can touch region state from here on. Note active_ may
  // legally tick non-zero again: a worker that loaded a stale even epoch
  // increments it before re-validating in join_region and bails without
  // entering the region, so we do not assert active_ == 0 here.
  HM_ASSERT((region_epoch_.load() & 1) == 1);
  Region& r = region_;
  r.fn = fn;
  r.ctx = ctx;
  r.num_chunks = num_chunks;
  r.next.store(0, std::memory_order_relaxed);
  r.remaining.store(num_chunks, std::memory_order_relaxed);
  r.has_error.store(false, std::memory_order_relaxed);
  r.error = nullptr;
  // Phase 2: publish (next even epoch) and wake one worker; each joining
  // worker wakes the next, so sleeping workers are only disturbed while
  // there is work left to claim.
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    region_epoch_.fetch_add(1);  // odd -> even: region live
  }
  wake_cv_.notify_one();
  // Phase 3: the caller participates, then waits on the countdown latch
  // for chunks still running on workers.
  work_region(/*joiner=*/false);
  for (index_t left = r.remaining.load(std::memory_order_acquire); left != 0;
       left = r.remaining.load(std::memory_order_acquire)) {
    r.remaining.wait(left);
  }
  if (r.has_error.load(std::memory_order_acquire)) {
    std::rethrow_exception(r.error);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t last_epoch = 0;
  for (;;) {
    const std::uint64_t e = region_epoch_.load();
    if ((e & 1) == 0 && e != last_epoch) {
      last_epoch = e;
      wake_cv_.notify_one();  // propagate the wakeup chain
      join_region(e);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [&] {
      if (stop_) return true;
      const std::uint64_t now = region_epoch_.load();
      return (now & 1) == 0 && now != last_epoch;
    });
    if (stop_) return;
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace hm::parallel
