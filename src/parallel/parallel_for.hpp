// Blocked parallel-for on top of ThreadPool::run_region. The iteration
// space [begin, end) is split into contiguous chunks; `body(i)` runs
// exactly once per index.
//
// Chunking is a pure function of (range length, grain) — never of the
// pool's thread count. Bodies write disjoint outputs, and any reduction
// over them runs in a fixed order after the region completes, so results
// are bit-identical for any pool size (1, 2, 8, ...) and any scheduling
// of chunks onto threads, which is the reproducibility guarantee the
// trainers rely on.
//
// Dispatch is the low-overhead region path: no futures, no per-chunk
// allocation; a parallel_for costs a few atomics plus one wakeup chain,
// and the calling thread participates in the work.
#pragma once

#include <algorithm>
#include <type_traits>

#include "core/check.hpp"
#include "core/types.hpp"
#include "parallel/thread_pool.hpp"

namespace hm::parallel {

/// Minimum indices per chunk before the work is split across threads.
inline constexpr index_t kDefaultGrain = 64;

/// Upper bound on chunks per region. Fixed (not scaled by thread count)
/// so that chunk boundaries are identical no matter how many workers the
/// pool has.
inline constexpr index_t kMaxChunks = 64;

namespace detail {

/// Chunk length for a range of n indices: enough chunks for load
/// balancing, capped, at least `grain` indices each, and independent of
/// threads. Callers derive the chunk count as ceil(n / chunk), which
/// avoids empty trailing chunks after rounding.
inline index_t chunk_size_for(index_t n, index_t grain) {
  const index_t num_chunks = std::max<index_t>(
      1, std::min(kMaxChunks, n / std::max<index_t>(1, grain)));
  return (n + num_chunks - 1) / num_chunks;
}

}  // namespace detail

/// Run body(i) for every i in [begin, end), splitting across `pool`.
/// Falls back to a serial loop for small ranges and inside nested
/// parallel constructs.
template <typename Body>
void parallel_for(ThreadPool& pool, index_t begin, index_t end, Body&& body,
                  index_t grain = kDefaultGrain) {
  HM_CHECK(begin <= end);
  const index_t n = end - begin;
  if (n == 0) return;
  const index_t chunk = detail::chunk_size_for(n, grain);
  const index_t num_chunks = (n + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    for (index_t i = begin; i < end; ++i) body(i);
    return;
  }
  struct Ctx {
    std::remove_reference_t<Body>* body;
    index_t begin, end, chunk;
  } ctx{&body, begin, end, chunk};
  pool.run_region(
      num_chunks,
      [](void* p, index_t c) {
        auto& s = *static_cast<Ctx*>(p);
        const index_t lo = s.begin + c * s.chunk;
        const index_t hi = std::min(s.end, lo + s.chunk);
        // ceil-division chunking never produces an empty chunk.
        HM_ASSERT(lo < hi);
        for (index_t i = lo; i < hi; ++i) (*s.body)(i);
      },
      &ctx);
}

}  // namespace hm::parallel
