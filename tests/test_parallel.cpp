// Unit tests for hm::parallel: thread pool semantics, parallel_for
// coverage, exception propagation, region stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace hm::parallel {
namespace {

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_EQ(pool.num_threads(),
            std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ThreadPool, SizeOneRunsEveryChunkOnTheCaller) {
  // The size counts the caller: a 1-thread pool has no workers.
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(256);
  parallel_for(
      pool, 0, 256,
      [&](index_t i) {
        ran[static_cast<std::size_t>(i)] = std::this_thread::get_id();
      },
      /*grain=*/1);
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, SizeCountsTheCaller) {
  // A 3-thread pool runs a region on at most 3 distinct threads.
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::mutex m;
  std::set<std::thread::id> ids;
  for (int round = 0; round < 50; ++round) {
    parallel_for(
        pool, 0, 64,
        [&](index_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          std::lock_guard<std::mutex> lock(m);
          ids.insert(std::this_thread::get_id());
        },
        /*grain=*/1);
  }
  EXPECT_LE(ids.size(), 3u);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, [&](index_t i) { ++hits[i]; }, /*grain=*/8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](index_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallRangeRunsSerially) {
  ThreadPool pool(4);
  std::vector<int> order;
  parallel_for(pool, 0, 5, [&](index_t i) { order.push_back(static_cast<int>(i)); },
               /*grain=*/64);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(
          pool, 0, 1000,
          [](index_t i) {
            if (i == 573) throw std::logic_error("bad index");
          },
          /*grain=*/1),
      std::logic_error);
}

TEST(ParallelFor, InvalidRangeThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 10, 5, [](index_t) {}), CheckError);
}

// ---------------------------------------------------------------------
// Stress tests for the region dispatcher. Every pool of two or more
// threads dispatches, so the concurrent path (epoch handshake, chunk
// ticket, countdown latch) runs even on a single-CPU host.

TEST(RegionStress, RepeatedRegionsOnOnePoolCoverEveryIndex) {
  // Back-to-back regions reuse the same descriptor; stragglers from
  // round r must never touch round r+1 (epoch/quiesce protocol).
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(512);
  for (int round = 0; round < 200; ++round) {
    parallel_for(pool, 0, 512, [&](index_t i) { ++hits[i]; }, /*grain=*/1);
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 200);
}

TEST(RegionStress, EdgeCaseRangesAndGrains) {
  ThreadPool pool(4);
  for (const index_t n : {0, 1, 2, 3, 63, 64, 65, 1000}) {
    for (const index_t grain : {1, 7, 64, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      parallel_for(pool, 0, n, [&](index_t i) { ++hits[i]; }, grain);
      for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1) << "n=" << n << " grain=" << grain;
      }
    }
  }
}

class ParallelForThreadCount : public ::testing::TestWithParam<int> {};

TEST_P(ParallelForThreadCount, SumIndependentOfThreads) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  std::vector<double> out(10000, 0);
  parallel_for(pool, 0, 10000,
               [&](index_t i) { out[static_cast<std::size_t>(i)] =
                                    std::sqrt(static_cast<double>(i)); },
               /*grain=*/4);
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  // Serial reference.
  double expected = 0;
  for (index_t i = 0; i < 10000; ++i) {
    expected += std::sqrt(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(total, expected);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForThreadCount,
                         ::testing::Values(1, 2, 3, 8));

}  // namespace
}  // namespace hm::parallel
