// Per-layer microbenchmarks: the benchmark's own timers around calls into
// each module's public functions, at the workloads' own shapes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace hm::perfbench {

/// A measured quantity: the median over repetitions, its quartiles, and
/// the sample count.
struct Stat {
  double value = 0;
  double q1 = 0;
  double q3 = 0;
  std::size_t samples = 0;
};

/// Median and quartiles of `v` (statistics.quantiles(n=4) convention,
/// "exclusive" method); a single sample is its own quartiles.
Stat summarize(std::vector<double> v);

/// A constant (derived or counted) value as a one-sample Stat.
Stat exact(double v);

/// Time `fn` repeatedly: at least `min_reps` times and until `budget_s`
/// seconds have passed (at most `max_reps`). Returns seconds per call.
std::vector<double> time_reps(const std::function<void()>& fn,
                              double budget_s, std::size_t min_reps,
                              std::size_t max_reps = 100000);

/// Run every microbenchmark, spending about `budget_s` seconds in total.
/// `seed` generates the inputs; `scratch_dir` receives the snapshot file
/// of io.snapshot.write_ms. Fills `out` keyed by per-layer metric name.
void measure_layers(std::uint64_t seed, double budget_s,
                    const std::string& scratch_dir,
                    parallel::ThreadPool& pool,
                    std::map<std::string, Stat>& out);

}  // namespace hm::perfbench
