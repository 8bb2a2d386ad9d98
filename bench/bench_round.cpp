// End-to-end round-time benchmarks (google-benchmark): the Fig. 3 and
// Fig. 4 training configurations, measured as whole train_hierminimax
// calls so the number includes sampling, local SGD, aggregation, the
// ascent step, and evaluation — everything a production round pays.
//
// Shapes follow bench_fig3_convex / bench_fig4_nonconvex: the `quick`
// rows are those benches' default surrogate dims, the `paper` rows the
// paper's §6 dims (784-dim inputs, 300/100 MLP) with a reduced sample
// count so dataset generation stays out of the measured region.
// The `trace` arg measures the observability overhead ladder (DESIGN.md
// §15): trace=0 is the compiled-in-idle arm (hooks present, tracer
// disarmed — the ≤1% budget row), trace=1 runs with the span tracer
// armed. The compiled-out arm is the same bench from a -DHM_OBS=OFF
// build tree.
#include <benchmark/benchmark.h>

#include "algo/hierminimax.hpp"
#include "bench_common.hpp"
#include "nn/mlp.hpp"
#include "nn/softmax_regression.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/topology.hpp"

namespace {

using namespace hm;

constexpr index_t kRoundsPerIter = 4;

/// Arms the tracer for one benchmark run when `traced`; always disarms
/// on scope exit so arms never leak between registrations.
struct TraceArm {
  explicit TraceArm(bool traced) {
    if (!traced) return;
    obs::set_trace_capacity(1 << 16);
    obs::set_trace_enabled(true);
  }
  ~TraceArm() { obs::set_trace_enabled(false); }
};

algo::TrainOptions fig3_opts(seed_t seed) {
  algo::TrainOptions opts;
  opts.rounds = kRoundsPerIter;
  opts.tau1 = 2;
  opts.tau2 = 2;
  opts.batch_size = 4;
  opts.eta_w = 0.05;
  opts.eta_p = 0.002;
  opts.sampled_edges = 5;
  opts.eval_every = 0;  // final-round evaluation only
  opts.seed = seed;
  return opts;
}

algo::TrainOptions fig4_opts(seed_t seed) {
  algo::TrainOptions opts;
  opts.rounds = kRoundsPerIter;
  opts.tau1 = 2;
  opts.tau2 = 2;
  opts.batch_size = 8;
  opts.eta_w = 0.03;
  opts.eta_p = 0.001;
  opts.sampled_edges = 2;
  opts.eval_every = 0;
  opts.seed = seed;
  return opts;
}

void BM_Fig3Round(benchmark::State& state) {
  const index_t dim = state.range(0);
  parallel::ThreadPool pool;
  const index_t num_edges = 10, clients_per_edge = 3;
  const auto fed = bench::make_one_class_fed(bench::ImageFamily::kEmnistDigits,
                                             dim, num_edges, clients_per_edge,
                                             /*num_samples=*/4000, /*seed=*/1);
  const sim::HierTopology topo(num_edges, clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  algo::TrainOptions opts = fig3_opts(1);
  const TraceArm arm(state.range(1) != 0);
  for (auto _ : state) {
    auto result = algo::train_hierminimax(model, fed, topo, opts, pool);
    benchmark::DoNotOptimize(result.w.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kRoundsPerIter);
}
BENCHMARK(BM_Fig3Round)
    ->Args({64, 0})->Args({784, 0})->Args({64, 1})->Args({784, 1})
    ->ArgNames({"dim", "trace"})
    ->Unit(benchmark::kMillisecond);

void BM_Fig4Round(benchmark::State& state) {
  const index_t dim = state.range(0);
  parallel::ThreadPool pool;
  const bool paper_arch = dim >= 784;
  const index_t num_edges = 10, clients_per_edge = 3;
  const auto fed = bench::make_similarity_fed(bench::ImageFamily::kFashion,
                                              dim, num_edges, clients_per_edge,
                                              /*similarity=*/0.5,
                                              /*num_samples=*/3000, /*seed=*/2);
  const sim::HierTopology topo(num_edges, clients_per_edge);
  const nn::Mlp model = paper_arch
                            ? nn::make_paper_mlp(dim, fed.num_classes())
                            : nn::Mlp({dim, 48, 24, fed.num_classes()});
  algo::TrainOptions opts = fig4_opts(2);
  const TraceArm arm(state.range(1) != 0);
  for (auto _ : state) {
    auto result = algo::train_hierminimax(model, fed, topo, opts, pool);
    benchmark::DoNotOptimize(result.w.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kRoundsPerIter);
}
BENCHMARK(BM_Fig4Round)
    ->Args({32, 0})->Args({784, 0})->Args({32, 1})->Args({784, 1})
    ->ArgNames({"dim", "trace"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
