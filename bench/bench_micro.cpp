// Substrate micro-benchmarks (google-benchmark): the kernels on the
// simulator's critical path — BLAS-1 aggregation, GEMM, simplex
// projection, a full local-SGD step, and thread-pool dispatch overhead.
#include <benchmark/benchmark.h>

#include "algo/local_sgd.hpp"
#include "algo/projection.hpp"
#include "data/generators.hpp"
#include "nn/mlp.hpp"
#include "nn/softmax_regression.hpp"
#include "parallel/parallel_for.hpp"
#include "rng/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/vecops.hpp"

namespace {

using namespace hm;

void BM_Axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<scalar_t> x(n, 1.5), y(n, 0.5);
  for (auto _ : state) {
    tensor::axpy(0.9, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Axpy)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<scalar_t> x(n, 1.5), y(n, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::dot(x, y));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Dot)->Arg(1 << 10)->Arg(1 << 16);

void BM_GemmNt(benchmark::State& state) {
  const index_t n = state.range(0);
  rng::Xoshiro256 gen(1);
  tensor::Matrix a(n, n), b(n, n), c(n, n);
  for (auto& v : a.flat()) v = gen.normal();
  for (auto& v : b.flat()) v = gen.normal();
  for (auto _ : state) {
    tensor::gemm_nt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * n *
                          n * n);
}
BENCHMARK(BM_GemmNt)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_FusedUpdate(benchmark::State& state) {
  // The decayed SGD update w = -eta*g + decay*w: one fused axpby pass
  // versus the scale+axpy pair it replaced.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<scalar_t> g(n, 0.25), w(n, 1.0);
  const bool fused = state.range(1) != 0;
  for (auto _ : state) {
    if (fused) {
      tensor::axpby(-0.01, g, 0.999, w);
    } else {
      tensor::scale(0.999, w);
      tensor::axpy(-0.01, g, w);
    }
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FusedUpdate)
    ->ArgsProduct({{1 << 14, 1 << 18}, {0, 1}})
    ->ArgNames({"n", "fused"});

void BM_SimplexProjection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Xoshiro256 gen(2);
  std::vector<scalar_t> base(n);
  for (auto& v : base) v = gen.normal();
  for (auto _ : state) {
    auto v = base;
    algo::project_simplex(v);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_SimplexProjection)->Arg(10)->Arg(100)->Arg(1000);

void BM_CappedSimplexProjection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Xoshiro256 gen(3);
  std::vector<scalar_t> base(n);
  for (auto& v : base) v = gen.normal();
  const algo::SimplexSet set{0.001, 0.5};
  for (auto _ : state) {
    auto v = base;
    algo::project_capped_simplex(v, set);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_CappedSimplexProjection)->Arg(10)->Arg(100)->Arg(1000);

void BM_LocalSgdStepSoftmax(benchmark::State& state) {
  const index_t dim = state.range(0);
  data::GaussianSpec spec;
  spec.dim = dim;
  spec.num_samples = 512;
  const auto d = data::make_gaussian_classes(spec);
  const nn::SoftmaxRegression model(dim, 10);
  std::vector<scalar_t> w(static_cast<std::size_t>(model.num_params()), 0);
  algo::ClientScratch scratch;
  rng::Xoshiro256 gen(4);
  algo::LocalSgdConfig cfg;
  cfg.steps = 1;
  cfg.batch_size = 8;
  cfg.eta = 0.01;
  for (auto _ : state) {
    algo::run_local_sgd(model, d, cfg, w, {}, gen, scratch);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_LocalSgdStepSoftmax)->Arg(64)->Arg(256)->Arg(784);

void BM_LocalSgdStepMlp(benchmark::State& state) {
  const index_t dim = state.range(0);
  data::GaussianSpec spec;
  spec.dim = dim;
  spec.num_samples = 512;
  const auto d = data::make_gaussian_classes(spec);
  const nn::Mlp model({dim, 300, 100, 10});
  std::vector<scalar_t> w(static_cast<std::size_t>(model.num_params()));
  rng::Xoshiro256 init(5);
  model.init_params(w, init);
  algo::ClientScratch scratch;
  rng::Xoshiro256 gen(6);
  algo::LocalSgdConfig cfg;
  cfg.steps = 1;
  cfg.batch_size = 8;
  cfg.eta = 0.01;
  for (auto _ : state) {
    algo::run_local_sgd(model, d, cfg, w, {}, gen, scratch);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_LocalSgdStepMlp)->Arg(64)->Arg(784);

void BM_ParallelForDispatch(benchmark::State& state) {
  // Every pool of two or more threads dispatches, even on a single-CPU
  // host, so this measures real concurrent dispatch.
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<scalar_t> out(1024, 0);
  for (auto _ : state) {
    parallel::parallel_for(
        pool, 0, 1024,
        [&](index_t i) { out[static_cast<std::size_t>(i)] += 1; },
        /*grain=*/1);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForDispatch)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
