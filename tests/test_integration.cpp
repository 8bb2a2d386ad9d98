// End-to-end integration tests: the paper's qualitative claims at
// miniature scale — minimax methods improve worst-edge accuracy and
// reduce accuracy variance vs minimization methods; the duality gap of
// HierMinimax's averaged iterates shrinks with training.
#include <gtest/gtest.h>

#include "algo/drfa.hpp"
#include "algo/duality_gap.hpp"
#include "algo/fedavg.hpp"
#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "nn/mlp.hpp"
#include "nn/softmax_regression.hpp"
#include "test_util.hpp"

namespace hm::algo {
namespace {

using testing_util::heterogeneous_task;
using testing_util::test_pool;

/// A task where one-class-per-edge heterogeneity plus partial
/// participation makes plain averaging visibly unfair.
data::FederatedDataset unfair_task(seed_t seed) {
  return heterogeneous_task(5, 2, seed, 2500, /*separation=*/2.8);
}

TrainOptions base_opts(index_t rounds) {
  TrainOptions o;
  o.rounds = rounds;
  o.tau1 = 2;
  o.tau2 = 2;
  o.batch_size = 4;
  o.eta_w = 0.05;
  o.eta_p = 0.003;
  o.sampled_edges = 3;
  o.sampled_clients = 6;
  o.eval_every = 0;
  o.seed = 13;
  return o;
}

TEST(Integration, MinimaxImprovesWorstEdgeVsMinimization) {
  const auto fed = unfair_task(301);
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = base_opts(300);
  opts.eval_every = 10;

  const auto mm = train_hierminimax(model, fed, topo, opts, test_pool());
  const auto fa = train_hierfavg(model, fed, topo, opts, test_pool());
  const auto dr = train_drfa(model, fed, opts, test_pool());
  const auto fv = train_fedavg(model, fed, opts, test_pool());

  // Tail-averaged: final snapshots alone are SGD-noisy.
  const auto s_mm = mm.history.tail_summary(8);
  const auto s_fa = fa.history.tail_summary(8);
  const auto s_dr = dr.history.tail_summary(8);
  const auto s_fv = fv.history.tail_summary(8);

  // Paper Table 2 shape: minimax variants dominate their minimization
  // counterparts on worst accuracy (allow tiny numerical slack).
  EXPECT_GE(s_mm.worst + 0.03, s_fa.worst);
  EXPECT_GE(s_dr.worst + 0.03, s_fv.worst);
  // And all methods still learn something on average.
  EXPECT_GT(s_mm.average, 0.5);
  EXPECT_GT(s_fa.average, 0.5);
}

TEST(Integration, MinimaxReducesVarianceAcrossSeeds) {
  // Averaged over seeds, HierMinimax's across-edge accuracy variance must
  // not exceed HierFAVG's (the Table 2 variance column).
  double var_mm = 0, var_fa = 0;
  for (const seed_t seed : {11u, 22u, 33u}) {
    const auto fed = unfair_task(400 + seed);
    const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
    const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
    auto opts = base_opts(200);
    opts.seed = seed;
    opts.eval_every = 10;
    var_mm += train_hierminimax(model, fed, topo, opts, test_pool())
                  .history.tail_summary(8).variance_pct2;
    var_fa += train_hierfavg(model, fed, topo, opts, test_pool())
                  .history.tail_summary(8).variance_pct2;
  }
  EXPECT_LE(var_mm, var_fa * 1.10 + 3.0);
}

TEST(Integration, DualityGapShrinksWithTraining) {
  const auto fed = heterogeneous_task(4, 2, 505, 1600, 2.5);
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());

  DualityGapOptions gap_opts;
  gap_opts.minimize_iters = 80;
  gap_opts.eta = 0.2;
  parallel::ThreadPool pool(4);

  auto gap_after = [&](index_t rounds) {
    auto opts = base_opts(rounds);
    opts.sampled_edges = 0;  // full participation for a clean signal
    const auto result = train_hierminimax(model, fed, topo, opts, pool);
    return estimate_duality_gap(model, fed, result.w_avg, result.p_avg,
                                gap_opts, pool)
        .gap;
  };
  const scalar_t early = gap_after(3);
  const scalar_t late = gap_after(150);
  EXPECT_LT(late, early);
  EXPECT_GT(early, 0);      // start far from a saddle point
  EXPECT_GT(late, -0.05);   // gap is nonnegative up to estimation noise
}

TEST(Integration, DualityGapRejectsNonConvexModel) {
  const auto fed = heterogeneous_task();
  const nn::Mlp mlp({fed.dim(), 8, fed.num_classes()});
  std::vector<scalar_t> w(static_cast<std::size_t>(mlp.num_params()), 0);
  std::vector<scalar_t> p(static_cast<std::size_t>(fed.num_edges()),
                          1.0 / static_cast<scalar_t>(fed.num_edges()));
  parallel::ThreadPool pool(2);
  EXPECT_THROW(
      estimate_duality_gap(mlp, fed, w, p, DualityGapOptions{}, pool),
      CheckError);
}

TEST(Integration, NonConvexMlpTrainsUnderHierMinimax) {
  const auto fed = heterogeneous_task(4, 2, 606, 1600, 3.0);
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::Mlp model({fed.dim(), 16, fed.num_classes()});
  auto opts = base_opts(120);
  opts.sampled_edges = 2;
  opts.eta_w = 0.05;
  const auto result = train_hierminimax(model, fed, topo, opts, test_pool());
  EXPECT_GT(result.history.back().summary.average, 0.7);
}

TEST(Integration, CommunicationCostOrdering) {
  // For equal K, per-round communication rounds satisfy
  // FedAvg < HierFAVG < HierMinimax (hierarchy + phase 2 add events),
  // and AFL == DRFA (same structure, different tau1).
  const auto fed = heterogeneous_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto opts = base_opts(10);
  const auto fv = train_fedavg(model, fed, opts, test_pool());
  const auto fa = train_hierfavg(model, fed, topo, opts, test_pool());
  const auto mm = train_hierminimax(model, fed, topo, opts, test_pool());
  const auto dr = train_drfa(model, fed, opts, test_pool());
  const auto afl = train_stochastic_afl(model, fed, opts, test_pool());
  EXPECT_LT(fv.comm.total_rounds(), fa.comm.total_rounds());
  EXPECT_LT(fa.comm.total_rounds(), mm.comm.total_rounds());
  EXPECT_EQ(dr.comm.total_rounds(), afl.comm.total_rounds());
}

TEST(Integration, ProgressIsMonotoneOnAverageLoss) {
  // Global loss along the recorded history should broadly decrease
  // (compare first vs last rather than strict monotonicity).
  const auto fed = heterogeneous_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = base_opts(60);
  opts.eval_every = 20;
  const auto result = train_hierminimax(model, fed, topo, opts, test_pool());
  ASSERT_GE(result.history.size(), 2u);
  EXPECT_LT(result.history.back().global_loss,
            result.history.records().front().global_loss);
}

}  // namespace
}  // namespace hm::algo
