// Tests for the extension features: Dirichlet partitioning, q-FFL,
// quantized training, and the L-level multi-hierarchy generalization of
// HierMinimax.
#include <gtest/gtest.h>

#include <set>

#include "algo/fedavg.hpp"
#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "algo/qffl.hpp"
#include "data/generators.hpp"
#include "nn/softmax_regression.hpp"
#include "tensor/vecops.hpp"
#include "test_util.hpp"

namespace hm {
namespace {

using algo::TrainOptions;
using testing_util::bits;
using testing_util::expect_same_output;
using testing_util::heterogeneous_task;
using testing_util::iid_task;
using testing_util::output_of;
using testing_util::test_pool;

// ---------------------------------------------------------------- Dirichlet

data::TrainTest dirichlet_source(seed_t seed = 41) {
  data::GaussianSpec spec;
  spec.dim = 12;
  spec.num_classes = 6;
  spec.num_samples = 4000;
  spec.seed = seed;
  const auto all = data::make_gaussian_classes(spec);
  rng::Xoshiro256 gen(seed + 1);
  return data::split_train_test(all, 0.25, gen);
}

TEST(Dirichlet, PartitionCoversAllTrainingData) {
  const auto tt = dirichlet_source();
  rng::Xoshiro256 gen(1);
  const auto fed = data::partition_dirichlet(tt, 5, 2, 0.5, gen);
  fed.validate();
  index_t total = 0;
  for (const auto& shard : fed.client_train) total += shard.size();
  EXPECT_EQ(total, tt.train.size());
}

TEST(Dirichlet, SmallAlphaConcentratesLabels) {
  const auto tt = dirichlet_source();
  auto mean_distinct_labels = [&](scalar_t alpha, seed_t seed) {
    rng::Xoshiro256 gen(seed);
    const auto fed = data::partition_dirichlet(tt, 5, 2, alpha, gen);
    double total = 0;
    for (index_t e = 0; e < fed.num_edges(); ++e) {
      std::set<index_t> labels;
      for (index_t i = 0; i < fed.clients_per_edge; ++i) {
        for (const index_t y : fed.shard(e, i).y) labels.insert(y);
      }
      total += static_cast<double>(labels.size());
    }
    return total / static_cast<double>(fed.num_edges());
  };
  // Labels with >= a handful of samples at tiny alpha vs near-complete
  // coverage at huge alpha.
  EXPECT_LT(mean_distinct_labels(0.1, 2), mean_distinct_labels(100.0, 3));
  EXPECT_GT(mean_distinct_labels(100.0, 3), 5.5);
}

TEST(Dirichlet, InvalidAlphaThrows) {
  const auto tt = dirichlet_source();
  rng::Xoshiro256 gen(4);
  EXPECT_THROW(data::partition_dirichlet(tt, 4, 2, 0.0, gen), CheckError);
  EXPECT_THROW(data::partition_dirichlet(tt, 4, 2, -1.0, gen), CheckError);
}

TEST(Dirichlet, DeterministicGivenGenerator) {
  const auto tt = dirichlet_source();
  rng::Xoshiro256 gen_a(7), gen_b(7);
  const auto fed_a = data::partition_dirichlet(tt, 4, 2, 1.0, gen_a);
  const auto fed_b = data::partition_dirichlet(tt, 4, 2, 1.0, gen_b);
  for (index_t n = 0; n < fed_a.num_clients(); ++n) {
    EXPECT_EQ(fed_a.client_train[static_cast<std::size_t>(n)].y,
              fed_b.client_train[static_cast<std::size_t>(n)].y);
  }
}

// ------------------------------------------------------------------- q-FFL

TrainOptions qffl_opts(index_t rounds = 60) {
  TrainOptions o;
  o.rounds = rounds;
  o.tau1 = 2;
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eval_every = 0;
  o.seed = 5;
  return o;
}

TEST(Qffl, LearnsIidTask) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto result = algo::train_qffl(model, fed, qffl_opts(80),
                                       test_pool());
  EXPECT_GT(result.history.back().summary.average, 0.8);
}

TEST(Qffl, PositiveQImprovesWorstOverQZero) {
  const auto fed = heterogeneous_task(5, 2, 99, 3000, 2.8);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = qffl_opts(250);
  opts.eta_w = 0.05;
  opts.sampled_clients = 6;
  opts.eval_every = 10;
  opts.q = 0;
  const auto q0 = algo::train_qffl(model, fed, opts, test_pool());
  opts.q = 5;
  const auto q5 = algo::train_qffl(model, fed, opts, test_pool());
  const auto s0 = q0.history.tail_summary(8);
  const auto s5 = q5.history.tail_summary(8);
  EXPECT_GE(s5.worst + 0.02, s0.worst);
  EXPECT_LE(s5.variance_pct2, s0.variance_pct2 * 1.2 + 3.0);
}

TEST(Qffl, NegativeQThrows) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = qffl_opts(2);
  opts.q = -1;
  EXPECT_THROW(algo::train_qffl(model, fed, opts, test_pool()), CheckError);
}

TEST(Qffl, CommAccounting) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = qffl_opts(5);
  opts.sampled_clients = 4;
  const auto result = algo::train_qffl(model, fed, opts, test_pool());
  EXPECT_EQ(result.comm.edge_cloud_rounds, 5u);
  EXPECT_EQ(result.comm.edge_cloud_models_up, 20u);
  EXPECT_EQ(result.comm.edge_cloud_scalars, 40u);
}

// q-FFL has no fault path and no combiner choice: options it would
// ignore are a CheckError naming it, never a silent no-op.
TEST(Qffl, RejectsFaultPlanAndRobustAggregate) {
  const auto fed = heterogeneous_task(4, 2);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  TrainOptions faulty = qffl_opts(3);
  faulty.fault.enabled = true;
  faulty.fault.attack = sim::AttackKind::kSignFlip;
  faulty.fault.attack_prob = 0.5;
  faulty.fault.client_dropout_prob = 0.5;
  faulty.fault.edge_loss_prob = 0.5;
  TrainOptions median = qffl_opts(3);
  median.aggregate = algo::Aggregate::kMedian;
  for (const TrainOptions& o : {faulty, median}) {
    try {
      algo::train_qffl(model, fed, o, test_pool());
      ADD_FAILURE() << "train_qffl accepted an option it ignores";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("train_qffl"), std::string::npos)
          << e.what();
    }
  }
}

// Clients quantize their uplinked models like every other trainer's, so
// the metered bytes describe what was applied, and the quantizer's
// streams replay bit for bit.
TEST(Qffl, QuantizedUplinkChangesWAndReplays) {
  const auto fed = heterogeneous_task(4, 2);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  TrainOptions o = qffl_opts(3);
  const auto plain = algo::train_qffl(model, fed, o, test_pool());
  o.quantize_bits = 8;
  const auto quant = algo::train_qffl(model, fed, o, test_pool());
  EXPECT_NE(plain.w, quant.w);
  expect_same_output(output_of(quant),
                     output_of(algo::train_qffl(model, fed, o, test_pool())),
                     "q-FFL 8-bit replay");
  EXPECT_LT(quant.comm.edge_cloud_bytes, plain.comm.edge_cloud_bytes);
}

// ----------------------------------------------------------- quantization

TEST(QuantizedTraining, EightBitsStillLearns) {
  const auto fed = iid_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  TrainOptions opts;
  opts.rounds = 60;
  opts.tau1 = 2;
  opts.tau2 = 2;
  opts.batch_size = 4;
  opts.eta_w = 0.1;
  opts.eta_p = 0.005;
  opts.eval_every = 0;
  opts.seed = 9;
  opts.quantize_bits = 8;
  const auto result = algo::train_hierminimax(model, fed, topo, opts,
                                              test_pool());
  EXPECT_GT(result.history.back().summary.average, 0.8);
}

TEST(QuantizedTraining, BytesShrinkWithBits) {
  const auto fed = iid_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  TrainOptions opts;
  opts.rounds = 4;
  opts.tau1 = 2;
  opts.tau2 = 2;
  opts.eta_w = 0.05;
  opts.eta_p = 0.005;
  opts.eval_every = 0;
  opts.seed = 9;
  const auto full = algo::train_hierminimax(model, fed, topo, opts,
                                            test_pool());
  opts.quantize_bits = 4;
  const auto q4 = algo::train_hierminimax(model, fed, topo, opts, test_pool());
  EXPECT_LT(q4.comm.edge_cloud_bytes, full.comm.edge_cloud_bytes);
  EXPECT_LT(q4.comm.client_edge_bytes, full.comm.client_edge_bytes);
  // Round/model *counts* are unchanged by compression.
  EXPECT_EQ(q4.comm.edge_cloud_models(), full.comm.edge_cloud_models());
}

TEST(QuantizedTraining, ZeroBitsIsExactlyBaseline) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  TrainOptions opts;
  opts.rounds = 5;
  opts.tau1 = 2;
  opts.eta_w = 0.05;
  opts.eval_every = 0;
  opts.seed = 10;
  const auto a = algo::train_fedavg(model, fed, opts, test_pool());
  opts.quantize_bits = 0;
  const auto b = algo::train_fedavg(model, fed, opts, test_pool());
  EXPECT_EQ(a.w, b.w);
}

// ------------------------------------------------- multi-level hierarchy

TEST(MultiTopology, Cardinalities) {
  const sim::MultiTopology topo({4, 3, 2});  // 4 areas, 3 mid, 2 leaves
  EXPECT_EQ(topo.depth(), 3);
  EXPECT_EQ(topo.num_areas(), 4);
  EXPECT_EQ(topo.num_leaves(), 24);
  EXPECT_EQ(topo.leaves_per_area(), 6);
  EXPECT_EQ(topo.nodes_at(2), 12);
  EXPECT_EQ(topo.area_of_leaf(0), 0);
  EXPECT_EQ(topo.area_of_leaf(23), 3);
  EXPECT_EQ(topo.first_leaf_of(2, 5), 10);
}

TEST(MultiTopology, InvalidConstructionThrows) {
  EXPECT_THROW(sim::MultiTopology({}), CheckError);
  EXPECT_THROW(sim::MultiTopology({3, 0}), CheckError);
}

/// Options for a run on an explicit tree: blocks per level in `taus`.
TrainOptions multi_opts(std::vector<index_t> taus, index_t rounds = 60) {
  TrainOptions o;
  o.rounds = rounds;
  o.taus = std::move(taus);
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eta_p = 0.005;
  o.eval_every = 0;
  o.seed = 5;
  return o;
}

TEST(MultiHierMinimax, DepthTwoLearnsIidTask) {
  const auto fed = iid_task();  // 4 edges x 2 clients
  const sim::MultiTopology topo({fed.num_edges(), fed.clients_per_edge});
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto result =
      algo::train_hierminimax(model, fed, topo, multi_opts({2, 2}),
                              test_pool());
  EXPECT_GT(result.history.back().summary.average, 0.85);
  scalar_t total = 0;
  for (const scalar_t p : result.p) total += p;
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(MultiHierMinimax, DepthThreeLearns) {
  // 4 areas x (2 mid-nodes x 2 clients) = 16 leaves.
  const auto fed = testing_util::heterogeneous_task(4, 4, 77, 3200);
  const sim::MultiTopology topo({4, 2, 2});
  ASSERT_EQ(topo.leaves_per_area(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = multi_opts({2, 2, 2}, 80);
  opts.eta_w = 0.05;
  const auto result = algo::train_hierminimax(model, fed, topo, opts,
                                              test_pool());
  EXPECT_GT(result.history.back().summary.average, 0.6);
  // One round per synchronized block. Cloud link: both phases every
  // round. Below it, per round: taus[0] area blocks, taus[0] * taus[1]
  // innermost blocks, and the Phase-2 checkpoint broadcast.
  const std::vector<index_t>& t = opts.taus;
  EXPECT_EQ(result.comm.edge_cloud_rounds, 2u * 80u);
  EXPECT_EQ(result.comm.client_edge_rounds,
            static_cast<std::uint64_t>(80 * (t[0] + t[0] * t[1] + 1)));
  // Phase 2 scores all 4 areas: one loss scalar from each of an area's 4
  // leaves and 2 interior nodes.
  EXPECT_EQ(result.comm.client_edge_scalars, 80u * 4u * (4u + 2u));
}

TEST(MultiHierMinimax, PartialParticipationAndCappedSet) {
  const auto fed = heterogeneous_task(4, 2);
  const sim::MultiTopology topo({4, 2});
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = multi_opts({2, 2}, 30);
  opts.sampled_edges = 2;
  opts.p_set = algo::SimplexSet{0.1, 0.5};
  opts.eta_p = 0.1;
  const auto result = algo::train_hierminimax(model, fed, topo, opts,
                                              test_pool());
  for (const scalar_t p : result.p) {
    EXPECT_GE(p, 0.1 - 1e-7);
    EXPECT_LE(p, 0.5 + 1e-7);
  }
}

TEST(MultiHierMinimax, MismatchedTausThrow) {
  const auto fed = heterogeneous_task(4, 2);
  const sim::MultiTopology topo({4, 2});
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  EXPECT_THROW(
      algo::train_hierminimax(model, fed, topo, multi_opts({2}), test_pool()),
      CheckError);
  EXPECT_THROW(
      algo::train_hierminimax(model, fed, topo, multi_opts({2, 0}),
                              test_pool()),
      CheckError);
  // taus and a non-default tau1/tau2 are two answers to one question.
  auto both = multi_opts({2, 2});
  both.tau1 = 2;
  EXPECT_THROW(algo::train_hierminimax(model, fed, topo, both,
                                       test_pool()), CheckError);
  // Empty taus means {tau2, tau1}: only a depth-2 tree fits it.
  const sim::MultiTopology deep({4, 1, 2});
  EXPECT_THROW(algo::train_hierminimax(model, fed, deep, TrainOptions{},
                                       test_pool()),
               CheckError);
}

TEST(MultiHierFavg, DepthThreeLearnsAndHasNoWeightAdaptation) {
  const auto fed = testing_util::heterogeneous_task(4, 4, 77, 3200);
  const sim::MultiTopology topo({4, 2, 2});
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = multi_opts({2, 2, 2}, 80);
  opts.eta_w = 0.05;
  const auto result = algo::train_hierfavg(model, fed, topo, opts, test_pool());
  EXPECT_GT(result.history.back().summary.average, 0.6);
  for (const scalar_t p : result.p) EXPECT_DOUBLE_EQ(p, 0.25);  // fixed
  // No Phase 2: the cloud link syncs once per round, the links below it
  // once per area block and once per innermost block.
  const std::vector<index_t>& t = opts.taus;
  EXPECT_EQ(result.comm.edge_cloud_rounds, 80u);
  EXPECT_EQ(result.comm.client_edge_rounds,
            static_cast<std::uint64_t>(80 * (t[0] + t[0] * t[1])));
}

TEST(MultiHierMinimax, TrivialMiddleLevelCollapsesToDepthTwo) {
  // A middle level with tau = 1 and matching fan-out is pure relabeling:
  // branching {A, 2, 2} with taus {t, 1, s} computes exactly what
  // branching {A, 4} with taus {t, s} computes (same leaf ids, same
  // iteration bases, same averaging tree) — so the results agree up to
  // floating-point averaging associativity ((a+b)/2 + (c+d))/2 vs
  // (a+b+c+d)/4).
  const auto fed = testing_util::heterogeneous_task(4, 4, 55, 3200);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts2 = multi_opts({3, 2}, 12);
  auto opts3 = multi_opts({3, 1, 2}, 12);
  const sim::MultiTopology topo2({4, 4});
  const sim::MultiTopology topo3({4, 2, 2});
  const auto a = algo::train_hierminimax(model, fed, topo2, opts2, test_pool());
  const auto b = algo::train_hierminimax(model, fed, topo3, opts3, test_pool());
  ASSERT_EQ(a.w.size(), b.w.size());
  for (std::size_t i = 0; i < a.w.size(); ++i) {
    EXPECT_NEAR(a.w[i], b.w[i], 1e-10);
  }
  for (std::size_t i = 0; i < a.p.size(); ++i) {
    EXPECT_NEAR(a.p[i], b.p[i], 1e-10);
  }
}

/// The same depth-2 run spelled with tau2/tau1 instead of taus.
TrainOptions flat_options(const TrainOptions& m) {
  TrainOptions o = m;
  o.taus.clear();
  o.tau2 = m.taus[0];
  o.tau1 = m.taus[1];
  return o;
}

/// Depth 2 is Algorithm 1: on the tree {N_E, N_0}, taus {tau2, tau1}
/// reproduces the tau2/tau1 spelling on a HierTopology bit for bit —
/// model, weights, averages, comm meter and history — fault-free, under
/// area sampling with a capped weight set, and under faults with a
/// robust combiner and stale reuse.
TEST(MultiHierMinimax, DepthTwoIsBitIdenticalToFlatTrainers) {
  const auto fed = heterogeneous_task(4, 3);
  const sim::MultiTopology tree({fed.num_edges(), fed.clients_per_edge});
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());

  std::vector<std::pair<std::string, TrainOptions>> cases;
  cases.emplace_back("plain", multi_opts({3, 2}, 6));
  cases.back().second.eval_every = 1;
  cases.emplace_back("sampled", cases.front().second);
  cases.back().second.sampled_edges = 2;
  cases.back().second.p_set = algo::SimplexSet{0.1, 0.6};
  cases.back().second.eta_p = 0.05;
  cases.emplace_back("faults", cases.front().second);
  {
    auto& f = cases.back().second;
    f.fault.enabled = true;
    f.fault.client_dropout_prob = 0.25;
    f.fault.straggler_prob = 0.3;
    f.fault.edge_loss_prob = 0.2;
    f.fault.edge_crash_round = {-1, 2, -1, -1};
    f.on_fault = algo::OnFault::kReuseStale;
    f.aggregate = algo::Aggregate::kMedian;
  }
  for (const auto& [name, m] : cases) {
    expect_same_output(
        output_of(algo::train_hierminimax(model, fed, tree, m, test_pool())),
        output_of(algo::train_hierminimax(model, fed, topo, flat_options(m),
                                          test_pool())),
        "hierminimax " + name);
    expect_same_output(
        output_of(algo::train_hierfavg(model, fed, tree, m, test_pool())),
        output_of(algo::train_hierfavg(model, fed, topo, flat_options(m),
                                       test_pool())),
        "hierfavg " + name);
  }
}

TEST(MultiHierMinimax, DepthOneTreeIsRejected) {
  const auto fed = heterogeneous_task(4, 1);
  const sim::MultiTopology tree({4});
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  EXPECT_THROW(algo::train_hierminimax(model, fed, tree, multi_opts({2}),
                                       test_pool()),
               CheckError);
  EXPECT_THROW(algo::train_hierfavg(model, fed, tree, multi_opts({2}),
                                    test_pool()),
               CheckError);
}

TEST(MultiHierMinimax, ImprovesFairnessOnHeterogeneousTask) {
  // Depth-3 fairness smoke test: weights should deviate from uniform on a
  // task with unequal class difficulty.
  const auto fed = testing_util::heterogeneous_task(4, 4, 31, 3200, 2.5);
  const sim::MultiTopology topo({4, 2, 2});
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = multi_opts({2, 1, 2}, 120);
  opts.eta_w = 0.05;
  opts.eta_p = 0.01;
  const auto result = algo::train_hierminimax(model, fed, topo, opts,
                                              test_pool());
  scalar_t spread = 0;
  for (const scalar_t p : result.p) spread += std::abs(p - 0.25);
  EXPECT_GT(spread, 0.02);
}

}  // namespace
}  // namespace hm
