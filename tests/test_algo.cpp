// Tests for the shared algorithm machinery (local SGD, participant
// bookkeeping) and the baseline trainers (FedAvg, HierFAVG, DRFA/AFL):
// convergence on easy tasks, communication accounting, determinism.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/drfa.hpp"
#include "algo/fedavg.hpp"
#include "algo/hierfavg.hpp"
#include "algo/local_sgd.hpp"
#include "algo/trainer_common.hpp"
#include "nn/mlp.hpp"
#include "nn/softmax_regression.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/vecops.hpp"
#include "test_util.hpp"

namespace hm::algo {
namespace {

using testing_util::bits;
using testing_util::heterogeneous_task;
using testing_util::iid_task;
using testing_util::test_pool;

TEST(LocalSgd, ReducesLossOnShard) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto& shard = fed.client_train[0];
  std::vector<scalar_t> w(static_cast<std::size_t>(model.num_params()), 0);
  ClientScratch scratch;
  scratch.ensure(model);
  auto ws = model.make_workspace();
  const auto batch = nn::all_indices(shard.size());
  const scalar_t before = model.loss(w, shard, batch, *ws);
  LocalSgdConfig cfg;
  cfg.steps = 200;
  cfg.batch_size = 8;
  cfg.eta = 0.1;
  rng::Xoshiro256 gen(1);
  run_local_sgd(model, shard, cfg, w, {}, gen, scratch);
  EXPECT_LT(model.loss(w, shard, batch, *ws), 0.7 * before);
}

TEST(LocalSgd, CheckpointCapturesIntermediateIterate) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto& shard = fed.client_train[0];
  const auto d = static_cast<std::size_t>(model.num_params());

  // Run 5 steps with checkpoint at step 3.
  std::vector<scalar_t> w5(d, 0), ckpt(d, 0);
  LocalSgdConfig cfg;
  cfg.steps = 5;
  cfg.batch_size = 4;
  cfg.eta = 0.05;
  cfg.checkpoint_step = 3;
  ClientScratch scratch;
  rng::Xoshiro256 gen_a(9);
  run_local_sgd(model, shard, cfg, w5, ckpt, gen_a, scratch);

  // Reference: 3 steps with the same stream must equal the checkpoint.
  std::vector<scalar_t> w3(d, 0);
  LocalSgdConfig cfg3;
  cfg3.steps = 3;
  cfg3.batch_size = 4;
  cfg3.eta = 0.05;
  rng::Xoshiro256 gen_b(9);
  run_local_sgd(model, shard, cfg3, w3, {}, gen_b, scratch);
  for (std::size_t i = 0; i < d; ++i) EXPECT_DOUBLE_EQ(ckpt[i], w3[i]);
  // And the final iterate moved past the checkpoint.
  EXPECT_NE(w5, ckpt);
}

TEST(LocalSgd, CheckpointAtFinalStepEqualsResult) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto& shard = fed.client_train[0];
  const auto d = static_cast<std::size_t>(model.num_params());
  std::vector<scalar_t> w(d, 0), ckpt(d, 0);
  LocalSgdConfig cfg;
  cfg.steps = 4;
  cfg.batch_size = 2;
  cfg.eta = 0.05;
  cfg.checkpoint_step = 4;
  ClientScratch scratch;
  rng::Xoshiro256 gen(10);
  run_local_sgd(model, shard, cfg, w, ckpt, gen, scratch);
  for (std::size_t i = 0; i < d; ++i) EXPECT_DOUBLE_EQ(ckpt[i], w[i]);
}

TEST(LocalSgd, ProjectionKeepsIterateInBall) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  std::vector<scalar_t> w(static_cast<std::size_t>(model.num_params()), 0);
  LocalSgdConfig cfg;
  cfg.steps = 100;
  cfg.batch_size = 4;
  cfg.eta = 0.5;  // aggressive, would escape a small ball
  cfg.w_radius = 0.2;
  ClientScratch scratch;
  rng::Xoshiro256 gen(11);
  run_local_sgd(model, fed.client_train[0], cfg, w, {}, gen, scratch);
  EXPECT_LE(tensor::nrm2(w), 0.2 + 1e-9);
}

TEST(LocalSgd, WeightDecayShrinksParameterNorm) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto& shard = fed.client_train[0];
  auto run_with_decay = [&](scalar_t decay) {
    std::vector<scalar_t> w(static_cast<std::size_t>(model.num_params()), 0);
    LocalSgdConfig cfg;
    cfg.steps = 300;
    cfg.batch_size = 8;
    cfg.eta = 0.1;
    cfg.weight_decay = decay;
    ClientScratch scratch;
    rng::Xoshiro256 gen(21);
    run_local_sgd(model, shard, cfg, w, {}, gen, scratch);
    return tensor::nrm2(w);
  };
  const scalar_t plain = run_with_decay(0.0);
  const scalar_t decayed = run_with_decay(0.5);
  EXPECT_LT(decayed, plain);
  EXPECT_GT(decayed, 0);
}

TEST(LocalSgd, ProximalTermLimitsDrift) {
  // With a strong proximal anchor the iterate stays near its start even
  // after many steps on skewed data.
  const auto fed = heterogeneous_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto& shard = fed.client_train[0];  // single-class shard -> drift
  auto drift_with_mu = [&](scalar_t mu) {
    std::vector<scalar_t> w(static_cast<std::size_t>(model.num_params()), 0);
    LocalSgdConfig cfg;
    cfg.steps = 200;
    cfg.batch_size = 8;
    cfg.eta = 0.1;
    cfg.prox_mu = mu;
    ClientScratch scratch;
    rng::Xoshiro256 gen(31);
    run_local_sgd(model, shard, cfg, w, {}, gen, scratch);
    return tensor::nrm2(w);  // start was 0, so norm == drift
  };
  const scalar_t free_drift = drift_with_mu(0.0);
  const scalar_t anchored = drift_with_mu(5.0);
  EXPECT_LT(anchored, 0.5 * free_drift);
  EXPECT_GT(anchored, 0);
}

// A job's `start` is copied into its w inside the device task. The block
// must equal copying every start first and then running, bit for bit,
// with every option that reads the iterate: the FedProx centre must be
// the start model, not whatever w held before, and decay, projection and
// the checkpoint capture follow from it.
TEST(LocalSgd, JobStartCopyMatchesCopyThenRun) {
  const auto fed = heterogeneous_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto d = static_cast<std::size_t>(model.num_params());
  LocalSgdConfig cfg;
  cfg.steps = 6;
  cfg.batch_size = 4;
  cfg.eta = 0.1;
  cfg.w_radius = 0.8;
  cfg.weight_decay = 0.05;
  cfg.prox_mu = 0.5;
  cfg.checkpoint_step = 3;
  // Two start models, each shared by two jobs (as siblings share their
  // parent's model).
  std::vector<std::vector<scalar_t>> starts(2, std::vector<scalar_t>(d));
  rng::Xoshiro256 init(5);
  for (auto& s : starts) {
    for (auto& x : s) x = 0.1 * init.normal();
  }
  const std::size_t n = 4;
  parallel::ThreadPool pool(3);
  const sim::ClusterSim cluster(pool);
  struct Out {
    std::vector<std::vector<scalar_t>> w, ckpt;
  };
  const auto run = [&](bool start_in_job) {
    // w starts far from every start model, so a prox centre taken before
    // the copy would show.
    Out out{std::vector<std::vector<scalar_t>>(n,
                                               std::vector<scalar_t>(d, 7.0)),
            std::vector<std::vector<scalar_t>>(n,
                                               std::vector<scalar_t>(d, 0))};
    std::vector<rng::Xoshiro256> gens;
    for (std::size_t j = 0; j < n; ++j) gens.emplace_back(100 + j);
    std::vector<ClientScratch> scratch(n);
    std::vector<LocalSgdJob> jobs;
    for (std::size_t j = 0; j < n; ++j) {
      const std::vector<scalar_t>& start = starts[j % 2];
      if (!start_in_job) tensor::copy(start, out.w[j]);
      jobs.push_back({&fed.client_train[j], out.w[j], out.ckpt[j], &gens[j],
                      static_cast<index_t>(j),
                      start_in_job ? nn::ConstVecView(start)
                                   : nn::ConstVecView()});
    }
    run_local_sgd_jobs(model, cfg, jobs, scratch, cluster);
    return out;
  };
  const Out ref = run(false);
  const Out got = run(true);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_GT(tensor::nrm2(ref.ckpt[j]), 0) << "job " << j;
    for (std::size_t i = 0; i < d; ++i) {
      ASSERT_EQ(bits(got.w[j][i]), bits(ref.w[j][i])) << j << "," << i;
      ASSERT_EQ(bits(got.ckpt[j][i]), bits(ref.ckpt[j][i])) << j << "," << i;
    }
  }
}

TEST(LocalSgd, MlpJobsOnAPoolMatchSerialRuns) {
  // One fused-step MLP block (decay, projection, checkpoint capture) on a
  // 4-thread pool equals each job's run_local_sgd called in turn on this
  // thread, with no pool involved.
  const auto fed = heterogeneous_task();
  const nn::Mlp model({fed.dim(), 48, fed.num_classes()});
  const auto d = static_cast<std::size_t>(model.num_params());
  LocalSgdConfig cfg;
  cfg.steps = 4;
  cfg.batch_size = 8;
  cfg.eta = 0.05;
  cfg.w_radius = 6.0;
  cfg.weight_decay = 0.1;
  cfg.checkpoint_step = 2;
  std::vector<scalar_t> w0(d);
  rng::Xoshiro256 init(9);
  model.init_params(w0, init);
  const std::size_t n = 6;
  struct Out {
    std::vector<std::vector<scalar_t>> w, ckpt;
  };
  const auto run = [&](parallel::ThreadPool* pool) {
    Out out{std::vector<std::vector<scalar_t>>(n, w0),
            std::vector<std::vector<scalar_t>>(n, std::vector<scalar_t>(d))};
    std::vector<rng::Xoshiro256> gens;
    for (std::size_t j = 0; j < n; ++j) gens.emplace_back(200 + j);
    std::vector<ClientScratch> scratch(n);
    if (pool == nullptr) {
      for (std::size_t j = 0; j < n; ++j) {
        run_local_sgd(model, fed.client_train[j], cfg, out.w[j], out.ckpt[j],
                      gens[j], scratch[j]);
      }
      return out;
    }
    std::vector<LocalSgdJob> jobs;
    for (std::size_t j = 0; j < n; ++j) {
      jobs.push_back({&fed.client_train[j], out.w[j], out.ckpt[j], &gens[j],
                      static_cast<index_t>(j), {}});
    }
    run_local_sgd_jobs(model, cfg, jobs, scratch, sim::ClusterSim(*pool));
    return out;
  };
  parallel::ThreadPool pool(4);
  const Out ref = run(nullptr);
  const Out got = run(&pool);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NE(bits(ref.w[j][0]), bits(w0[0])) << "job " << j;
    for (std::size_t i = 0; i < d; ++i) {
      ASSERT_EQ(bits(got.w[j][i]), bits(ref.w[j][i])) << j << "," << i;
      ASSERT_EQ(bits(got.ckpt[j][i]), bits(ref.ckpt[j][i])) << j << "," << i;
    }
  }
}

TEST(Participants, DedupAndMultiplicity) {
  const auto p = detail::Participants::from_draws({3, 1, 3, 3, 2});
  EXPECT_EQ(p.total, 5);
  EXPECT_EQ(p.ids, (std::vector<index_t>{3, 1, 2}));
  EXPECT_EQ(p.multiplicity, (std::vector<index_t>{3, 1, 1}));
}

TEST(Participants, WeightedAverageUsesMultiplicity) {
  std::vector<std::vector<scalar_t>> vecs = {
      {1.0}, {2.0}, {3.0}};
  const auto p = detail::Participants::from_draws({0, 2, 2, 2});
  std::vector<scalar_t> out(1);
  detail::weighted_average(vecs, p, out);
  EXPECT_DOUBLE_EQ(out[0], (1.0 + 3 * 3.0) / 4);
}

TEST(Participants, SubsetKeepsMaskedIdsInOrderWithMultiplicities) {
  const auto p = detail::Participants::from_draws({3, 1, 3, 3, 2});
  const auto s = p.subset({1, 0, 1});
  EXPECT_EQ(s.ids, (std::vector<index_t>{3, 2}));
  EXPECT_EQ(s.multiplicity, (std::vector<index_t>{3, 1}));
  EXPECT_EQ(s.total, 4);
  EXPECT_TRUE(p.subset({0, 0, 0}).ids.empty());
  EXPECT_EQ(p.subset({1, 1, 1}).ids, p.ids);
}

TEST(Participants, ManyDrawsPreserveFirstDrawOrder) {
  // The id->slot map must keep ids in first-draw order with exact
  // multiplicities even when draws are large and repetitive.
  std::vector<index_t> draws;
  for (index_t r = 0; r < 50; ++r) {
    for (const index_t id : {7, 3, 7, 11, 3, 7}) draws.push_back(id);
  }
  const auto p = detail::Participants::from_draws(draws);
  EXPECT_EQ(p.total, static_cast<index_t>(draws.size()));
  EXPECT_EQ(p.ids, (std::vector<index_t>{7, 3, 11}));
  EXPECT_EQ(p.multiplicity, (std::vector<index_t>{150, 100, 50}));
}

TEST(Participants, SingleRepeatedId) {
  const auto p = detail::Participants::from_draws({4, 4, 4, 4});
  EXPECT_EQ(p.ids, (std::vector<index_t>{4}));
  EXPECT_EQ(p.multiplicity, (std::vector<index_t>{4}));
  EXPECT_EQ(p.total, 4);
}

TEST(Averages, WeightedAverageMatchesSequentialAxpyChain) {
  // The fused axpby/axpy2 implementation promises bit-identity with the
  // plain chain out = sum_i w_i * v_i folded left-to-right per element.
  rng::Xoshiro256 gen(61);
  const std::size_t dim = 37;
  std::vector<std::vector<scalar_t>> vecs(7);
  for (auto& v : vecs) {
    v.resize(dim);
    for (auto& x : v) x = gen.normal();
  }
  // Odd and even participant counts exercise the pair loop and the tail.
  for (const auto& draws :
       {std::vector<index_t>{5, 2, 5, 0, 1}, std::vector<index_t>{6, 4}}) {
    const auto p = detail::Participants::from_draws(draws);
    std::vector<scalar_t> out(dim, -7.0);  // stale contents must not leak
    detail::weighted_average(vecs, p, out);
    const auto total = static_cast<scalar_t>(p.total);
    std::vector<scalar_t> expected(dim, 0.0);
    for (std::size_t i = 0; i < p.ids.size(); ++i) {
      const scalar_t w = static_cast<scalar_t>(p.multiplicity[i]) / total;
      const auto& v = vecs[static_cast<std::size_t>(p.ids[i])];
      for (std::size_t d = 0; d < dim; ++d) {
        expected[d] = i == 0 ? w * v[d] : expected[d] + w * v[d];
      }
    }
    EXPECT_EQ(out, expected);
  }
}

// The uniform mean is weighted_average over participants of
// multiplicity 1 each (EdgeProgram's node aggregations): 1 * (1/n) ==
// 1/n, so it matches a chain of 1/n axpy steps bit for bit.
TEST(Averages, UniformAverageMatchesSequentialChain) {
  rng::Xoshiro256 gen(62);
  const std::size_t dim = 19;
  std::vector<std::vector<scalar_t>> vecs(5);
  for (auto& v : vecs) {
    v.resize(dim);
    for (auto& x : v) x = gen.normal();
  }
  const std::vector<index_t> ids = {4, 0, 2};
  std::vector<scalar_t> out(dim, 99.0);
  detail::weighted_average(vecs, detail::Participants::from_draws(ids), out);
  const scalar_t inv = 1.0 / static_cast<scalar_t>(ids.size());
  std::vector<scalar_t> expected(dim, 0.0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& v = vecs[static_cast<std::size_t>(ids[i])];
    for (std::size_t d = 0; d < dim; ++d) {
      expected[d] = i == 0 ? inv * v[d] : expected[d] + inv * v[d];
    }
  }
  EXPECT_EQ(out, expected);
}

TEST(RunningAverage, MatchesArithmeticMean) {
  std::vector<scalar_t> avg = {0.0};
  const std::vector<std::vector<scalar_t>> values = {{2}, {4}, {9}};
  // First fold replaces (k = 0 prior points).
  detail::update_running_average(avg, values[0], 0);
  detail::update_running_average(avg, values[1], 1);
  detail::update_running_average(avg, values[2], 2);
  EXPECT_NEAR(avg[0], 5.0, 1e-12);
}

TrainOptions quick_opts(index_t rounds = 40) {
  TrainOptions o;
  o.rounds = rounds;
  o.tau1 = 2;
  o.tau2 = 2;
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eta_p = 0.01;
  o.eval_every = 0;  // final only — tests that need curves override
  o.seed = 5;
  return o;
}

TEST(Trainers, FedProxOptionChangesTrajectory) {
  const auto fed = heterogeneous_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(10);
  const auto plain = train_fedavg(model, fed, opts, test_pool());
  opts.prox_mu = 1.0;
  const auto prox = train_fedavg(model, fed, opts, test_pool());
  EXPECT_NE(plain.w, prox.w);
  // Proximal runs still learn.
  EXPECT_GT(prox.history.back().summary.average, 0.5);
}

TEST(FedAvg, LearnsIidTask) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(60);
  const auto result = train_fedavg(model, fed, opts, test_pool());
  ASSERT_FALSE(result.history.empty());
  EXPECT_GT(result.history.back().summary.average, 0.85);
  EXPECT_GT(result.history.back().summary.worst, 0.8);
}

TEST(FedAvg, CommAccountingMatchesFormula) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(10);
  opts.sampled_clients = 4;
  const auto result = train_fedavg(model, fed, opts, test_pool());
  // Per round: 1 server round, m models down, m models up.
  EXPECT_EQ(result.comm.edge_cloud_rounds, 10u);
  EXPECT_EQ(result.comm.edge_cloud_models_down, 40u);
  EXPECT_EQ(result.comm.edge_cloud_models_up, 40u);
  EXPECT_EQ(result.comm.client_edge_rounds, 0u);
}

TEST(FedAvg, SeedChangesTrajectory) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(8);
  const auto a = train_fedavg(model, fed, opts, test_pool());
  opts.seed += 1;
  const auto b = train_fedavg(model, fed, opts, test_pool());
  EXPECT_NE(a.w, b.w);
}

TEST(HierFavg, LearnsIidTask) {
  const auto fed = iid_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto result = train_hierfavg(model, fed, topo, quick_opts(40),
                                     test_pool());
  EXPECT_GT(result.history.back().summary.average, 0.85);
}

TEST(HierFavg, CommAccountingMatchesFormula) {
  const auto fed = iid_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(10);
  opts.sampled_edges = 2;
  const auto result = train_hierfavg(model, fed, topo, opts, test_pool());
  // Per round: tau2 client-edge rounds, 1 edge-cloud round.
  EXPECT_EQ(result.comm.client_edge_rounds,
            static_cast<std::uint64_t>(10 * opts.tau2));
  EXPECT_EQ(result.comm.edge_cloud_rounds, 10u);
  EXPECT_EQ(result.comm.edge_cloud_models_up, 20u);    // m_E per round
  EXPECT_EQ(result.comm.edge_cloud_models_down, 20u);
  EXPECT_EQ(result.comm.client_edge_models_down,
            static_cast<std::uint64_t>(10 * opts.tau2 * 2 * 2));
}

TEST(HierFavg, TopologyMismatchThrows) {
  const auto fed = iid_task(4, 2);
  const sim::HierTopology wrong(5, 2);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  EXPECT_THROW(train_hierfavg(model, fed, wrong, quick_opts(2),
                              test_pool()), CheckError);
}

TEST(Drfa, LearnsIidTaskAndKeepsWeightsOnSimplex) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto result = train_drfa(model, fed, quick_opts(60), test_pool());
  EXPECT_GT(result.history.back().summary.average, 0.8);
  // Reported per-edge weights sum to 1.
  scalar_t total = 0;
  for (const scalar_t p : result.p) {
    EXPECT_GE(p, -1e-9);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(Drfa, CommAccountingMatchesFormula) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(5);
  opts.sampled_clients = 8;  // no duplicate-edge dedup effects to predict:
                             // uniform start means duplicates possible, so
                             // only round counters are exact.
  const auto result = train_drfa(model, fed, opts, test_pool());
  EXPECT_EQ(result.comm.edge_cloud_rounds, 10u);  // 2 per round
  EXPECT_EQ(result.comm.edge_cloud_scalars, 40u); // m per round
  EXPECT_EQ(result.comm.client_edge_rounds, 0u);
}

TEST(Afl, IsSingleStepDrfa) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(10);
  opts.tau1 = 7;  // must be ignored by AFL
  const auto afl = train_stochastic_afl(model, fed, opts, test_pool());
  opts.tau1 = 1;
  opts.tau2 = 1;
  const auto drfa1 = train_drfa(model, fed, opts, test_pool());
  ASSERT_EQ(afl.w.size(), drfa1.w.size());
  for (std::size_t i = 0; i < afl.w.size(); ++i) {
    EXPECT_DOUBLE_EQ(afl.w[i], drfa1.w[i]);
  }
}

// use_checkpoint means the same for every minimax trainer: without it,
// DRFA's Phase 2 scores the round's aggregate, not the checkpoint, so
// the weights (and, through the sampling, the model) move elsewhere.
TEST(Drfa, CheckpointAblationChangesTheTrajectory) {
  const auto fed = heterogeneous_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(4);
  opts.eta_p = 0.05;
  const auto with_ckpt = train_drfa(model, fed, opts, test_pool());
  opts.use_checkpoint = false;
  const auto last_iterate = train_drfa(model, fed, opts, test_pool());
  EXPECT_NE(with_ckpt.p, last_iterate.p);
  EXPECT_NE(with_ckpt.w, last_iterate.w);
}

TEST(Drfa, WeightsShiftTowardHardClients) {
  // Heterogeneous task: DRFA should end with non-uniform edge weights.
  const auto fed = heterogeneous_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(60);
  opts.eta_p = 0.05;
  const auto result = train_drfa(model, fed, opts, test_pool());
  scalar_t spread = 0;
  const scalar_t uniform = 1.0 / static_cast<scalar_t>(result.p.size());
  for (const scalar_t p : result.p) spread += std::abs(p - uniform);
  EXPECT_GT(spread, 0.05);
}

TEST(Trainers, HistoryCadenceRespected) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(20);
  opts.eval_every = 5;
  const auto result = train_fedavg(model, fed, opts, test_pool());
  // Records at rounds 0, 5, 10, 15, 20.
  ASSERT_EQ(result.history.size(), 5u);
  EXPECT_EQ(result.history.records()[0].round, 0);
  EXPECT_EQ(result.history.back().round, 20);
  // Comm counters monotone non-decreasing along the history.
  std::uint64_t prev = 0;
  for (const auto& r : result.history.records()) {
    EXPECT_GE(r.comm.total_rounds(), prev);
    prev = r.comm.total_rounds();
  }
}

TEST(Trainers, InvalidOptionsThrow) {
  const auto fed = iid_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts();
  opts.rounds = 0;
  EXPECT_THROW(train_fedavg(model, fed, opts, test_pool()), CheckError);
  opts = quick_opts();
  opts.sampled_clients = fed.num_clients() + 1;
  EXPECT_THROW(train_fedavg(model, fed, opts, test_pool()), CheckError);
}

}  // namespace
}  // namespace hm::algo
