// Algorithm-specific tests for HierMinimax (Algorithm 1): weight-vector
// dynamics, fairness behaviour, communication accounting, determinism,
// and the checkpoint mechanism.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "io/snapshot.hpp"
#include "nn/softmax_regression.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "tensor/vecops.hpp"
#include "test_util.hpp"

namespace hm::algo {
namespace {

using testing_util::heterogeneous_task;
using testing_util::iid_task;
using testing_util::test_pool;

TrainOptions quick_opts(index_t rounds = 40) {
  TrainOptions o;
  o.rounds = rounds;
  o.tau1 = 2;
  o.tau2 = 2;
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eta_p = 0.01;
  o.eval_every = 0;
  o.seed = 5;
  return o;
}

TEST(HierMinimax, LearnsIidTask) {
  const auto fed = iid_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto result = train_hierminimax(model, fed, topo, quick_opts(40),
                                        test_pool());
  EXPECT_GT(result.history.back().summary.average, 0.85);
}

TEST(HierMinimax, WeightsStayOnSimplexEveryRound) {
  const auto fed = heterogeneous_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(30);
  opts.eta_p = 0.1;  // large steps stress the projection
  const auto result = train_hierminimax(model, fed, topo, opts, test_pool());
  scalar_t total = 0;
  for (const scalar_t p : result.p) {
    EXPECT_GE(p, -1e-9);
    EXPECT_LE(p, 1 + 1e-9);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
  // The time-average is also a simplex point.
  total = 0;
  for (const scalar_t p : result.p_avg) total += p;
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(HierMinimax, RespectsCappedWeightSet) {
  const auto fed = heterogeneous_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(25);
  opts.p_set = SimplexSet{0.1, 0.5};
  opts.eta_p = 0.2;
  const auto result = train_hierminimax(model, fed, topo, opts, test_pool());
  for (const scalar_t p : result.p) {
    EXPECT_GE(p, 0.1 - 1e-7);
    EXPECT_LE(p, 0.5 + 1e-7);
  }
}

TEST(HierMinimax, WeightMovesTowardHighLossEdge) {
  // Make edge 0's task intrinsically noisier by shrinking its data; with
  // one-class-per-edge, the edge with the least data is learned worst, so
  // p should grow there relative to uniform.
  auto fed = heterogeneous_task(4, 2, 77, 2400);
  // Decimate edge 0's shards to starve it.
  for (index_t i = 0; i < fed.clients_per_edge; ++i) {
    auto& shard = fed.client_train[static_cast<std::size_t>(i)];
    std::vector<index_t> keep;
    for (index_t s = 0; s < std::min<index_t>(6, shard.size()); ++s) {
      keep.push_back(s);
    }
    shard = shard.subset(keep);
  }
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(50);
  opts.eta_p = 0.05;
  const auto result = train_hierminimax(model, fed, topo, opts, test_pool());
  // p concentrated above uniform somewhere — and the dynamics moved p.
  const scalar_t uniform = 0.25;
  scalar_t spread = 0;
  for (const scalar_t p : result.p) spread += std::abs(p - uniform);
  EXPECT_GT(spread, 0.02);
}

TEST(HierMinimax, ImprovesWorstEdgeOverHierFavg) {
  // The paper's central claim at miniature scale: on a heterogeneous
  // task where plain averaging under-serves some edge, minimax weighting
  // must raise the worst edge accuracy.
  const auto fed = heterogeneous_task(5, 2, 99, 3000, /*separation=*/2.0);
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(400);
  opts.eta_w = 0.05;
  opts.eta_p = 0.003;
  opts.sampled_edges = 3;  // partial participation
  opts.eval_every = 10;
  const auto mm = train_hierminimax(model, fed, topo, opts, test_pool());
  const auto fa = train_hierfavg(model, fed, topo, opts, test_pool());
  // Tail-average the last evaluations: snapshots are SGD-noisy. Allow an
  // equality margin — both can saturate on easy seeds — but minimax must
  // never be substantially worse, and variance must not explode.
  const auto s_mm = mm.history.tail_summary(8);
  const auto s_fa = fa.history.tail_summary(8);
  EXPECT_GE(s_mm.worst + 0.02, s_fa.worst);
  EXPECT_LE(s_mm.variance_pct2, s_fa.variance_pct2 * 1.5 + 5.0);
}

TEST(HierMinimax, CommAccountingMatchesFormula) {
  const auto fed = iid_task();  // uniform p start; dedup may merge edges,
                                // so pick m_E = 1 to make counts exact
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(6);
  opts.sampled_edges = 1;
  const auto result = train_hierminimax(model, fed, topo, opts, test_pool());
  const auto k = 6u;
  // Rounds: tau2 client-edge (phase 1) + 1 client-edge (phase 2 loss
  // broadcast), and 2 edge-cloud (aggregate + weight update).
  EXPECT_EQ(result.comm.client_edge_rounds,
            k * (static_cast<std::uint64_t>(opts.tau2) + 1));
  EXPECT_EQ(result.comm.edge_cloud_rounds, 2 * k);
  // Phase 1 with m_E=1: 1 model down, 2 up (final + checkpoint) per round.
  EXPECT_EQ(result.comm.edge_cloud_models_up, 2 * k);
  // Phase 2: 1 checkpoint down per round -> down = 1 (phase1) + 1 (phase2).
  EXPECT_EQ(result.comm.edge_cloud_models_down, 2 * k);
  EXPECT_EQ(result.comm.edge_cloud_scalars, k);
  // Client-edge models up: tau2 blocks x N0 models, +N0 checkpoints once.
  EXPECT_EQ(result.comm.client_edge_models_up,
            k * (static_cast<std::uint64_t>(opts.tau2) * 2 + 2));
}

TEST(HierMinimax, ThrowingLocalStepFailsTheRunWithoutHanging) {
  // The pipelined Phase 1 makes later blocks wait on earlier ones: a job
  // that throws in block 0 must release them, on an inline pool and a
  // dispatching one, and leave the pool usable.
  const auto fed = heterogeneous_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression inner(fed.dim(), fed.num_classes());
  for (const std::size_t threads : {1, 4}) {
    parallel::ThreadPool pool(threads);
    std::atomic<int> steps{0};
    // Block 0 of round 0 has every area's leaves x tau1 steps; the 3rd
    // step is one of them, whatever the schedule.
    const testing_util::HookedModel model(inner, [&](const data::Dataset&) {
      if (steps.fetch_add(1) + 1 == 3) {
        throw std::runtime_error("injected sgd_step failure");
      }
    });
    auto opts = quick_opts(3);
    opts.sampled_edges = 0;
    EXPECT_THROW(train_hierminimax(model, fed, topo, opts, pool),
                 std::runtime_error)
        << "threads=" << threads;
    const auto after = train_hierminimax(inner, fed, topo, opts, pool);
    EXPECT_EQ(after.history.size(), 1u) << "threads=" << threads;
  }
}

TEST(HierMinimax, OneDeviceRegionPerRound) {
  // Phase 1 is one device region per round, whatever the blocks per
  // round: a per-block barrier would show as more batches. The region's
  // aggregation pieces are not device jobs: each job is tau1 local steps.
  if (!HM_OBS_ENABLED) GTEST_SKIP() << "obs hooks compiled out";
  const auto fed = heterogeneous_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression inner(fed.dim(), fed.num_classes());
  std::atomic<std::int64_t> steps{0};
  const testing_util::HookedModel model(
      inner, [&](const data::Dataset&) { steps.fetch_add(1); });
  auto opts = quick_opts(5);
  opts.tau2 = 3;
  const auto counter = [](const char* name) {
    const obs::MetricsSnapshot snap = obs::registry().snapshot();
    const obs::MetricValue* v = snap.find(name);
    return v == nullptr ? std::int64_t{0} : v->value;
  };
  const std::int64_t batches = counter("sim.device_batches");
  const std::int64_t jobs = counter("sim.device_jobs");
  train_hierminimax(model, fed, topo, opts, test_pool());
  EXPECT_EQ(counter("sim.device_batches") - batches, opts.rounds);
  EXPECT_EQ(counter("sim.device_jobs") - jobs, steps.load() / opts.tau1);
  EXPECT_GT(steps.load(), 0);
  EXPECT_EQ(steps.load() % opts.tau1, 0);
}

TEST(HierMinimax, SnapshotWriterLeavesNoThreadBehind) {
  // Snapshot writes overlap the next round on a writer thread, which the
  // trainer joins before it returns.
  const auto fed = heterogeneous_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const std::string dir = "/tmp/hm_hierminimax_test/writer_threads";
  std::filesystem::remove_all(dir);
  auto opts = quick_opts(6);
  opts.snapshot.every_k_rounds = 1;
  opts.snapshot.dir = dir;
  parallel::ThreadPool& pool = test_pool();
  const int before = testing_util::thread_count();
  train_hierminimax(model, fed, topo, opts, pool);
  EXPECT_LE(testing_util::thread_count(), before);
  EXPECT_TRUE(io::load_latest_snapshot(dir).has_value());
  std::filesystem::remove_all(dir);
}

TEST(HierMinimax, FullParticipationEqualsSampledEdgesAllButUsesAllEdges) {
  const auto fed = heterogeneous_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(4);
  opts.sampled_edges = 0;  // = all edges
  const auto result = train_hierminimax(model, fed, topo, opts, test_pool());
  // Phase-2 scalars: all N_E edges report each round.
  EXPECT_EQ(result.comm.edge_cloud_scalars,
            static_cast<std::uint64_t>(4 * fed.num_edges()));
}

TEST(HierMinimax, WRadiusConstrainsGlobalModel) {
  const auto fed = heterogeneous_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(15);
  opts.w_radius = 0.5;
  opts.eta_w = 0.3;
  const auto result = train_hierminimax(model, fed, topo, opts, test_pool());
  EXPECT_LE(tensor::nrm2(result.w), 0.5 + 1e-9);
}

TEST(HierMinimax, Tau1Tau2OneMatchesPaperSpecialCase) {
  // tau1 = tau2 = 1: one local step, one aggregation per round. The
  // algorithm must still run and converge (Stochastic-AFL-like regime,
  // §5.1's first special case).
  const auto fed = iid_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(80);
  opts.tau1 = 1;
  opts.tau2 = 1;
  const auto result = train_hierminimax(model, fed, topo, opts, test_pool());
  EXPECT_GT(result.history.back().summary.average, 0.8);
  // Exactly K client-edge rounds from phase 1 + K from phase 2.
  EXPECT_EQ(result.comm.client_edge_rounds, 160u);
}

TEST(HierMinimax, CheckpointAblationStillConverges) {
  const auto fed = iid_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(40);
  opts.use_checkpoint = false;  // last-iterate loss estimation
  const auto result = train_hierminimax(model, fed, topo, opts, test_pool());
  EXPECT_GT(result.history.back().summary.average, 0.85);
}

TEST(HierMinimax, LossEstimationFullBatchOption) {
  const auto fed = heterogeneous_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(10);
  opts.loss_est_batch = 0;  // full client shards
  const auto result = train_hierminimax(model, fed, topo, opts, test_pool());
  EXPECT_EQ(result.history.back().round, 10);
}

TEST(HierMinimax, HistoryRecordsIncludeWeights) {
  const auto fed = heterogeneous_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = quick_opts(12);
  opts.eval_every = 4;
  const auto result = train_hierminimax(model, fed, topo, opts, test_pool());
  ASSERT_EQ(result.history.size(), 4u);  // rounds 0, 4, 8, 12
  for (const auto& r : result.history.records()) {
    EXPECT_EQ(r.edge_acc.size(), 4u);
    EXPECT_GE(r.summary.best, r.summary.worst);
  }
}

}  // namespace
}  // namespace hm::algo
