// Golden-trajectory regression test: a short seeded run of every trainer
// is pinned to checked-in exact bit patterns (per-record global loss, the
// final minimax weights p, a bit-hash of the final model w and every
// CommStats counter). The degraded rows run the fault, stale-store,
// robust-combiner and checkpoint-ablation paths of both round loops. Any
// change to initialization, RNG stream
// layout, reduction order, or aggregation semantics shows up here as a
// bit difference with a readable hex diff — the cross-binary complement
// of the within-binary replay checks in test_fault / test_scenario.
//
// Regenerating after an *intentional* trajectory change:
//   HM_GOLDEN_PRINT=1 ./test_golden --gtest_filter='Golden.*'
// prints the replacement table; paste it over kGolden below. The values
// are produced and verified on the same platform class as CI (x86-64
// glibc); a port with a different libm would regenerate first.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algo/drfa.hpp"
#include "algo/fedavg.hpp"
#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "algo/qffl.hpp"
#include "nn/mlp.hpp"
#include "nn/softmax_regression.hpp"
#include "sim/multi_topology.hpp"
#include "sim/topology.hpp"
#include "test_util.hpp"

namespace hm::algo {
namespace {

using testing_util::bits;
using testing_util::comm_counters;
using testing_util::deep_task;
using testing_util::heterogeneous_task;
using testing_util::mix_vec;
using testing_util::test_pool;
using testing_util::with_taus;

TrainOptions golden_opts() {
  TrainOptions o;
  o.rounds = 3;
  o.tau1 = 2;
  o.tau2 = 2;
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eta_p = 0.02;
  o.eval_every = 1;  // a loss record every round
  o.seed = 5;
  return o;
}

/// golden_opts() under a seeded fault plan: client dropout, lossy
/// wide-area links with a one-retry budget, stragglers, and area 1
/// crashing at round 1, degraded by `policy` and combined by `agg`.
TrainOptions faulty_opts(TrainOptions o, OnFault policy, Aggregate agg) {
  o.fault.enabled = true;
  o.fault.client_dropout_prob = 0.25;
  o.fault.edge_loss_prob = 0.4;
  o.fault.max_retries = 1;
  o.fault.straggler_prob = 0.3;
  o.fault.edge_crash_round = {-1, 1};
  o.fault.seed = 11;
  o.on_fault = policy;
  o.aggregate = agg;
  return o;
}

const data::FederatedDataset& shared_task() {
  static const data::FederatedDataset fed = heterogeneous_task(4, 2);
  return fed;
}

/// The pinned quantities: one u64 bit pattern per per-round global loss,
/// one per coordinate of the final p, a hash of the final w's bits, and
/// every CommStats counter.
struct Trajectory {
  std::vector<std::uint64_t> loss;
  std::vector<std::uint64_t> p;
  std::uint64_t w = 0;
  std::vector<std::uint64_t> comm;
};

Trajectory trajectory_of(const TrainResult& r) {
  Trajectory t;
  for (const auto& rec : r.history.records()) {
    t.loss.push_back(bits(rec.global_loss));
  }
  for (const scalar_t x : r.p) t.p.push_back(bits(x));
  t.w = mix_vec(0, r.w);
  t.comm = comm_counters(r.comm);
  return t;
}

struct Runner {
  std::string name;
  Trajectory (*run)();
};

std::vector<Runner> runners() {
  std::vector<Runner> out;
  out.push_back({"fedavg", [] {
                   const auto& fed = shared_task();
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   return trajectory_of(
                       train_fedavg(model, fed, golden_opts(), test_pool()));
                 }});
  out.push_back({"hierfavg", [] {
                   const auto& fed = shared_task();
                   const sim::HierTopology topo(fed.num_edges(),
                                                fed.clients_per_edge);
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   return trajectory_of(
                       train_hierfavg(model, fed, topo, golden_opts(),
                                      test_pool()));
                 }});
  out.push_back({"drfa", [] {
                   const auto& fed = shared_task();
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   return trajectory_of(
                       train_drfa(model, fed, golden_opts(), test_pool()));
                 }});
  out.push_back({"stochastic_afl", [] {
                   const auto& fed = shared_task();
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   return trajectory_of(
                       train_stochastic_afl(model, fed, golden_opts(),
                                            test_pool()));
                 }});
  out.push_back({"qffl", [] {
                   const auto& fed = shared_task();
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   TrainOptions o = golden_opts();
                   o.q = 2;
                   return trajectory_of(
                       train_qffl(model, fed, o, test_pool()));
                 }});
  out.push_back({"hierminimax", [] {
                   const auto& fed = shared_task();
                   const sim::HierTopology topo(fed.num_edges(),
                                                fed.clients_per_edge);
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   return trajectory_of(
                       train_hierminimax(model, fed, topo, golden_opts(),
                                         test_pool()));
                 }});
  out.push_back({"hierminimax_multi", [] {
                   const auto& fed = shared_task();
                   const sim::MultiTopology topo(
                       {fed.num_edges(), fed.clients_per_edge});
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   return trajectory_of(train_hierminimax(
                       model, fed, topo, with_taus(golden_opts(), {2, 2}),
                       test_pool()));
                 }});
  out.push_back({"hierfavg_multi", [] {
                   const auto& fed = shared_task();
                   const sim::MultiTopology topo(
                       {fed.num_edges(), fed.clients_per_edge});
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   return trajectory_of(train_hierfavg(
                       model, fed, topo, with_taus(golden_opts(), {2, 2}),
                       test_pool()));
                 }});
  // Depth 3 pins the L-level stream rule beyond the flat derivation:
  // interior blocks, innermost-block indices and checkpoint averaging
  // up two levels.
  out.push_back({"hierminimax_multi_d3", [] {
                   const auto& fed = deep_task();
                   const sim::MultiTopology topo({4, 2, 2});
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   return trajectory_of(train_hierminimax(
                       model, fed, topo, with_taus(golden_opts(), {2, 2, 2}),
                       test_pool()));
                 }});
  // MLP rows: every hidden width is at least 4x the batch, so the
  // batch-sized forward GEMMs take gemm_nt's transposed (small-side
  // packed) path. The HierMinimax row runs decayed, projected steps; the
  // FedAvg row adds a proximal term.
  out.push_back({"hierminimax_mlp", [] {
                   const auto& fed = shared_task();
                   const sim::HierTopology topo(fed.num_edges(),
                                                fed.clients_per_edge);
                   const nn::Mlp model({fed.dim(), 32, 16, fed.num_classes()});
                   TrainOptions o = golden_opts();
                   o.weight_decay = 0.05;
                   o.w_radius = 9.0;
                   return trajectory_of(
                       train_hierminimax(model, fed, topo, o, test_pool()));
                 }});
  out.push_back({"fedavg_mlp_prox", [] {
                   const auto& fed = shared_task();
                   const nn::Mlp model({fed.dim(), 32, fed.num_classes()});
                   TrainOptions o = golden_opts();
                   o.batch_size = 8;
                   o.prox_mu = 0.5;
                   return trajectory_of(train_fedavg(model, fed, o,
                                                     test_pool()));
                 }});
  // Degraded rows: casualties on both links, substituted from the stale
  // store (kReuseStale) or abandoning the round (kSkipRound), under the
  // robust combiners, and the last-iterate checkpoint ablation.
  out.push_back({"drfa_faults_stale", [] {
                   const auto& fed = shared_task();
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   return trajectory_of(train_drfa(
                       model, fed,
                       faulty_opts(golden_opts(), OnFault::kReuseStale,
                                   Aggregate::kTrimmedMean),
                       test_pool()));
                 }});
  out.push_back({"hierminimax_faults_stale", [] {
                   const auto& fed = shared_task();
                   const sim::HierTopology topo(fed.num_edges(),
                                                fed.clients_per_edge);
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   return trajectory_of(train_hierminimax(
                       model, fed, topo,
                       faulty_opts(golden_opts(), OnFault::kReuseStale,
                                   Aggregate::kTrimmedMean),
                       test_pool()));
                 }});
  out.push_back({"hierminimax_d3_faults_skip", [] {
                   const auto& fed = deep_task();
                   const sim::MultiTopology topo({4, 2, 2});
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   // No crash and rarer wide-area losses than the
                   // stale rows, so some rounds aggregate and some skip.
                   TrainOptions o = faulty_opts(golden_opts(),
                                                OnFault::kSkipRound,
                                                Aggregate::kMedian);
                   o.fault.edge_crash_round.clear();
                   o.fault.edge_loss_prob = 0.3;
                   return trajectory_of(train_hierminimax(
                       model, fed, topo, with_taus(o, {2, 2, 2}),
                       test_pool()));
                 }});
  out.push_back({"hierminimax_no_ckpt", [] {
                   const auto& fed = shared_task();
                   const sim::HierTopology topo(fed.num_edges(),
                                                fed.clients_per_edge);
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   TrainOptions o = golden_opts();
                   o.use_checkpoint = false;
                   return trajectory_of(
                       train_hierminimax(model, fed, topo, o, test_pool()));
                 }});
  return out;
}

struct GoldenRow {
  const char* name;
  std::vector<std::uint64_t> loss;
  std::vector<std::uint64_t> p;
  std::uint64_t w;
  std::vector<std::uint64_t> comm;
};

// Regenerate with HM_GOLDEN_PRINT=1 (see the file comment). The first
// loss record of every softmax trainer is the untrained model's ln(4) —
// the uniform-prediction cross-entropy on 4 classes — which doubles as a
// sanity check that the table belongs to this fixture.
const std::vector<GoldenRow>& golden() {
  static const std::vector<GoldenRow> kGolden = {
      {"fedavg",
       {0x3ff62e42fefa39f5ull, 0x3ff37698d73f6106ull, 0x3ff169492d846874ull,
        0x3fefee554d14f2f2ull},
       {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
        0x3fd0000000000000ull},
       0xa285576033e6a8eaull,
       {0ull, 3ull, 0ull, 0ull, 24ull, 24ull, 0ull, 0ull, 0ull, 19968ull, 0ull,
        0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull}},
      {"hierfavg",
       {0x3ff62e42fefa39f5ull, 0x3ff24c27b3f6df52ull, 0x3fefd7b79e0ac40cull,
        0x3fec4c773c205420ull},
       {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
        0x3fd0000000000000ull},
       0xe97490e7538f106aull,
       {6ull, 3ull, 48ull, 48ull, 12ull, 12ull, 0ull, 0ull, 39936ull, 9984ull,
        0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
        0ull}},
      {"drfa",
       {0x3ff62e42fefa39f5ull, 0x3ff341bdad572d5full, 0x3ff15ce5cb2f0c1cull,
        0x3ff012481ac47856ull},
       {0x3fc614b3f7b48f05ull, 0x3fcea700b1fc86eeull, 0x3fd4768af52f616bull,
        0x3fd12b9ab5f8139bull},
       0x230298db1de7f426ull,
       {0ull, 6ull, 0ull, 0ull, 30ull, 39ull, 0ull, 24ull, 0ull, 28896ull, 0ull,
        0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull}},
      {"stochastic_afl",
       {0x3ff62e42fefa39f5ull, 0x3ff4914f3a32dddfull, 0x3ff348b2dfb8c7a2ull,
        0x3ff22b42b3fd0734ull},
       {0x3fcc569ff2f3b1bdull, 0x3fcf90017a73e5baull, 0x3fd16f734fb2c377ull,
        0x3fd09d3bf99970cfull},
       0xe4d15051c8bbdebcull,
       {0ull, 6ull, 0ull, 0ull, 30ull, 39ull, 0ull, 24ull, 0ull, 28896ull, 0ull,
        0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull}},
      {"qffl",
       {0x3ff62e42fefa39f5ull, 0x3ff56c4aee3a7a80ull, 0x3ff4b354a2c7cc17ull,
        0x3ff40aa5d91781b8ull},
       {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
        0x3fd0000000000000ull},
       0x82b03a65a42f99faull,
       {0ull, 3ull, 0ull, 0ull, 24ull, 24ull, 0ull, 48ull, 0ull, 20352ull, 0ull,
        0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull}},
      {"hierminimax",
       {0x3ff62e42fefa39f5ull, 0x3ff205c7d64a446full, 0x3ff0a7ec6dbced9eull,
        0x3fed272e2800a0c9ull},
       {0x3fc6c1120383ff93ull, 0x3fc808bd341923e9ull, 0x3fd6c76904804384ull,
        0x3fd1d3af5fb12abeull},
       0x902c99661e6df6fdull,
       {9ull, 6ull, 48ull, 56ull, 16ull, 20ull, 24ull, 12ull, 43456ull,
        15072ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
        0ull, 0ull}},
      {"hierminimax_multi",
       {0x3ff62e42fefa39f5ull, 0x3ff205c7d64a446full, 0x3ff0a7ec6dbced9eull,
        0x3fed272e2800a0c9ull},
       {0x3fc6c1120383ff93ull, 0x3fc808bd341923e9ull, 0x3fd6c76904804384ull,
        0x3fd1d3af5fb12abeull},
       0x902c99661e6df6fdull,
       {9ull, 6ull, 48ull, 56ull, 16ull, 20ull, 24ull, 12ull, 43456ull,
        15072ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
        0ull, 0ull}},
      {"hierfavg_multi",
       {0x3ff62e42fefa39f5ull, 0x3ff24c27b3f6df52ull, 0x3fefd7b79e0ac40cull,
        0x3fec4c773c205420ull},
       {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
        0x3fd0000000000000ull},
       0xe97490e7538f106aull,
       {6ull, 3ull, 48ull, 48ull, 12ull, 12ull, 0ull, 0ull, 39936ull, 9984ull,
        0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
        0ull}},
      // The 4x4 fixture's ln(4) record differs from the 4x2 one's in the
      // last bits: per-edge losses are averaged over other test sets.
      {"hierminimax_multi_d3",
       {0x3ff62e42fefa39ecull, 0x3ff0f95f955de460ull, 0x3fed2277f98adca6ull,
        0x3fea4ab3ea77e5d5ull},
       {0x3fc4ae0cfdfd1f38ull, 0x3fb99281dc89bdb0ull, 0x3fd98bb59298535eull,
        0x3fd5b8a37746ad9aull},
       0x67d3496e45b6df77ull,
       {21ull, 6ull, 182ull, 212ull, 14ull, 19ull, 72ull, 12ull, 164480ull,
        13824ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
        0ull, 0ull}},
      // The MLP rows start from He-initialized weights, not from ln(4).
      {"hierminimax_mlp",
       {0x3ffe4c7227f688b7ull, 0x3ff68df8a6187448ull, 0x3ff7e0b24260a2b6ull,
        0x3ff2491a2c9ca20cull},
       {0x3fd0074cde6df9edull, 0x3fc4a2f3c1fe7a8bull, 0x3fd40eaf8247736full,
        0x3fd19889be4b555full},
       0x43a929b7e9ce4db8ull,
       {9ull, 6ull, 48ull, 56ull, 16ull, 20ull, 24ull, 12ull, 842176ull,
        291552ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
        0ull, 0ull}},
      {"fedavg_mlp_prox",
       {0x4003ae8f2d3ab624ull, 0x400019b77f5e8b5full, 0x3ffbb44ebfb33a0cull,
        0x3ff803be596e523bull},
       {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
        0x3fd0000000000000ull},
       0x6d1c0b4dc890fc8aull,
       {0ull, 3ull, 0ull, 0ull, 24ull, 24ull, 0ull, 0ull, 0ull, 210432ull, 0ull,
        0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull}},
      // Degraded rows count deliveries; in hierminimax_faults_stale the
      // crashed area 1 ends at weight 0.
      {"drfa_faults_stale",
       {0x3ff62e42fefa39f5ull, 0x3ff3b24bab7d91b0ull, 0x3ff17f334ac8543dull,
        0x3ff0d3cab586b249ull},
       {0x3fc84ca6b55dcf70ull, 0x3fcf07c5eb8808f3ull, 0x3fd3f7e74783c018ull,
        0x3fd05de2680953b7ull},
       0x31dc9c657df6c3dfull,
       {0ull, 6ull, 0ull, 0ull, 30ull, 39ull, 0ull, 24ull, 0ull, 28896ull, 0ull,
        0ull, 0ull, 0ull, 0ull, 0ull, 56ull, 31ull, 8ull, 17ull, 7ull,
        4627541094106798333ull}},
      {"hierminimax_faults_stale",
       {0x3ff62e42fefa39f5ull, 0x3ff3eb9119a646fdull, 0x3ff34c5ff09be827ull,
        0x3ff32bab4f7c11e0ull},
       {0x3fde9b63869a3909ull, 0x0000000000000000ull, 0x3fce2ed2325dd17cull,
        0x3fd24d336036de39ull},
       0xe8175b689e6c35bfull,
       {9ull, 6ull, 42ull, 52ull, 14ull, 19ull, 24ull, 12ull, 39296ull,
        13824ull, 40ull, 35ull, 5ull, 0ull, 4ull, 4613010552338705156ull, 22ull,
        12ull, 3ull, 7ull, 0ull, 4619567317775286272ull}},
      {"hierminimax_d3_faults_skip",
       {0x3ff62e42fefa39ecull, 0x3ff62e42fefa39ecull, 0x3ff63eee3fbcf9e7ull,
        0x3ff63eee3fbcf9e7ull},
       {0x3fd734116d4a29ddull, 0x3fd313ff55260b5bull, 0x3faa6d500eaff268ull,
        0x3fd26a453bb9cc7dull},
       0xb8dcfa1d4019c696ull,
       {19ull, 4ull, 182ull, 164ull, 14ull, 11ull, 24ull, 4ull, 144128ull,
        10432ull, 128ull, 106ull, 22ull, 0ull, 31ull, 4631344008585789810ull,
        17ull, 8ull, 3ull, 6ull, 0ull, 4618441417868443648ull}},
      {"hierminimax_no_ckpt",
       {0x3ff62e42fefa39f5ull, 0x3ff205c7d64a446full, 0x3ff0a7ec6dbced9eull,
        0x3fed272e2800a0c9ull},
       {0x3fc7b14477074158ull, 0x3fc796cde0ad1586ull, 0x3fd74ecba9029812ull,
        0x3fd10d2b2b233c7eull},
       0x902c99661e6df6fdull,
       {9ull, 6ull, 48ull, 56ull, 16ull, 20ull, 24ull, 12ull, 43456ull,
        15072ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
        0ull, 0ull}},
    };
  return kGolden;
}

void print_row(const std::string& name, const Trajectory& t) {
  std::printf("    {\"%s\",\n     {", name.c_str());
  for (std::size_t i = 0; i < t.loss.size(); ++i) {
    std::printf("%s0x%016llxull", i ? ", " : "",
                static_cast<unsigned long long>(t.loss[i]));
  }
  std::printf("},\n     {");
  for (std::size_t i = 0; i < t.p.size(); ++i) {
    std::printf("%s0x%016llxull", i ? ", " : "",
                static_cast<unsigned long long>(t.p[i]));
  }
  std::printf("},\n     0x%016llxull,\n     {",
              static_cast<unsigned long long>(t.w));
  for (std::size_t i = 0; i < t.comm.size(); ++i) {
    std::printf("%s%lluull", i ? ", " : "",
                static_cast<unsigned long long>(t.comm[i]));
  }
  std::printf("}},\n");
}

TEST(Golden, SeededTrajectoriesMatchPinnedBitPatterns) {
  const bool regen = std::getenv("HM_GOLDEN_PRINT") != nullptr;
  const auto rows = runners();
  if (regen) {
    std::printf("  static const std::vector<GoldenRow> kGolden = {\n");
    for (const auto& r : rows) print_row(r.name, r.run());
    std::printf("  };\n");
    GTEST_SKIP() << "printed regeneration table";
  }
  ASSERT_EQ(golden().size(), rows.size())
      << "trainer list and golden table out of sync";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& want = golden()[i];
    ASSERT_EQ(rows[i].name, std::string(want.name));
    const Trajectory got = rows[i].run();
    ASSERT_EQ(got.loss.size(), want.loss.size()) << want.name;
    for (std::size_t j = 0; j < got.loss.size(); ++j) {
      EXPECT_EQ(got.loss[j], want.loss[j])
          << want.name << " loss record " << j << std::hex << " got 0x"
          << got.loss[j] << " want 0x" << want.loss[j];
    }
    ASSERT_EQ(got.p.size(), want.p.size()) << want.name;
    for (std::size_t j = 0; j < got.p.size(); ++j) {
      EXPECT_EQ(got.p[j], want.p[j])
          << want.name << " p[" << j << "]" << std::hex << " got 0x"
          << got.p[j] << " want 0x" << want.p[j];
    }
    EXPECT_EQ(got.w, want.w) << want.name << " w hash" << std::hex
                             << " got 0x" << got.w << " want 0x" << want.w;
    ASSERT_EQ(got.comm.size(), want.comm.size()) << want.name;
    for (std::size_t j = 0; j < got.comm.size(); ++j) {
      EXPECT_EQ(got.comm[j], want.comm[j])
          << want.name << " comm counter " << j;
    }
  }
}

}  // namespace
}  // namespace hm::algo
