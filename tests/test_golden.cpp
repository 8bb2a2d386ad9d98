// Golden-trajectory regression test: a short seeded run of every trainer
// is pinned to checked-in exact bit patterns (per-record global loss plus
// the final minimax weights p). Any change to initialization, RNG stream
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
using testing_util::deep_task;
using testing_util::heterogeneous_task;
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

const data::FederatedDataset& shared_task() {
  static const data::FederatedDataset fed = heterogeneous_task(4, 2);
  return fed;
}

/// The pinned quantities: one u64 bit pattern per per-round global loss,
/// then one per coordinate of the final p.
struct Trajectory {
  std::vector<std::uint64_t> loss;
  std::vector<std::uint64_t> p;
};

Trajectory trajectory_of(const TrainResult& r) {
  Trajectory t;
  for (const auto& rec : r.history.records()) {
    t.loss.push_back(bits(rec.global_loss));
  }
  for (const scalar_t x : r.p) t.p.push_back(bits(x));
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
                   return trajectory_of(
                       train_qffl(model, fed, golden_opts(), /*q=*/2.0,
                                  test_pool()));
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
  return out;
}

struct GoldenRow {
  const char* name;
  std::vector<std::uint64_t> loss;
  std::vector<std::uint64_t> p;
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
        0x3fd0000000000000ull}},
      {"hierfavg",
       {0x3ff62e42fefa39f5ull, 0x3ff24c27b3f6df52ull, 0x3fefd7b79e0ac40cull,
        0x3fec4c773c205420ull},
       {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
        0x3fd0000000000000ull}},
      {"drfa",
       {0x3ff62e42fefa39f5ull, 0x3ff341bdad572d5full, 0x3ff15ce5cb2f0c1cull,
        0x3ff012481ac47856ull},
       {0x3fc614b3f7b48f05ull, 0x3fcea700b1fc86eeull, 0x3fd4768af52f616bull,
        0x3fd12b9ab5f8139bull}},
      {"stochastic_afl",
       {0x3ff62e42fefa39f5ull, 0x3ff4914f3a32dddfull, 0x3ff348b2dfb8c7a2ull,
        0x3ff22b42b3fd0734ull},
       {0x3fcc569ff2f3b1bdull, 0x3fcf90017a73e5baull, 0x3fd16f734fb2c377ull,
        0x3fd09d3bf99970cfull}},
      {"qffl",
       {0x3ff62e42fefa39f5ull, 0x3ff56c4aee3a7a80ull, 0x3ff4b354a2c7cc17ull,
        0x3ff40aa5d91781b8ull},
       {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
        0x3fd0000000000000ull}},
      {"hierminimax",
       {0x3ff62e42fefa39f5ull, 0x3ff205c7d64a446full, 0x3ff0a7ec6dbced9eull,
        0x3fed272e2800a0c9ull},
       {0x3fc6c1120383ff93ull, 0x3fc808bd341923e9ull, 0x3fd6c76904804384ull,
        0x3fd1d3af5fb12abeull}},
      {"hierminimax_multi",
       {0x3ff62e42fefa39f5ull, 0x3ff205c7d64a446full, 0x3ff0a7ec6dbced9eull,
        0x3fed272e2800a0c9ull},
       {0x3fc6c1120383ff93ull, 0x3fc808bd341923e9ull, 0x3fd6c76904804384ull,
        0x3fd1d3af5fb12abeull}},
      {"hierfavg_multi",
       {0x3ff62e42fefa39f5ull, 0x3ff24c27b3f6df52ull, 0x3fefd7b79e0ac40cull,
        0x3fec4c773c205420ull},
       {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
        0x3fd0000000000000ull}},
      // The 4x4 fixture's ln(4) record differs from the 4x2 one's in the
      // last bits: per-edge losses are averaged over other test sets.
      {"hierminimax_multi_d3",
       {0x3ff62e42fefa39ecull, 0x3ff0f95f955de460ull, 0x3fed2277f98adca6ull,
        0x3fea4ab3ea77e5d5ull},
       {0x3fc4ae0cfdfd1f38ull, 0x3fb99281dc89bdb0ull, 0x3fd98bb59298535eull,
        0x3fd5b8a37746ad9aull}},
      // The MLP rows start from He-initialized weights, not from ln(4).
      {"hierminimax_mlp",
       {0x3ffe4c7227f688b7ull, 0x3ff68df8a6187448ull, 0x3ff7e0b24260a2b6ull,
        0x3ff2491a2c9ca20cull},
       {0x3fd0074cde6df9edull, 0x3fc4a2f3c1fe7a8bull, 0x3fd40eaf8247736full,
        0x3fd19889be4b555full}},
      {"fedavg_mlp_prox",
       {0x4003ae8f2d3ab624ull, 0x400019b77f5e8b5full, 0x3ffbb44ebfb33a0cull,
        0x3ff803be596e523bull},
       {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
        0x3fd0000000000000ull}},
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
  }
}

}  // namespace
}  // namespace hm::algo
