// Unit + property tests for hm::nn: exact gradients (finite differences),
// loss semantics, prediction, initialization statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>

#include "data/generators.hpp"
#include "nn/grad_check.hpp"
#include "nn/mlp.hpp"
#include "nn/model.hpp"
#include "nn/softmax_regression.hpp"
#include "tensor/vecops.hpp"

namespace hm::nn {
namespace {

data::Dataset small_task(index_t dim = 6, index_t classes = 4,
                         index_t n = 64, seed_t seed = 3) {
  data::GaussianSpec spec;
  spec.dim = dim;
  spec.num_classes = classes;
  spec.num_samples = n;
  spec.separation = 2.5;
  spec.seed = seed;
  return data::make_gaussian_classes(spec);
}

std::vector<scalar_t> random_params(const Model& m, seed_t seed) {
  std::vector<scalar_t> w(static_cast<std::size_t>(m.num_params()));
  rng::Xoshiro256 gen(seed);
  for (auto& v : w) v = gen.normal(0.0, 0.3);
  return w;
}

TEST(SoftmaxRegression, ParamCountAndMetadata) {
  const SoftmaxRegression m(10, 4);
  EXPECT_EQ(m.num_params(), 44);  // 10*4 weights + 4 biases
  EXPECT_EQ(m.num_classes(), 4);
  EXPECT_EQ(m.input_dim(), 10);
  EXPECT_TRUE(m.is_convex());
}

TEST(SoftmaxRegression, ZeroInitGivesUniformLoss) {
  const SoftmaxRegression m(6, 4);
  const auto d = small_task();
  std::vector<scalar_t> w(static_cast<std::size_t>(m.num_params()));
  rng::Xoshiro256 gen(1);
  m.init_params(w, gen);
  auto ws = m.make_workspace();
  const auto batch = all_indices(d.size());
  // With all-zero params every class has probability 1/4.
  EXPECT_NEAR(m.loss(w, d, batch, *ws), std::log(4.0), 1e-12);
}

TEST(SoftmaxRegression, GradientMatchesFiniteDifferences) {
  const SoftmaxRegression m(6, 4);
  const auto d = small_task();
  const auto w = random_params(m, 11);
  const std::vector<index_t> batch = {0, 5, 9, 17};
  const auto result = check_gradients(m, w, d, batch);
  EXPECT_LT(result.max_rel_error, 1e-5);
  EXPECT_EQ(result.coords_checked, m.num_params());
}

TEST(SoftmaxRegression, LossConsistentWithLossAndGrad) {
  const SoftmaxRegression m(6, 4);
  const auto d = small_task();
  const auto w = random_params(m, 12);
  auto ws = m.make_workspace();
  std::vector<scalar_t> grad(static_cast<std::size_t>(m.num_params()));
  const std::vector<index_t> batch = {1, 2, 3};
  EXPECT_NEAR(m.loss(w, d, batch, *ws),
              m.loss_and_grad(w, d, batch, grad, *ws), 1e-12);
}

TEST(SoftmaxRegression, GradientDescentReducesLoss) {
  const SoftmaxRegression m(6, 4);
  const auto d = small_task();
  std::vector<scalar_t> w(static_cast<std::size_t>(m.num_params()), 0);
  std::vector<scalar_t> grad(w.size());
  auto ws = m.make_workspace();
  const auto batch = all_indices(d.size());
  const scalar_t initial = m.loss(w, d, batch, *ws);
  for (int it = 0; it < 50; ++it) {
    m.loss_and_grad(w, d, batch, grad, *ws);
    tensor::axpy(-0.5, grad, VecView(w));
  }
  const scalar_t final_loss = m.loss(w, d, batch, *ws);
  EXPECT_LT(final_loss, 0.5 * initial);
  EXPECT_GT(accuracy(m, w, d, *ws), 0.8);
}

TEST(SoftmaxRegression, PredictPicksArgmaxClass) {
  const SoftmaxRegression m(2, 3);
  // Craft weights so that class = argmax over (w_c . x).
  std::vector<scalar_t> w(static_cast<std::size_t>(m.num_params()), 0);
  w[0] = 1;  // class 0 likes x0
  w[3] = 1;  // class 1 likes x1
  data::Dataset d;
  d.num_classes = 3;
  d.x.resize(2, 2);
  d.x(0, 0) = 5;  // -> class 0
  d.x(1, 1) = 5;  // -> class 1
  d.y = {0, 1};
  auto ws = m.make_workspace();
  std::vector<index_t> pred(2);
  m.predict(w, d, all_indices(2), pred, *ws);
  EXPECT_EQ(pred[0], 0);
  EXPECT_EQ(pred[1], 1);
  EXPECT_DOUBLE_EQ(accuracy(m, w, d, *ws), 1.0);
}

TEST(Mlp, ParamLayoutAndViews) {
  const Mlp m({5, 7, 3});
  EXPECT_EQ(m.num_params(), 5 * 7 + 7 + 7 * 3 + 3);
  EXPECT_EQ(m.num_layers(), 2);
  EXPECT_FALSE(m.is_convex());
  std::vector<scalar_t> w(static_cast<std::size_t>(m.num_params()));
  std::iota(w.begin(), w.end(), scalar_t{0});
  const auto w0 = m.weights(ConstVecView(w), 0);
  EXPECT_EQ(w0.rows(), 7);
  EXPECT_EQ(w0.cols(), 5);
  EXPECT_DOUBLE_EQ(w0(0, 0), 0);
  const auto b0 = m.biases(ConstVecView(w), 0);
  EXPECT_DOUBLE_EQ(b0[0], 35);  // right after the 35 weights
  const auto w1 = m.weights(ConstVecView(w), 1);
  EXPECT_DOUBLE_EQ(w1(0, 0), 42);
}

TEST(Mlp, SingleLayerMatchesSoftmaxRegression) {
  // An MLP with no hidden layers is exactly softmax regression (up to
  // parameter ordering, which happens to coincide).
  const Mlp mlp({6, 4});
  const SoftmaxRegression smr(6, 4);
  ASSERT_EQ(mlp.num_params(), smr.num_params());
  const auto d = small_task();
  const auto w = random_params(mlp, 21);
  auto ws_a = mlp.make_workspace();
  auto ws_b = smr.make_workspace();
  const std::vector<index_t> batch = {0, 3, 7};
  EXPECT_NEAR(mlp.loss(w, d, batch, *ws_a), smr.loss(w, d, batch, *ws_b),
              1e-10);
  std::vector<scalar_t> ga(w.size()), gb(w.size());
  mlp.loss_and_grad(w, d, batch, ga, *ws_a);
  smr.loss_and_grad(w, d, batch, gb, *ws_b);
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_NEAR(ga[i], gb[i], 1e-10);
  }
}

struct MlpShape {
  std::vector<index_t> dims;
};

// Prints the layer widths ("6x8x3") so the parameterised test names are
// stable; the default byte dump would show the vector's heap address.
void PrintTo(const MlpShape& shape, std::ostream* os) {
  for (std::size_t i = 0; i < shape.dims.size(); ++i) {
    *os << (i == 0 ? "" : "x") << shape.dims[i];
  }
}

class MlpGradient : public ::testing::TestWithParam<MlpShape> {};

TEST_P(MlpGradient, MatchesFiniteDifferences) {
  const Mlp m(GetParam().dims);
  data::GaussianSpec spec;
  spec.dim = GetParam().dims.front();
  spec.num_classes = GetParam().dims.back();
  spec.num_samples = 32;
  spec.seed = 31;
  const auto d = data::make_gaussian_classes(spec);
  std::vector<scalar_t> w(static_cast<std::size_t>(m.num_params()));
  rng::Xoshiro256 gen(32);
  m.init_params(w, gen);
  const std::vector<index_t> batch = {0, 7, 13, 28};
  const auto result =
      check_gradients(m, w, d, batch, /*epsilon=*/1e-5, /*max_coords=*/300);
  EXPECT_LT(result.max_rel_error, 2e-4) << "abs=" << result.max_abs_error;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpGradient,
    ::testing::Values(MlpShape{{4, 3}}, MlpShape{{6, 8, 3}},
                      MlpShape{{5, 10, 6, 4}}, MlpShape{{8, 16, 16, 2}}));

TEST(Mlp, HeInitStatistics) {
  const Mlp m({100, 50, 10});
  std::vector<scalar_t> w(static_cast<std::size_t>(m.num_params()));
  rng::Xoshiro256 gen(5);
  m.init_params(w, gen);
  // Layer 0 weights ~ N(0, 2/100).
  const auto w0 = m.weights(ConstVecView(w), 0);
  scalar_t sum = 0, sum2 = 0;
  for (const scalar_t v : w0.flat()) {
    sum += v;
    sum2 += v * v;
  }
  const auto n = static_cast<scalar_t>(w0.flat().size());
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 2.0 / 100, 0.005);
  // Biases exactly zero.
  for (const scalar_t b : m.biases(ConstVecView(w), 0)) {
    EXPECT_DOUBLE_EQ(b, 0.0);
  }
}

TEST(Mlp, TrainingReducesLossOnSmallTask) {
  const Mlp m({6, 16, 4});
  const auto d = small_task(6, 4, 128, 7);
  std::vector<scalar_t> w(static_cast<std::size_t>(m.num_params()));
  rng::Xoshiro256 gen(8);
  m.init_params(w, gen);
  auto ws = m.make_workspace();
  std::vector<scalar_t> grad(w.size());
  const auto batch = all_indices(d.size());
  const scalar_t initial = m.loss(w, d, batch, *ws);
  for (int it = 0; it < 120; ++it) {
    m.loss_and_grad(w, d, batch, grad, *ws);
    tensor::axpy(-0.3, grad, VecView(w));
  }
  EXPECT_LT(m.loss(w, d, batch, *ws), 0.5 * initial);
  EXPECT_GT(accuracy(m, w, d, *ws), 0.85);
}

TEST(Mlp, PaperArchitectureFactory) {
  const Mlp m = make_paper_mlp(784, 10);
  EXPECT_EQ(m.layer_dims(), (std::vector<index_t>{784, 300, 100, 10}));
  // 784*300+300 + 300*100+100 + 100*10+10 = 266,610 — the paper's
  // W = R^266610.
  EXPECT_EQ(m.num_params(), 266610);
}

TEST(Model, BatchSubsetLossIsMeanOverBatch) {
  const SoftmaxRegression m(6, 4);
  const auto d = small_task();
  const auto w = random_params(m, 40);
  auto ws = m.make_workspace();
  const std::vector<index_t> b1 = {3};
  const std::vector<index_t> b2 = {9};
  const std::vector<index_t> both = {3, 9};
  const scalar_t mean =
      (m.loss(w, d, b1, *ws) + m.loss(w, d, b2, *ws)) / 2;
  EXPECT_NEAR(m.loss(w, d, both, *ws), mean, 1e-12);
}

/// The Model::sgd_step contract spelled out: gradient, optional
/// proximal term, then one axpby.
scalar_t reference_step(const Model& m, std::vector<scalar_t>& w,
                        const data::Dataset& d, std::span<const index_t> batch,
                        const SgdRule& rule, Workspace& ws) {
  std::vector<scalar_t> g(w.size());
  const scalar_t loss = m.loss_and_grad(w, d, batch, g, ws);
  if (rule.prox_mu > 0) {
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] += rule.prox_mu * (w[i] - rule.prox_center[i]);
    }
  }
  tensor::axpby(-rule.eta, g, rule.decay, w);
  return loss;
}

std::uint64_t bits_of(scalar_t x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

TEST(Model, SgdStepIsBitIdenticalToGradientThenAxpby) {
  // The Mlp override updates each W_l inside gemm_tn and never writes the
  // weight gradient out; the softmax model takes the base version. Both
  // must equal the spelled-out step bit for bit over several successive
  // steps. Batches 1 and 8 take gemm_nt's narrow transposed path (every
  // hidden width is at least 4x the batch), 17 the packed path; the
  // 300-300-5 net is large enough for the GEMMs to split row bands.
  const auto small = small_task(20, 5, 64, 7);
  const auto wide = small_task(300, 5, 64, 9);
  const Mlp deep({20, 80, 40, 5});
  const Mlp big({300, 100, 5});
  const SoftmaxRegression softmax(20, 5);
  struct Case {
    const Model* model;
    const data::Dataset* data;
    const char* name;
  };
  for (const Case& c : {Case{&deep, &small, "mlp 20-80-40-5"},
                        Case{&big, &wide, "mlp 300-100-5"},
                        Case{&softmax, &small, "softmax"}}) {
    const auto w0 = random_params(*c.model, 60);
    for (const index_t b : {1, 8, 17}) {
      std::vector<index_t> batch(static_cast<std::size_t>(b));
      for (index_t r = 0; r < b; ++r) {
        batch[static_cast<std::size_t>(r)] = (7 * r + 3) % c.data->size();
      }
      for (const scalar_t decay : {1.0, 0.985}) {
        for (const scalar_t mu : {0.0, 0.4}) {
          const std::string at = std::string(c.name) +
                                 " batch=" + std::to_string(b) +
                                 " decay=" + std::to_string(decay) +
                                 " mu=" + std::to_string(mu);
          std::vector<scalar_t> center(w0.size());
          for (std::size_t i = 0; i < center.size(); ++i) {
            center[i] = w0[i] * 0.5;
          }
          const SgdRule rule{0.05, decay, mu,
                             mu > 0 ? ConstVecView(center) : ConstVecView()};
          auto want = w0, got = w0;
          std::vector<scalar_t> grad(w0.size());
          auto ws_want = c.model->make_workspace();
          auto ws_got = c.model->make_workspace();
          for (int step = 0; step < 3; ++step) {
            const scalar_t lw =
                reference_step(*c.model, want, *c.data, batch, rule, *ws_want);
            const scalar_t lg = c.model->sgd_step(got, *c.data, batch, rule,
                                                  grad, *ws_got);
            ASSERT_EQ(bits_of(lw), bits_of(lg)) << at << " step " << step;
          }
          for (std::size_t i = 0; i < w0.size(); ++i) {
            ASSERT_EQ(bits_of(want[i]), bits_of(got[i])) << at << " w[" << i
                                                         << "]";
          }
        }
      }
    }
  }
}

TEST(GradCheck, DetectsBrokenGradient) {
  // A model with a deliberately wrong gradient must fail the check:
  // here we corrupt one coordinate of the analytic gradient by wrapping.
  class Broken final : public Model {
   public:
    explicit Broken(SoftmaxRegression inner) : inner_(std::move(inner)) {}
    index_t num_params() const override { return inner_.num_params(); }
    index_t num_classes() const override { return inner_.num_classes(); }
    index_t input_dim() const override { return inner_.input_dim(); }
    bool is_convex() const override { return true; }
    std::unique_ptr<Workspace> make_workspace() const override {
      return inner_.make_workspace();
    }
    void init_params(VecView w, rng::Xoshiro256& gen) const override {
      inner_.init_params(w, gen);
    }
    scalar_t loss_and_grad(ConstVecView w, const data::Dataset& d,
                           std::span<const index_t> batch, VecView grad,
                           Workspace& ws) const override {
      const scalar_t loss = inner_.loss_and_grad(w, d, batch, grad, ws);
      grad[0] += 1.0;  // the bug
      return loss;
    }
    scalar_t loss(ConstVecView w, const data::Dataset& d,
                  std::span<const index_t> batch,
                  Workspace& ws) const override {
      return inner_.loss(w, d, batch, ws);
    }
    void predict(ConstVecView w, const data::Dataset& d,
                 std::span<const index_t> batch, std::span<index_t> out,
                 Workspace& ws) const override {
      inner_.predict(w, d, batch, out, ws);
    }

   private:
    SoftmaxRegression inner_;
  };

  const Broken m(SoftmaxRegression(6, 4));
  const auto d = small_task();
  const auto w = random_params(m, 50);
  const std::vector<index_t> batch = {0, 1};
  const auto result = check_gradients(m, w, d, batch);
  EXPECT_GT(result.max_abs_error, 0.5);
}

}  // namespace
}  // namespace hm::nn
