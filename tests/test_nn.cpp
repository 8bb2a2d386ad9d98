// Unit + property tests for hm::nn: exact gradients (finite differences),
// loss semantics, prediction, initialization statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "data/generators.hpp"
#include "nn/convnet.hpp"
#include "nn/grad_check.hpp"
#include "nn/linear_regression.hpp"
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

TEST(LinearRegression, MetadataAndConvexity) {
  const LinearRegression m(8, 3);
  EXPECT_EQ(m.num_params(), 27);
  EXPECT_TRUE(m.is_convex());
  EXPECT_EQ(m.num_classes(), 3);
}

TEST(LinearRegression, GradientMatchesFiniteDifferences) {
  const LinearRegression m(6, 4);
  const auto d = small_task();
  const auto w = random_params(m, 61);
  const std::vector<index_t> batch = {0, 4, 9};
  const auto result = check_gradients(m, w, d, batch);
  EXPECT_LT(result.max_rel_error, 1e-6);
}

TEST(LinearRegression, ZeroInitLossIsHalf) {
  // Zero scores vs one-hot target: loss = 0.5 * 1 per sample.
  const LinearRegression m(6, 4);
  const auto d = small_task();
  std::vector<scalar_t> w(static_cast<std::size_t>(m.num_params()), 0);
  auto ws = m.make_workspace();
  EXPECT_NEAR(m.loss(w, d, all_indices(d.size()), *ws), 0.5, 1e-12);
}

TEST(LinearRegression, GradientDescentLearnsSeparableTask) {
  const LinearRegression m(6, 4);
  const auto d = small_task(6, 4, 200, 9);
  std::vector<scalar_t> w(static_cast<std::size_t>(m.num_params()), 0);
  std::vector<scalar_t> grad(w.size());
  auto ws = m.make_workspace();
  const auto batch = all_indices(d.size());
  // MSE Hessian ~ E[xx^T]: keep the step below 2/lambda_max.
  for (int it = 0; it < 400; ++it) {
    m.loss_and_grad(w, d, batch, grad, *ws);
    tensor::axpy(-0.05, grad, VecView(w));
  }
  EXPECT_GT(accuracy(m, w, d, *ws), 0.8);
}

TEST(ConvNet, ParamCountAndShapes) {
  // 8x8 input, 3 filters of 3x3 -> 6x6 features -> 4 classes.
  const ConvNet m(8, 3, 3, 4);
  EXPECT_EQ(m.input_dim(), 64);
  EXPECT_EQ(m.feature_side(), 6);
  EXPECT_EQ(m.num_params(), 3 * 9 + 3 + 4 * 3 * 36 + 4);
  EXPECT_FALSE(m.is_convex());
}

TEST(ConvNet, InvalidGeometryThrows) {
  EXPECT_THROW(ConvNet(4, 2, 5, 3), CheckError);  // kernel > side
  EXPECT_THROW(ConvNet(4, 0, 2, 3), CheckError);
}

TEST(ConvNet, GradientMatchesFiniteDifferences) {
  const ConvNet m(6, 2, 3, 3);
  data::GaussianSpec spec;
  spec.dim = 36;
  spec.num_classes = 3;
  spec.num_samples = 16;
  spec.seed = 71;
  const auto d = data::make_gaussian_classes(spec);
  std::vector<scalar_t> w(static_cast<std::size_t>(m.num_params()));
  rng::Xoshiro256 gen(72);
  m.init_params(w, gen);
  const std::vector<index_t> batch = {0, 5, 11};
  const auto result =
      check_gradients(m, w, d, batch, /*epsilon=*/1e-5, /*max_coords=*/200);
  EXPECT_LT(result.max_rel_error, 2e-4) << "abs=" << result.max_abs_error;
}

TEST(ConvNet, LearnsTranslationStructuredTask) {
  // Task where the class is a local 2x2 pattern placed at a random
  // location: exactly what a conv filter can detect and a dense model of
  // the same size finds hard. Checks the model trains end-to-end.
  const index_t side = 6;
  data::Dataset d;
  d.num_classes = 2;
  const index_t n = 256;
  d.x.resize(n, side * side);
  d.y.resize(static_cast<std::size_t>(n));
  rng::Xoshiro256 gen(73);
  for (index_t i = 0; i < n; ++i) {
    auto row = d.x.row(i);
    for (auto& v : row) v = gen.normal(0.0, 0.3);
    const index_t label = static_cast<index_t>(gen.uniform_index(2));
    const auto r0 = static_cast<index_t>(gen.uniform_index(side - 1));
    const auto c0 = static_cast<index_t>(gen.uniform_index(side - 1));
    // Class 0: bright diagonal pair; class 1: bright anti-diagonal pair.
    if (label == 0) {
      row[static_cast<std::size_t>(r0 * side + c0)] += 2.5;
      row[static_cast<std::size_t>((r0 + 1) * side + c0 + 1)] += 2.5;
    } else {
      row[static_cast<std::size_t>(r0 * side + c0 + 1)] += 2.5;
      row[static_cast<std::size_t>((r0 + 1) * side + c0)] += 2.5;
    }
    d.y[static_cast<std::size_t>(i)] = label;
  }
  const ConvNet m(side, 4, 2, 2);
  std::vector<scalar_t> w(static_cast<std::size_t>(m.num_params()));
  rng::Xoshiro256 init(74);
  m.init_params(w, init);
  auto ws = m.make_workspace();
  std::vector<scalar_t> grad(w.size());
  const auto batch = all_indices(d.size());
  for (int it = 0; it < 250; ++it) {
    m.loss_and_grad(w, d, batch, grad, *ws);
    tensor::axpy(-0.5, grad, VecView(w));
  }
  EXPECT_GT(accuracy(m, w, d, *ws), 0.9);
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
