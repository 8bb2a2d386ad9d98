// Unit + property tests for hm::tensor: BLAS-1 kernels, matrix views,
// GEMM variants vs a naive reference, activations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <limits>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "tensor/activations.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"
#include "tensor/vecops.hpp"

namespace hm::tensor {
namespace {

Matrix random_matrix(index_t rows, index_t cols, rng::Xoshiro256& gen) {
  Matrix m(rows, cols);
  for (auto& v : m.flat()) v = gen.normal();
  return m;
}

TEST(VecOps, Axpy) {
  std::vector<scalar_t> x = {1, 2, 3};
  std::vector<scalar_t> y = {10, 20, 30};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12);
  EXPECT_DOUBLE_EQ(y[1], 24);
  EXPECT_DOUBLE_EQ(y[2], 36);
}

TEST(VecOps, AxpySizeMismatchThrows) {
  std::vector<scalar_t> x = {1, 2};
  std::vector<scalar_t> y = {1, 2, 3};
  EXPECT_THROW(axpy(1.0, x, y), CheckError);
}

TEST(VecOps, DotAndNorm) {
  std::vector<scalar_t> x = {3, 4};
  EXPECT_DOUBLE_EQ(dot(x, x), 25);
  EXPECT_DOUBLE_EQ(nrm2(x), 5);
}

TEST(VecOps, ScaleCopyZeroSumMaxArgmax) {
  std::vector<scalar_t> x = {1, -2, 5, 3};
  scale(2.0, x);
  EXPECT_EQ(x, (std::vector<scalar_t>{2, -4, 10, 6}));
  EXPECT_DOUBLE_EQ(max(x), 10);
  EXPECT_EQ(argmax(x), 2);
  std::vector<scalar_t> y(4);
  copy(x, y);
  EXPECT_EQ(x, y);
  set_zero(y);
  EXPECT_EQ(y, std::vector<scalar_t>(4, 0.0));
}

TEST(VecOps, ProjectL2BallShrinksOnlyOutside) {
  std::vector<scalar_t> inside = {0.3, 0.4};
  project_l2_ball(inside, 1.0);
  EXPECT_DOUBLE_EQ(inside[0], 0.3);  // untouched, norm 0.5 < 1

  std::vector<scalar_t> outside = {3, 4};
  project_l2_ball(outside, 1.0);
  EXPECT_NEAR(nrm2(outside), 1.0, 1e-12);
  EXPECT_NEAR(outside[0] / outside[1], 0.75, 1e-12);  // direction kept
}

TEST(VecOps, ProjectL2BallSurvivesSquaredNormOverflow) {
  // dot(x, x) overflows to Inf for these finite coordinates; radius/Inf
  // used to be 0, which set the whole model to zero.
  std::vector<scalar_t> x = {3e200, -4e200, 0, 1e-300};
  project_l2_ball(x, 2.0);
  EXPECT_NEAR(x[0], 1.2, 1e-12);
  EXPECT_NEAR(x[1], -1.6, 1e-12);
  EXPECT_EQ(x[2], 0.0);
  EXPECT_NEAR(nrm2(x), 2.0, 1e-12);

  // The norm itself (about 5.7e307 * 4) exceeds the largest double.
  std::vector<scalar_t> huge(16, std::numeric_limits<scalar_t>::max() / 8);
  project_l2_ball(huge, 1e300);
  for (const scalar_t v : huge) EXPECT_NEAR(v, 0.25e300, 1e288);

  // Overflowing squares, but inside a huge ball: left alone.
  std::vector<scalar_t> inside = {1e160, -1e160};
  project_l2_ball(inside, 1e300);
  EXPECT_EQ(inside[0], 1e160);
  EXPECT_EQ(inside[1], -1e160);
}

TEST(VecOps, ProjectL2BallZeroRadiusIsIdentity) {
  std::vector<scalar_t> x = {100, 200};
  project_l2_ball(x, 0);  // radius <= 0 means unconstrained
  EXPECT_DOUBLE_EQ(x[0], 100);
}

TEST(MatrixViews, RowAccessAndFlat) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(1, 2) = 7;
  ConstMatView view = m;
  EXPECT_EQ(view.rows(), 2);
  EXPECT_EQ(view.cols(), 3);
  EXPECT_DOUBLE_EQ(view(1, 2), 7);
  EXPECT_DOUBLE_EQ(view.row(0)[0], 1);
  EXPECT_EQ(view.flat().size(), 6u);
}

TEST(MatrixViews, FlatVectorAsMatrix) {
  std::vector<scalar_t> buf = {1, 2, 3, 4, 5, 6};
  MatView view(VecView(buf), 2, 3);
  EXPECT_DOUBLE_EQ(view(0, 2), 3);
  view(1, 0) = 40;
  EXPECT_DOUBLE_EQ(buf[3], 40);
}

TEST(MatrixViews, TooSmallBufferThrows) {
  std::vector<scalar_t> buf(5);
  EXPECT_THROW(MatView(VecView(buf), 2, 3), CheckError);
}

// Naive reference implementations for GEMM property checks.
Matrix ref_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < b.cols(); ++j)
      for (index_t l = 0; l < a.cols(); ++l) c(i, j) += a(i, l) * b(l, j);
  return c;
}

Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (index_t i = 0; i < m.rows(); ++i)
    for (index_t j = 0; j < m.cols(); ++j) t(j, i) = m(i, j);
  return t;
}

struct GemmShape {
  index_t m, k, n;
};

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, MatchesReference) {
  const auto [m, k, n] = GetParam();
  rng::Xoshiro256 gen(100 + m + 10 * k + 100 * n);
  const Matrix a = random_matrix(m, k, gen);
  const Matrix b = random_matrix(k, n, gen);
  const Matrix expected = ref_gemm(a, b);
  Matrix c(m, n);
  gemm(a, b, c);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j)
      EXPECT_NEAR(c(i, j), expected(i, j), 1e-9) << i << "," << j;
}

TEST_P(GemmTest, NtMatchesReference) {
  const auto [m, k, n] = GetParam();
  rng::Xoshiro256 gen(200 + m + 10 * k + 100 * n);
  const Matrix a = random_matrix(m, k, gen);
  const Matrix bt = random_matrix(n, k, gen);  // B^T stored
  const Matrix expected = ref_gemm(a, transpose(bt));
  Matrix c(m, n);
  gemm_nt(a, bt, c);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j)
      EXPECT_NEAR(c(i, j), expected(i, j), 1e-9);
}

TEST_P(GemmTest, TnMatchesReference) {
  const auto [m, k, n] = GetParam();
  rng::Xoshiro256 gen(300 + m + 10 * k + 100 * n);
  const Matrix at = random_matrix(m, k, gen);  // A stored; we want A^T B
  const Matrix b = random_matrix(m, n, gen);
  const Matrix expected = ref_gemm(transpose(at), b);
  Matrix c(k, n);
  gemm_tn(at, b, c);
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < n; ++j)
      EXPECT_NEAR(c(i, j), expected(i, j), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{2, 3, 4},
                      GemmShape{8, 5, 8}, GemmShape{17, 9, 3},
                      GemmShape{64, 64, 64}, GemmShape{100, 33, 57}));

TEST(Gemm, BetaAccumulates) {
  rng::Xoshiro256 gen(42);
  const Matrix a = random_matrix(3, 4, gen);
  const Matrix b = random_matrix(4, 5, gen);
  Matrix c(3, 5, /*fill=*/1.0);
  const Matrix ab = ref_gemm(a, b);
  gemm(a, b, c, /*beta=*/2.0);
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 5; ++j)
      EXPECT_NEAR(c(i, j), 2.0 + ab(i, j), 1e-9);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 5), c(2, 5);
  EXPECT_THROW(gemm(a, b, c), CheckError);
  Matrix b2(3, 5), c2(3, 5);
  EXPECT_THROW(gemm(a, b2, c2), CheckError);  // wrong output rows
}

TEST(Gemm, ParallelPathMatchesReference) {
  // Several row bands, above the flop threshold at which gemm_nt_fma
  // would split them across a pool (gemm itself runs on the caller).
  rng::Xoshiro256 gen(77);
  const Matrix a = random_matrix(96, 80, gen);
  const Matrix b = random_matrix(80, 96, gen);
  const Matrix expected = ref_gemm(a, b);
  Matrix c(96, 96);
  gemm(a, b, c);
  scalar_t max_err = 0;
  for (index_t i = 0; i < 96; ++i)
    for (index_t j = 0; j < 96; ++j)
      max_err = std::max(max_err, std::abs(c(i, j) - expected(i, j)));
  EXPECT_LT(max_err, 1e-9);
}

// ---------------------------------------------------------------------
// Kernel-equivalence suite: the vecops/gemm headers promise specific
// rounding sequences (8-lane reductions with a fixed pairwise combine,
// elementwise fusions identical to their unfused chains, GEMM accumping
// each element in naive k-order). These tests pin that contract with
// exact (0 ULP) comparisons against plain scalar references — EXPECT_EQ
// on doubles, no tolerance.

/// Reference for the 8-lane reduction order documented in vecops.hpp:
/// lane j folds indices ≡ j (mod kLanes) in increasing order, lanes
/// combine as ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
scalar_t ref_lane_reduce(std::size_t n,
                         const std::function<scalar_t(std::size_t)>& term) {
  scalar_t lane[kLanes] = {};
  for (std::size_t i = 0; i < n; ++i) lane[i % kLanes] += term(i);
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

std::vector<scalar_t> random_vec(std::size_t n, rng::Xoshiro256& gen) {
  std::vector<scalar_t> v(n);
  for (auto& x : v) x = gen.normal();
  return v;
}

/// Sizes straddling the unrolled-body/tail boundaries of the kernels.
const std::size_t kEquivalenceSizes[] = {0,  1,  2,  3,  7,   8,   9,  15,
                                         16, 17, 31, 63, 64,  65,  100,
                                         255, 256, 1000, 4099};

TEST(KernelEquivalence, DotMatchesLaneOrderExactly) {
  rng::Xoshiro256 gen(900);
  for (const std::size_t n : kEquivalenceSizes) {
    const auto x = random_vec(n, gen);
    const auto y = random_vec(n, gen);
    const scalar_t expected =
        ref_lane_reduce(n, [&](std::size_t i) { return x[i] * y[i]; });
    EXPECT_EQ(dot(x, y), expected) << "n=" << n;
  }
}

TEST(KernelEquivalence, AxpyMatchesScalarLoopExactly) {
  rng::Xoshiro256 gen(904);
  for (const std::size_t n : kEquivalenceSizes) {
    const auto x = random_vec(n, gen);
    auto y = random_vec(n, gen);
    auto expected = y;
    for (std::size_t i = 0; i < n; ++i) expected[i] += 0.37 * x[i];
    axpy(0.37, x, y);
    EXPECT_EQ(y, expected) << "n=" << n;
  }
}

TEST(KernelEquivalence, AxpbyMatchesScaleThenAxpyExactly) {
  rng::Xoshiro256 gen(905);
  for (const std::size_t n : kEquivalenceSizes) {
    const auto x = random_vec(n, gen);
    auto fused = random_vec(n, gen);
    auto chained = fused;
    scale(0.93, chained);
    axpy(-0.01, x, chained);
    axpby(-0.01, x, 0.93, fused);
    EXPECT_EQ(fused, chained) << "n=" << n;
  }
}

TEST(KernelEquivalence, AxpbyBetaZeroOverwritesNaN) {
  // beta == 0 must not evaluate 0 * y: NaN-poisoned destinations are
  // overwritten cleanly (the scratch-reuse paths rely on this).
  const std::vector<scalar_t> x = {1, 2, 3};
  std::vector<scalar_t> y(3, std::numeric_limits<scalar_t>::quiet_NaN());
  axpby(2.0, x, 0.0, y);
  EXPECT_EQ(y, (std::vector<scalar_t>{2, 4, 6}));
}

TEST(KernelEquivalence, Axpy2MatchesTwoAxpysExactly) {
  rng::Xoshiro256 gen(906);
  for (const std::size_t n : kEquivalenceSizes) {
    const auto x0 = random_vec(n, gen);
    const auto x1 = random_vec(n, gen);
    auto fused = random_vec(n, gen);
    auto chained = fused;
    axpy(0.25, x0, chained);
    axpy(-1.5, x1, chained);
    axpy2(0.25, x0, -1.5, x1, fused);
    EXPECT_EQ(fused, chained) << "n=" << n;
  }
}

/// GEMM reference with the documented rounding sequence: each element is
/// the k-sequential product sum acc, then C = alpha*acc + beta*C in that
/// order (alpha*acc alone when beta == 0). With alpha == 1 this is the
/// scale-C-then-add-acc sequence, since 1*acc is exact.
Matrix ref_gemm_exact(const Matrix& a, const Matrix& b, const Matrix* prior,
                      scalar_t beta, scalar_t alpha = 1) {
  Matrix c(a.rows(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) {
      scalar_t acc = 0;
      for (index_t l = 0; l < a.cols(); ++l) acc += a(i, l) * b(l, j);
      c(i, j) = beta == 0 ? alpha * acc
                          : alpha * acc + beta * (*prior)(i, j);
    }
  }
  return c;
}

/// The fused reference: acc = fma(a, b, acc) with k increasing, then the
/// same epilogue as ref_gemm_exact.
Matrix ref_gemm_fma(const Matrix& a, const Matrix& b, const Matrix* prior,
                    scalar_t beta) {
  Matrix c(a.rows(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) {
      scalar_t acc = 0;
      for (index_t l = 0; l < a.cols(); ++l) acc = std::fma(a(i, l), b(l, j), acc);
      c(i, j) = beta == 0 ? acc : acc + beta * (*prior)(i, j);
    }
  }
  return c;
}

struct GemmExactShape {
  index_t m, k, n;
};

class GemmExactTest : public ::testing::TestWithParam<GemmExactShape> {};

TEST_P(GemmExactTest, AllVariantsBitIdenticalToNaiveOrder) {
  const auto [m, k, n] = GetParam();
  rng::Xoshiro256 gen(910 + m + 10 * k + 100 * n);
  const Matrix a = random_matrix(m, k, gen);
  const Matrix b = random_matrix(k, n, gen);
  const Matrix bt = transpose(b);
  const Matrix at = transpose(a);
  auto expect_bits_equal = [&](const Matrix& c, const Matrix& expected,
                               const char* what, scalar_t beta) {
    for (index_t i = 0; i < c.rows(); ++i)
      for (index_t j = 0; j < c.cols(); ++j)
        EXPECT_EQ(c(i, j), expected(i, j))
            << what << " beta=" << beta << " at " << i << "," << j;
  };
  for (const scalar_t beta : {0.0, 1.0, 0.5}) {
    const Matrix prior = random_matrix(m, n, gen);
    const Matrix expected = ref_gemm_exact(a, b, &prior, beta);
    Matrix c = prior;
    gemm(a, b, c, beta);
    expect_bits_equal(c, expected, "gemm", beta);
    c = prior;
    gemm_nt(a, bt, c, beta);
    expect_bits_equal(c, expected, "gemm_nt", beta);
    c = prior;
    gemm_tn(at, b, c, beta);
    expect_bits_equal(c, expected, "gemm_tn", beta);
    // The SGD-update form: C = -eta * A^T B + decay * C.
    const Matrix scaled = ref_gemm_exact(a, b, &prior, beta, -0.03);
    c = prior;
    gemm_tn(at, b, c, beta, -0.03);
    expect_bits_equal(c, scaled, "gemm_tn alpha=-0.03", beta);
    c = prior;
    gemm_nt_fma(a, bt, c, beta);
    expect_bits_equal(c, ref_gemm_fma(a, b, &prior, beta), "gemm_nt_fma",
                      beta);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmExactTest,
    ::testing::Values(
        GemmExactShape{1, 1, 1},      // degenerate
        GemmExactShape{8, 40, 64},    // gemm_nt swap path (m small, n >> m)
        GemmExactShape{3, 17, 50},    // swap path, m below one strip
        GemmExactShape{13, 9, 7},     // row and column tails everywhere
        GemmExactShape{16, 8, 6},     // exact tile multiples
        GemmExactShape{65, 33, 19},   // multiple kMR blocks + tails
        GemmExactShape{130, 50, 70},  // parallel row-band path
        // gemm_nt swap path with a panel narrower than the default tile
        // (m <= 4 on every tier, m <= 8 on AVX-512), n >= 4m.
        GemmExactShape{1, 9, 4}, GemmExactShape{2, 13, 8},
        GemmExactShape{3, 7, 12}, GemmExactShape{4, 33, 16},
        GemmExactShape{5, 17, 20}, GemmExactShape{8, 19, 32},
        GemmExactShape{8, 784, 300})  // Fig. 4 layer-1 forward
);

// gemm_nt's narrow-output path: n around every tier's register budget and
// panel width (kNR +- 1 for NR = 6, 8, 16), m around every lane block
// (kVW +- 1 for VW = 2, 4, 8) and past a row band, k with and without a
// whole transposed block. The Fig. 3 evaluation forward is m x 784 x 10.
std::vector<GemmExactShape> narrow_exact_shapes() {
  std::vector<GemmExactShape> out;
  for (const index_t m : {1, 2, 3, 4, 5, 7, 8, 9, 75, 107, 256}) {
    for (const index_t k : {1, 7, 784}) {
      for (const index_t n : {1, 2, 5, 7, 9, 10, 12, 15, 17}) {
        out.push_back({m, k, n});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    NarrowShapes, GemmExactTest, ::testing::ValuesIn(narrow_exact_shapes()),
    [](const ::testing::TestParamInfo<GemmExactShape>& p) {
      return "m" + std::to_string(p.param.m) + "_k" +
             std::to_string(p.param.k) + "_n" + std::to_string(p.param.n);
    });

TEST(GemmNarrow, SpecialValuesMatchNaiveOrder) {
  // NaN, +-Inf and -0 in A, B and the prior C, on narrow-output shapes
  // with row tails (m % kVW != 0 on every tier) and a k tail. The fused
  // family matches the naive fma loop bit for bit; the unfused one up to
  // the sign of a NaN, whose operand order the compiler may swap.
  const scalar_t inf = std::numeric_limits<scalar_t>::infinity();
  const scalar_t specials[] = {std::numeric_limits<scalar_t>::quiet_NaN(),
                               inf, -inf, -0.0};
  auto plant = [&](Matrix& x, std::size_t stride, std::size_t offset) {
    auto flat = x.flat();
    for (std::size_t i = offset; i < flat.size(); i += stride) {
      flat[i] = specials[(i / stride) % 4];
    }
  };
  auto same = [](scalar_t x, scalar_t y, bool any_nan) {
    if (any_nan && std::isnan(x) && std::isnan(y)) return true;
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  rng::Xoshiro256 gen(930);
  for (const GemmExactShape s : {GemmExactShape{75, 784, 10},
                                 GemmExactShape{107, 13, 17},
                                 GemmExactShape{9, 7, 5}}) {
    Matrix a = random_matrix(s.m, s.k, gen);
    Matrix bt = random_matrix(s.n, s.k, gen);
    Matrix prior = random_matrix(s.m, s.n, gen);
    plant(a, 97, 3);
    plant(bt, 89, 5);
    plant(prior, 11, 1);
    const Matrix b = transpose(bt);
    for (const scalar_t beta : {0.0, 0.5}) {
      const Matrix plain = ref_gemm_exact(a, b, &prior, beta);
      const Matrix fused = ref_gemm_fma(a, b, &prior, beta);
      Matrix c = prior;
      gemm_nt(a, bt, c, beta);
      Matrix cf = prior;
      gemm_nt_fma(a, bt, cf, beta);
      for (index_t i = 0; i < s.m; ++i) {
        for (index_t j = 0; j < s.n; ++j) {
          EXPECT_TRUE(same(c(i, j), plain(i, j), true))
              << "gemm_nt m=" << s.m << " beta=" << beta << " at " << i
              << "," << j << ": " << c(i, j) << " vs " << plain(i, j);
          EXPECT_TRUE(same(cf(i, j), fused(i, j), false))
              << "gemm_nt_fma m=" << s.m << " beta=" << beta << " at " << i
              << "," << j << ": " << cf(i, j) << " vs " << fused(i, j);
        }
      }
    }
  }
}

TEST(GemmNtFma, PoolSplitIsBitIdenticalForAnyPoolSize) {
  // The Phase-2 evaluation forward of the Fig. 4 MLP (192 stacked rows
  // against the 300 x 784 first layer) splits its row bands across the
  // pool it is given; a batch-sized A (8 rows) splits the transposed
  // product's bands instead. Either split must give the serial bits.
  rng::Xoshiro256 gen(940);
  for (const index_t m : {192, 8}) {
    const Matrix a = random_matrix(m, 784, gen);
    const Matrix bt = random_matrix(300, 784, gen);
    const Matrix prior = random_matrix(m, 300, gen);
    for (const scalar_t beta : {0.0, 0.5}) {
      Matrix serial = prior;
      gemm_nt_fma(a, bt, serial, beta);
      for (const std::size_t threads : {1, 2, 4}) {
        parallel::ThreadPool pool(threads);
        Matrix c = prior;
        gemm_nt_fma(a, bt, c, beta, &pool);
        EXPECT_EQ(std::memcmp(c.data(), serial.data(),
                              c.flat().size() * sizeof(scalar_t)),
                  0)
            << "m=" << m << " beta=" << beta << " threads=" << threads;
      }
    }
  }
}

TEST(GemmNtFma, GridSplitIsBitIdenticalForAnyPoolSize) {
  // A pooled packed-path call takes the bands x column-panels grid,
  // packing B inside the region: ragged M and N (partial bands, partial
  // last strip), one band, 13 bands (one panel, so later bands wait on
  // the first chunk's whole pack), and the Fig. 4 Phase-2 second layer
  // (the first is PoolSplitIsBitIdentical's), with NaN, +-Inf and -0
  // planted in A, B and C. Every pool size gives the serial call's bits.
  const scalar_t inf = std::numeric_limits<scalar_t>::infinity();
  const scalar_t specials[] = {std::numeric_limits<scalar_t>::quiet_NaN(),
                               inf, -inf, -0.0};
  auto plant = [&](Matrix& x, std::size_t stride, std::size_t offset) {
    auto flat = x.flat();
    for (std::size_t i = offset; i < flat.size(); i += stride) {
      flat[i] = specials[(i / stride) % 4];
    }
  };
  rng::Xoshiro256 gen(950);
  for (const GemmExactShape s :
       {GemmExactShape{192, 300, 100},
        GemmExactShape{67, 129, 37}, GemmExactShape{130, 65, 201},
        GemmExactShape{40, 300, 97}, GemmExactShape{800, 40, 17}}) {
    Matrix a = random_matrix(s.m, s.k, gen);
    Matrix bt = random_matrix(s.n, s.k, gen);
    Matrix prior = random_matrix(s.m, s.n, gen);
    const Matrix decoy = random_matrix(s.n, s.k, gen);
    plant(a, 331, 7);
    plant(bt, 293, 11);
    plant(prior, 37, 2);
    for (const scalar_t beta : {0.0, 0.5}) {
      Matrix serial = prior;
      gemm_nt_fma(a, bt, serial, beta);
      for (const std::size_t threads : {1, 2, 3, 4, 5}) {
        parallel::ThreadPool pool(threads);
        // Leave another B in this thread's pack buffer, so a panel the
        // split failed to pack cannot pass on the serial call's packing.
        Matrix scratch = prior;
        gemm_nt_fma(a, decoy, scratch, beta);
        Matrix c = prior;
        gemm_nt_fma(a, bt, c, beta, &pool);
        EXPECT_EQ(std::memcmp(c.data(), serial.data(),
                              c.flat().size() * sizeof(scalar_t)),
                  0)
            << "m=" << s.m << " n=" << s.n << " k=" << s.k
            << " beta=" << beta << " threads=" << threads;
      }
    }
  }
}

TEST(Activations, ReluClampsNegatives) {
  std::vector<scalar_t> x = {-1, 0, 2, -0.5};
  relu(x);
  EXPECT_EQ(x, (std::vector<scalar_t>{0, 0, 2, 0}));
}

TEST(Activations, ReluBackwardMasks) {
  const std::vector<scalar_t> act = {0, 1, 0, 3};  // post-ReLU values
  std::vector<scalar_t> grad = {5, 5, 5, 5};
  relu_backward(act, grad);
  EXPECT_EQ(grad, (std::vector<scalar_t>{0, 5, 0, 5}));
}

TEST(Activations, SoftmaxRowsSumToOne) {
  Matrix logits(2, 3);
  logits(0, 0) = 1;
  logits(0, 1) = 2;
  logits(0, 2) = 3;
  logits(1, 0) = 1000;  // stability check: huge values must not overflow
  logits(1, 1) = 1000;
  logits(1, 2) = 999;
  softmax_rows(logits);
  for (index_t r = 0; r < 2; ++r) {
    const auto row = logits.row(r);
    EXPECT_NEAR(std::accumulate(row.begin(), row.end(), 0.0), 1.0, 1e-12);
    for (index_t c = 0; c < 3; ++c) EXPECT_GT(logits(r, c), 0.0);
  }
  EXPECT_GT(logits(0, 2), logits(0, 0));
}

TEST(Activations, LogSumExpStableAndCorrect) {
  const std::vector<scalar_t> x = {1.0, 2.0, 3.0};
  const scalar_t expected =
      std::log(std::exp(1.0) + std::exp(2.0) + std::exp(3.0));
  EXPECT_NEAR(log_sum_exp(x), expected, 1e-12);
  const std::vector<scalar_t> huge = {1000.0, 1000.0};
  EXPECT_NEAR(log_sum_exp(huge), 1000.0 + std::log(2.0), 1e-9);
}

}  // namespace
}  // namespace hm::tensor
