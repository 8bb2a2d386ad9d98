// Property tests for the simplex projections used by the weight-update
// step (Eq. 7) — the numerical heart of Pi_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "algo/projection.hpp"
#include "rng/rng.hpp"
#include "tensor/vecops.hpp"

namespace hm::algo {
namespace {

/// ||a - b||_2.
scalar_t distance(tensor::ConstVecView a, tensor::ConstVecView b) {
  std::vector<scalar_t> diff(a.begin(), a.end());
  tensor::axpy(-1.0, b, diff);
  return tensor::nrm2(diff);
}

std::vector<scalar_t> random_vector(index_t n, seed_t seed,
                                    scalar_t scale = 2.0) {
  rng::Xoshiro256 gen(seed);
  std::vector<scalar_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = gen.normal(0.0, scale);
  return v;
}

bool on_simplex(const std::vector<scalar_t>& p, scalar_t lo = 0,
                scalar_t hi = 1, scalar_t tol = 1e-9) {
  scalar_t total = 0;
  for (const scalar_t x : p) {
    if (x < lo - tol || x > hi + tol) return false;
    total += x;
  }
  return std::abs(total - 1) < 1e-8;
}

TEST(SimplexSet, Feasibility) {
  EXPECT_TRUE(SimplexSet::full().feasible(5));
  EXPECT_TRUE((SimplexSet{0.05, 0.5}.feasible(5)));
  EXPECT_FALSE((SimplexSet{0.3, 0.5}.feasible(5)));   // 5*0.3 > 1
  EXPECT_FALSE((SimplexSet{0.0, 0.1}.feasible(5)));   // 5*0.1 < 1
  EXPECT_FALSE((SimplexSet{0.5, 0.2}.feasible(5)));   // hi < lo
}

TEST(ProjectSimplex, AlreadyOnSimplexIsFixedPoint) {
  std::vector<scalar_t> p = {0.2, 0.3, 0.5};
  auto q = p;
  project_simplex(q);
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_NEAR(q[i], p[i], 1e-12);
}

TEST(ProjectSimplex, KnownCase) {
  // Projection of (1.5, 0.5) onto the simplex: subtract 0.5 -> (1, 0).
  std::vector<scalar_t> v = {1.5, 0.5};
  project_simplex(v);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], 0.0, 1e-12);
}

TEST(ProjectSimplex, UniformNegativeInput) {
  std::vector<scalar_t> v = {-5, -5, -5, -5};
  project_simplex(v);
  for (const scalar_t x : v) EXPECT_NEAR(x, 0.25, 1e-12);
}

class SimplexProjectionProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SimplexProjectionProperty, ResultIsOnSimplex) {
  const auto [n, seed] = GetParam();
  auto v = random_vector(n, static_cast<seed_t>(seed));
  project_simplex(v);
  EXPECT_TRUE(on_simplex(v));
}

TEST_P(SimplexProjectionProperty, Idempotent) {
  const auto [n, seed] = GetParam();
  auto v = random_vector(n, static_cast<seed_t>(seed) + 100);
  project_simplex(v);
  auto w = v;
  project_simplex(w);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(w[i], v[i], 1e-9);
}

TEST_P(SimplexProjectionProperty, IsNearestPoint) {
  // Projection optimality: for random feasible q, ||v - proj|| <= ||v - q||.
  const auto [n, seed] = GetParam();
  const auto v = random_vector(n, static_cast<seed_t>(seed) + 200);
  auto proj = v;
  project_simplex(proj);
  rng::Xoshiro256 gen(static_cast<seed_t>(seed) + 300);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<scalar_t> q(static_cast<std::size_t>(n));
    scalar_t total = 0;
    for (auto& x : q) {
      x = gen.uniform();
      total += x;
    }
    for (auto& x : q) x /= total;
    EXPECT_LE(distance(v, proj), distance(v, q) + 1e-9);
  }
}

TEST_P(SimplexProjectionProperty, MatchesCappedWithFullBounds) {
  const auto [n, seed] = GetParam();
  const auto v = random_vector(n, static_cast<seed_t>(seed) + 400);
  auto exact = v;
  project_simplex(exact);
  auto capped = v;
  project_capped_simplex(capped, SimplexSet::full());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(capped[i], exact[i], 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimplexProjectionProperty,
                         ::testing::Combine(::testing::Values(2, 3, 10, 100),
                                            ::testing::Values(1, 2, 3)));

TEST(ProjectCappedSimplex, RespectsCaps) {
  std::vector<scalar_t> v = {10.0, 0.0, 0.0, 0.0};
  const SimplexSet set{0.05, 0.6};
  project_capped_simplex(v, set);
  EXPECT_TRUE(on_simplex(v, set.lo, set.hi));
  EXPECT_NEAR(v[0], 0.6, 1e-7);  // capped at hi
  // Remaining mass split equally among the tied coordinates.
  for (int i = 1; i < 4; ++i) EXPECT_NEAR(v[static_cast<std::size_t>(i)],
                                          0.4 / 3, 1e-7);
}

TEST(ProjectCappedSimplex, LowerBoundBinds) {
  std::vector<scalar_t> v = {1.0, -10.0, 0.5};
  const SimplexSet set{0.1, 1.0};
  project_capped_simplex(v, set);
  EXPECT_TRUE(on_simplex(v, set.lo, set.hi));
  EXPECT_NEAR(v[1], 0.1, 1e-7);
}

TEST(ProjectCappedSimplex, InfeasibleThrows) {
  std::vector<scalar_t> v = {0.5, 0.5};
  EXPECT_THROW(project_capped_simplex(v, SimplexSet{0.6, 1.0}), CheckError);
}

class CappedProjectionProperty : public ::testing::TestWithParam<int> {};

TEST_P(CappedProjectionProperty, FeasibleAndNearest) {
  const int seed = GetParam();
  const index_t n = 8;
  const auto v = random_vector(n, static_cast<seed_t>(seed) + 500);
  const SimplexSet set{0.02, 0.4};
  auto proj = v;
  project_capped_simplex(proj, set);
  EXPECT_TRUE(on_simplex(proj, set.lo, set.hi, 1e-7));
  // Compare against random feasible points.
  rng::Xoshiro256 gen(static_cast<seed_t>(seed) + 600);
  for (int trial = 0; trial < 30; ++trial) {
    auto q = random_vector(n, static_cast<seed_t>(trial) + 700, 1.0);
    project_capped_simplex(q, set);
    EXPECT_LE(distance(v, proj), distance(v, q) + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CappedProjectionProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(MaxLinear, FullSimplexIsMaxCoordinate) {
  const std::vector<scalar_t> v = {0.3, 1.7, -0.2};
  EXPECT_DOUBLE_EQ(max_linear_over_simplex(v, SimplexSet::full()), 1.7);
  const auto p = argmax_linear_over_simplex(v, SimplexSet::full());
  EXPECT_DOUBLE_EQ(p[1], 1.0);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
}

TEST(MaxLinear, CappedSpreadsMass) {
  const std::vector<scalar_t> v = {3.0, 2.0, 1.0, 0.0};
  const SimplexSet set{0.1, 0.5};
  const auto p = argmax_linear_over_simplex(v, set);
  // Best coordinate takes hi=0.5; second takes what is left above the
  // floors: 1 - 0.5 - 2*0.1 = 0.3 -> p1 = 0.1 + 0.2? No: greedy pours
  // (hi-lo)=0.4 into coord 0 (0.1->0.5), then remaining 0.2 into coord 1.
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.3, 1e-12);
  EXPECT_NEAR(p[2], 0.1, 1e-12);
  EXPECT_NEAR(p[3], 0.1, 1e-12);
  EXPECT_NEAR(max_linear_over_simplex(v, set),
              0.5 * 3 + 0.3 * 2 + 0.1 * 1 + 0.1 * 0, 1e-12);
}

TEST(MaxLinear, DominatesRandomFeasiblePoints) {
  const auto v = random_vector(6, 900);
  const SimplexSet set{0.05, 0.5};
  const scalar_t best = max_linear_over_simplex(v, set);
  for (int trial = 0; trial < 50; ++trial) {
    auto q = random_vector(6, static_cast<seed_t>(trial) + 1000, 1.0);
    project_capped_simplex(q, set);
    scalar_t val = 0;
    for (std::size_t i = 0; i < q.size(); ++i) val += q[i] * v[i];
    EXPECT_GE(best + 1e-7, val);
  }
}

}  // namespace
}  // namespace hm::algo
