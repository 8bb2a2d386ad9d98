// Cross-variant equivalence suite for the runtime SIMD dispatch layer.
//
// The determinism contract promises that every dispatched variant
// (generic / AVX2 / AVX-512) of every kernel is bit-identical: the
// rounding sequence is fixed at the source level and kernels_impl.inc is
// merely recompiled with wider register tiles. This suite enforces the
// promise at 0 ULP by calling each entry of detail::kernel_table(level)
// for every CPU-supported level against the generic baseline, over shape
// sweeps chosen to hit the register-tile interiors AND every tail case
// (sub-MR row tails, sub-NR column tails, sub-vector k tails, empty and
// singleton operands).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "rng/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/simd.hpp"
#include "tensor/vecops.hpp"

namespace hm::tensor {
namespace {

std::uint64_t bits(scalar_t x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Deterministic ill-conditioned-ish fill: mixed signs and magnitudes so
/// a reassociated reduction cannot round the same by accident.
std::vector<scalar_t> fill(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<scalar_t> v(n);
  for (auto& x : v) {
    const scalar_t u = 2 * static_cast<scalar_t>(gen.uniform()) - 1;
    const int mag = static_cast<int>(gen.uniform_index(13)) - 6;
    x = std::ldexp(u, mag);
  }
  return v;
}

std::vector<SimdLevel> supported_levels() {
  std::vector<SimdLevel> out;
  for (int l = 0; l < kNumSimdLevels; ++l) {
    const auto level = static_cast<SimdLevel>(l);
    if (simd_level_supported(level)) out.push_back(level);
  }
  return out;
}

void expect_vec_eq(const std::vector<scalar_t>& want,
                   const std::vector<scalar_t>& got,
                   const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(bits(want[i]), bits(got[i]))
        << label << "[" << i << "]: " << want[i] << " vs " << got[i];
  }
}

/// expect_vec_eq, except that a NaN matches any NaN. The unfused kernels
/// leave the order of a commutative add or multiply to the compiler, and
/// x86 returns the first operand's NaN, so when an input NaN meets one
/// made by Inf - Inf or 0 * Inf the sign of the result differs by tier
/// (the default tile shows it as well as the narrow one). Every non-NaN
/// bit still has to match.
void expect_vec_eq_any_nan(const std::vector<scalar_t>& want,
                           const std::vector<scalar_t>& got,
                           const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i]) && std::isnan(got[i])) continue;
    ASSERT_EQ(bits(want[i]), bits(got[i]))
        << label << "[" << i << "]: " << want[i] << " vs " << got[i];
  }
}

// Vector lengths hitting every unroll/tail combination for the widest
// variant (AVX-512 uses 8-lane vectors, unrolled pairs -> period 16).
const index_t kVecLens[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 257};

TEST(SimdDispatch, ActiveLevelIsSupported) {
  EXPECT_TRUE(simd_level_supported(active_simd_level()));
  EXPECT_TRUE(simd_level_supported(SimdLevel::kGeneric));
  EXPECT_STREQ(simd_level_name(SimdLevel::kGeneric), "generic");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx512), "avx512");
}

TEST(SimdDispatch, ElementwiseKernelsBitIdentical) {
  const auto& base = detail::kernel_table(SimdLevel::kGeneric);
  for (const SimdLevel level : supported_levels()) {
    const auto& kt = detail::kernel_table(level);
    const std::string tag = simd_level_name(level);
    for (const index_t n : kVecLens) {
      const auto sz = static_cast<std::size_t>(n);
      const auto x = fill(sz, 11 + sz);
      const auto z = fill(sz, 23 + sz);
      const scalar_t alpha = 0.7301, beta = -1.25;

      auto want = fill(sz, 37 + sz), got = want;
      base.axpy(alpha, x, want);
      kt.axpy(alpha, x, got);
      expect_vec_eq(want, got, tag + " axpy n=" + std::to_string(n));

      want = fill(sz, 41 + sz), got = want;
      base.axpby(alpha, x, beta, want);
      kt.axpby(alpha, x, beta, got);
      expect_vec_eq(want, got, tag + " axpby n=" + std::to_string(n));

      want = fill(sz, 43 + sz), got = want;
      base.axpy2(alpha, x, beta, z, want);
      kt.axpy2(alpha, x, beta, z, got);
      expect_vec_eq(want, got, tag + " axpy2 n=" + std::to_string(n));

      want = fill(sz, 47 + sz), got = want;
      base.scale(beta, want);
      kt.scale(beta, got);
      expect_vec_eq(want, got, tag + " scale n=" + std::to_string(n));
    }
  }
}

TEST(SimdDispatch, ReductionKernelsBitIdentical) {
  const auto& base = detail::kernel_table(SimdLevel::kGeneric);
  for (const SimdLevel level : supported_levels()) {
    const auto& kt = detail::kernel_table(level);
    const std::string tag = simd_level_name(level);
    for (const index_t n : kVecLens) {
      const auto sz = static_cast<std::size_t>(n);
      const auto x = fill(sz, 53 + sz);
      const auto y = fill(sz, 59 + sz);
      EXPECT_EQ(bits(base.dot(x, y)), bits(kt.dot(x, y)))
          << tag << " dot n=" << n;
    }
  }
}

// GEMM shapes: interiors and tails of every register tile in play
// (generic 8x6, AVX2 4x8, AVX-512 8x16), plus degenerate edges. Chosen
// so m % MR, n % NR, and k % VW are nonzero somewhere for every variant.
// The m <= 8, n >= 4m rows take gemm_nt's transposed path with a panel
// narrower than the default tile (m <= 4 on generic and AVX2, m <= 8 on
// AVX-512), including partial lane groups; the last row is the Fig. 4
// layer-1 forward (batch 8 by a 300x784 weight matrix).
struct GemmShape {
  index_t m, n, k;
};
const GemmShape kGemmShapes[] = {
    {1, 1, 1},  {1, 1, 7},   {2, 3, 5},    {3, 17, 9},  {5, 16, 8},
    {8, 6, 12}, {9, 7, 13},  {16, 16, 16}, {17, 33, 5}, {23, 19, 31},
    {4, 8, 64}, {33, 47, 3}, {64, 10, 11}, {1, 48, 24}, {1, 4, 9},
    {2, 8, 13}, {3, 12, 7},  {4, 16, 33},  {4, 70, 10}, {5, 20, 17},
    {5, 53, 6}, {8, 32, 19}, {8, 100, 33}, {8, 300, 784},
    // gemm_nt's narrow-output path (n within a tier's register budget,
    // m >= one lane block): the Fig. 3 evaluation forward and its tails.
    {75, 10, 784}, {107, 12, 7}, {9, 17, 13},  {256, 5, 1},
};

// Narrow-output gemm_nt shapes: n around every tier's register budget and
// panel width (kNR - 1 and kNR + 1 for NR = 6, 8, 16), m around every lane
// block (kVW - 1, kVW, kVW + 1 for VW = 2, 4, 8) and past a row band, and
// k with and without a whole transposed block.
std::vector<GemmShape> narrow_shapes() {
  std::vector<GemmShape> out;
  for (const index_t m : {1, 2, 3, 4, 5, 7, 8, 9, 75, 107, 256}) {
    for (const index_t n : {1, 2, 5, 7, 9, 10, 12, 15, 17}) {
      for (const index_t k : {1, 7, 784}) out.push_back({m, n, k});
    }
  }
  return out;
}

/// Fill with NaN, +Inf, -Inf and -0 planted at a stride, so every narrow
/// tile sees each special in some lane and some k step.
std::vector<scalar_t> fill_specials(std::size_t n, std::uint64_t seed,
                                    std::size_t stride) {
  const scalar_t inf = std::numeric_limits<scalar_t>::infinity();
  const scalar_t specials[] = {std::numeric_limits<scalar_t>::quiet_NaN(),
                               inf, -inf, -0.0};
  auto v = fill(n, seed);
  for (std::size_t i = seed % stride; i < n; i += stride) {
    v[i] = specials[(i / stride) % 4];
  }
  return v;
}

TEST(SimdDispatch, GemmVariantsBitIdentical) {
  const auto& base = detail::kernel_table(SimdLevel::kGeneric);
  for (const SimdLevel level : supported_levels()) {
    const auto& kt = detail::kernel_table(level);
    const std::string tag = simd_level_name(level);
    for (const auto& s : kGemmShapes) {
      const auto mm = static_cast<std::size_t>(s.m);
      const auto nn = static_cast<std::size_t>(s.n);
      const auto kk = static_cast<std::size_t>(s.k);
      const std::string at = " m=" + std::to_string(s.m) +
                             " n=" + std::to_string(s.n) +
                             " k=" + std::to_string(s.k);
      const auto a = fill(mm * kk, 67 + mm + nn);
      const auto b = fill(kk * nn, 71 + mm + nn);
      const auto bt = fill(nn * kk, 73 + mm + nn);
      const auto at_mat = fill(mm * kk, 79 + mm + nn);
      const auto bn = fill(mm * nn, 83 + mm + nn);

      for (const scalar_t beta : {scalar_t{0}, scalar_t{0.5}}) {
        auto want = fill(mm * nn, 89 + mm), got = want;
        base.gemm(ConstMatView(a.data(), s.m, s.k),
                  ConstMatView(b.data(), s.k, s.n),
                  MatView(want.data(), s.m, s.n), beta);
        kt.gemm(ConstMatView(a.data(), s.m, s.k),
                ConstMatView(b.data(), s.k, s.n),
                MatView(got.data(), s.m, s.n), beta);
        expect_vec_eq(want, got, tag + " gemm" + at);

        want = fill(mm * nn, 97 + mm), got = want;
        base.gemm_nt(ConstMatView(a.data(), s.m, s.k),
                     ConstMatView(bt.data(), s.n, s.k),
                     MatView(want.data(), s.m, s.n), beta);
        kt.gemm_nt(ConstMatView(a.data(), s.m, s.k),
                   ConstMatView(bt.data(), s.n, s.k),
                   MatView(got.data(), s.m, s.n), beta);
        expect_vec_eq(want, got, tag + " gemm_nt" + at);

        want = fill(kk * nn, 101 + mm), got = want;
        base.gemm_tn(ConstMatView(at_mat.data(), s.m, s.k),
                     ConstMatView(bn.data(), s.m, s.n),
                     MatView(want.data(), s.k, s.n), beta, 1);
        kt.gemm_tn(ConstMatView(at_mat.data(), s.m, s.k),
                   ConstMatView(bn.data(), s.m, s.n),
                   MatView(got.data(), s.k, s.n), beta, 1);
        expect_vec_eq(want, got, tag + " gemm_tn" + at);
      }
    }
  }
}

TEST(SimdDispatch, GemmTnAlphaEqualsScratchThenAxpby) {
  // gemm_tn's alpha/beta epilogue is the fused form of the local-SGD
  // update: writing A^T*B into scratch and then calling axpby must give
  // the same bits on every variant, including over NaN, +-Inf and -0
  // already in C (beta == 0 must overwrite them without reading).
  const scalar_t inf = std::numeric_limits<scalar_t>::infinity();
  const scalar_t specials[] = {std::numeric_limits<scalar_t>::quiet_NaN(),
                               inf, -inf, -0.0};
  for (const SimdLevel level : supported_levels()) {
    const auto& kt = detail::kernel_table(level);
    const std::string tag = simd_level_name(level);
    for (const auto& s : kGemmShapes) {
      const auto mm = static_cast<std::size_t>(s.m);
      const auto nn = static_cast<std::size_t>(s.n);
      const auto kk = static_cast<std::size_t>(s.k);
      const auto a = fill(mm * kk, 151 + mm + nn);
      const auto b = fill(mm * nn, 157 + mm + nn);
      auto c0 = fill(kk * nn, 163 + kk);
      for (std::size_t i = 0; i < c0.size(); i += 5) {
        c0[i] = specials[(i / 5) % 4];
      }
      for (const scalar_t alpha : {scalar_t{1}, scalar_t{-0.03}}) {
        for (const scalar_t beta : {scalar_t{0}, scalar_t{0.5}, scalar_t{1}}) {
          const std::string at =
              " m=" + std::to_string(s.m) + " n=" + std::to_string(s.n) +
              " k=" + std::to_string(s.k) + " alpha=" + std::to_string(alpha) +
              " beta=" + std::to_string(beta);
          std::vector<scalar_t> scratch(kk * nn);
          auto want = c0, got = c0;
          kt.gemm_tn(ConstMatView(a.data(), s.m, s.k),
                     ConstMatView(b.data(), s.m, s.n),
                     MatView(scratch.data(), s.k, s.n), 0, 1);
          kt.axpby(alpha, scratch, beta, want);
          kt.gemm_tn(ConstMatView(a.data(), s.m, s.k),
                     ConstMatView(b.data(), s.m, s.n),
                     MatView(got.data(), s.k, s.n), beta, alpha);
          expect_vec_eq(want, got, tag + " gemm_tn alpha" + at);
        }
      }
    }
  }
}

TEST(SimdDispatch, GemmNtFmaBitIdenticalAcrossVariantsAndMatchesNaiveFma) {
  // The explicitly-fused family has its own contract: every variant must
  // agree at 0 ULP, and all of them must equal the naive triple loop
  // whose accumulator update is a correctly-rounded fused multiply-add
  // (acc = fma(a, b, acc), k strictly increasing). It is a different
  // rounding sequence than gemm_nt, so it gets its own reference rather
  // than a cross-check against the unfused kernels.
  const auto& base = detail::kernel_table(SimdLevel::kGeneric);
  std::vector<GemmShape> shapes = narrow_shapes();
  shapes.insert(shapes.end(), std::begin(kGemmShapes), std::end(kGemmShapes));
  for (const SimdLevel level : supported_levels()) {
    const auto& kt = detail::kernel_table(level);
    const std::string tag = simd_level_name(level);
    for (const auto& s : shapes) {
      const auto mm = static_cast<std::size_t>(s.m);
      const auto nn = static_cast<std::size_t>(s.n);
      const auto kk = static_cast<std::size_t>(s.k);
      const std::string at = " m=" + std::to_string(s.m) +
                             " n=" + std::to_string(s.n) +
                             " k=" + std::to_string(s.k);
      const auto a = fill(mm * kk, 137 + mm + nn);
      const auto bt = fill(nn * kk, 139 + mm + nn);
      for (const scalar_t beta : {scalar_t{0}, scalar_t{0.5}}) {
        const auto c0 = fill(mm * nn, 149 + mm);
        auto want = c0, got = c0, naive = c0;
        base.gemm_nt_fma(ConstMatView(a.data(), s.m, s.k),
                         ConstMatView(bt.data(), s.n, s.k),
                         MatView(want.data(), s.m, s.n), beta, nullptr);
        kt.gemm_nt_fma(ConstMatView(a.data(), s.m, s.k),
                       ConstMatView(bt.data(), s.n, s.k),
                       MatView(got.data(), s.m, s.n), beta, nullptr);
        expect_vec_eq(want, got, tag + " gemm_nt_fma" + at);

        for (index_t i = 0; i < s.m; ++i) {
          for (index_t j = 0; j < s.n; ++j) {
            scalar_t acc = 0;
            for (index_t p = 0; p < s.k; ++p) {
              acc = std::fma(a[static_cast<std::size_t>(i * s.k + p)],
                             bt[static_cast<std::size_t>(j * s.k + p)], acc);
            }
            auto& c = naive[static_cast<std::size_t>(i * s.n + j)];
            c = beta == 0 ? acc : beta * c + acc;
          }
        }
        expect_vec_eq(naive, got, tag + " gemm_nt_fma vs naive fma" + at);
      }
    }
  }
}

TEST(SimdDispatch, GemmNtNarrowBitIdenticalWithSpecials) {
  // Both gemm_nt families on the narrow-output shapes, with NaN, +-Inf
  // and -0 in A and B (sparse enough that most outputs stay finite), must
  // agree with the generic table at 0 ULP on every tier: the transposed
  // tile only moves values, so each element keeps its k-ordered fold. The
  // fused family matches NaN bits too (each fma is one operation with a
  // fixed operand order); the unfused one up to the NaN's sign (see
  // expect_vec_eq_any_nan).
  const auto& base = detail::kernel_table(SimdLevel::kGeneric);
  for (const SimdLevel level : supported_levels()) {
    const auto& kt = detail::kernel_table(level);
    const std::string tag = simd_level_name(level);
    for (const auto& s : narrow_shapes()) {
      const auto mm = static_cast<std::size_t>(s.m);
      const auto nn = static_cast<std::size_t>(s.n);
      const auto kk = static_cast<std::size_t>(s.k);
      const auto av = fill_specials(mm * kk, 167 + mm + nn, 97);
      const auto bv = fill_specials(nn * kk, 173 + mm + kk, 89);
      const ConstMatView am(av.data(), s.m, s.k), bm(bv.data(), s.n, s.k);
      for (const scalar_t beta : {scalar_t{0}, scalar_t{0.5}}) {
        const std::string at =
            " m=" + std::to_string(s.m) + " n=" + std::to_string(s.n) +
            " k=" + std::to_string(s.k) + " beta=" + std::to_string(beta);
        const auto c0 = fill_specials(mm * nn, 179 + mm, 11);
        auto want = c0, got = c0;
        base.gemm_nt(am, bm, MatView(want.data(), s.m, s.n), beta);
        kt.gemm_nt(am, bm, MatView(got.data(), s.m, s.n), beta);
        expect_vec_eq_any_nan(want, got, tag + " narrow gemm_nt" + at);
        want = c0;
        got = c0;
        base.gemm_nt_fma(am, bm, MatView(want.data(), s.m, s.n), beta,
                         nullptr);
        kt.gemm_nt_fma(am, bm, MatView(got.data(), s.m, s.n), beta, nullptr);
        expect_vec_eq(want, got, tag + " narrow gemm_nt_fma" + at);
      }
    }
  }
}

TEST(SimdDispatch, PublicEntryPointsUseActiveTable) {
  // The public wrappers must agree bitwise with the active table (they
  // ARE the active table; this guards against a wrapper bypassing
  // dispatch and silently pinning one variant).
  const auto& kt = detail::active_kernel_table();
  const auto x = fill(257, 5), y = fill(257, 6);
  EXPECT_EQ(bits(dot(x, y)), bits(kt.dot(x, y)));
  auto a = fill(257, 7), b = a;
  axpy(0.5, x, a);
  kt.axpy(0.5, x, b);
  expect_vec_eq(a, b, "public axpy");
}

}  // namespace
}  // namespace hm::tensor
