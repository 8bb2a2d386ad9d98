// Public BLAS-1 entry points. The arithmetic lives in kernels_impl.inc,
// compiled once per SIMD variant (see simd.hpp); these wrappers forward
// to the table selected at startup. Argument validation happens inside
// the kernels themselves, so the forwards add nothing but an indirect
// call. Order-insensitive helpers (copy, set_zero, max, argmax) have no
// variant-dependent codegen worth dispatching and stay here.
#include "tensor/vecops.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/simd.hpp"

namespace hm::tensor {

void axpy(scalar_t alpha, ConstVecView x, VecView y) {
  detail::active_kernel_table().axpy(alpha, x, y);
}

void axpby(scalar_t alpha, ConstVecView x, scalar_t beta, VecView y) {
  detail::active_kernel_table().axpby(alpha, x, beta, y);
}

void axpy2(scalar_t a0, ConstVecView x0, scalar_t a1, ConstVecView x1,
           VecView y) {
  detail::active_kernel_table().axpy2(a0, x0, a1, x1, y);
}

void scale(scalar_t alpha, VecView x) {
  detail::active_kernel_table().scale(alpha, x);
}

scalar_t dot(ConstVecView x, ConstVecView y) {
  return detail::active_kernel_table().dot(x, y);
}

scalar_t nrm2(ConstVecView x) { return std::sqrt(dot(x, x)); }

void copy(ConstVecView x, VecView y) {
  HM_CHECK(x.size() == y.size());
  std::copy(x.begin(), x.end(), y.begin());
}

void set_zero(VecView x) { std::fill(x.begin(), x.end(), scalar_t{0}); }

scalar_t max(ConstVecView x) {
  HM_CHECK(!x.empty());
  return *std::max_element(x.begin(), x.end());
}

index_t argmax(ConstVecView x) {
  HM_CHECK(!x.empty());
  return static_cast<index_t>(
      std::distance(x.begin(), std::max_element(x.begin(), x.end())));
}

void project_l2_ball(VecView x, scalar_t radius) {
  if (radius <= 0) return;  // W = R^d
  const scalar_t norm = nrm2(x);
  if (std::isinf(norm)) {
    // The squared norm overflowed. With every coordinate finite the norm
    // is really big * sqrt(sum (x_i/big)^2), and taking radius/norm as 0
    // would erase x: recompute it scaled by the largest magnitude. Only
    // this rare branch pays for the extra passes, so the usual path keeps
    // its bits. An infinite coordinate keeps the infinite norm.
    scalar_t big = 0;
    for (const scalar_t v : x) big = std::max(big, std::abs(v));
    if (std::isfinite(big)) {
      scalar_t ss = 0;
      for (const scalar_t v : x) ss += (v / big) * (v / big);
      const scalar_t rel = std::sqrt(ss);  // norm / big, in [1, sqrt(n)]
      if (rel > radius / big) scale((radius / big) / rel, x);
      return;
    }
  }
  if (norm > radius) scale(radius / norm, x);
}

}  // namespace hm::tensor
