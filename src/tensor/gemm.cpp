// Public GEMM entry points. The cache-blocked, register-tiled machinery
// lives in kernels_impl.inc, compiled once per SIMD variant with a
// per-ISA micro-tile shape (see simd.hpp); these wrappers forward to the
// table selected at startup. Shape validation happens inside the kernels
// themselves, so the forwards add nothing but an indirect call. The
// per-element reduction order is tile-shape-independent, so every variant
// is bit-identical (tests/test_tensor.cpp enforces 0 ULP).
#include "tensor/gemm.hpp"

#include "tensor/simd.hpp"

namespace hm::tensor {

void gemm(ConstMatView a, ConstMatView b, MatView c, scalar_t beta) {
  detail::active_kernel_table().gemm(a, b, c, beta);
}

void gemm_nt(ConstMatView a, ConstMatView b, MatView c, scalar_t beta) {
  detail::active_kernel_table().gemm_nt(a, b, c, beta);
}

void gemm_tn(ConstMatView a, ConstMatView b, MatView c, scalar_t beta,
             scalar_t alpha) {
  detail::active_kernel_table().gemm_tn(a, b, c, beta, alpha);
}

void gemm_nt_fma(ConstMatView a, ConstMatView b, MatView c, scalar_t beta,
                 parallel::ThreadPool* pool) {
  detail::active_kernel_table().gemm_nt_fma(a, b, c, beta, pool);
}

}  // namespace hm::tensor
