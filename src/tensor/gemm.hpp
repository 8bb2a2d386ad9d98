// Matrix multiply kernels for the NN forward/backward passes.
//
// Shapes follow the row-major convention used across hm::nn:
//   C(m x n) (+)= A(m x k) * B(k x n)            — gemm
//   C(m x n) (+)= A(m x k) * B(n x k)^T          — gemm_nt
//   C(k x n) (+)= A(m x k)^T * B(m x n)          — gemm_tn
//
// Implementation: a register-tiled micro-kernel accumulates each C(i, j)
// over the reduction index in strictly increasing order, then applies the
// output rule once per element: C = alpha*acc + beta*C (beta == 0
// overwrites without reading C; alpha is 1 except through gemm_tn).
// gemm/gemm_tn read B in place (its columns are already contiguous);
// gemm_nt packs B^T once per call into k-major panels reused across every
// row block of C — or, when A has only a handful of rows, computes the
// transposed product with the small side packed instead, in panels of the
// fewest whole vector lane groups that cover it (taller tiles keep the
// accumulator count). When C is narrow (n within the tier's register
// budget, at least one vector's width of rows, and n not a whole number
// of panels), gemm_nt packs nothing: it transposes blocks of A's rows in
// registers so the lanes hold rows, and broadcasts B. The tile geometry
// is chosen from the shape alone.
// Every kernel runs on the calling thread, except gemm_nt_fma, which
// splits row blocks of C across the pool its caller passes (null means
// serial) above a flop threshold. Writes are disjoint per row, and each
// C(i, j) folds its k-terms in the same fixed order no matter how the rows
// are distributed or how wide the tile is, so results are bit-identical
// for any pool size and SIMD tier and match the naive triple loop exactly
// (FMA contraction is disabled build-wide; see vecops.hpp for the
// determinism contract).
// One exception: a NaN output's sign. x86 returns the first operand's NaN,
// the compiler orders the operands of the unfused add and multiply, and
// a NaN made by Inf - Inf or 0 * Inf is negative, so where such a NaN meets
// an input NaN, the unfused kernels' NaN sign may differ by tier. The
// fused family (gemm_nt_fma) matches NaN bits as well on every shape the
// equivalence suites test.
#pragma once

#include <span>

#include "tensor/matrix.hpp"

namespace hm::parallel {
class ThreadPool;
}  // namespace hm::parallel

namespace hm::tensor {

/// If beta == 0 the output is overwritten, else C = beta*C + A*B.
void gemm(ConstMatView a, ConstMatView b, MatView c, scalar_t beta = 0);

/// C = beta*C + A * B^T.
void gemm_nt(ConstMatView a, ConstMatView b, MatView c, scalar_t beta = 0);

/// C = alpha * A^T*B + beta*C, evaluated per element as alpha*acc +
/// beta*c with acc the k-ordered sum — the rounding sequence of writing
/// A^T*B into scratch and then calling axpby(alpha, scratch, beta, C), in
/// one pass over C. This is how a local-SGD step updates a weight matrix
/// in place (alpha = -eta, beta = the decay factor). alpha == 1 gives
/// exactly the unscaled product. An empty reduction (A with no rows)
/// leaves C = beta*C.
void gemm_tn(ConstMatView a, ConstMatView b, MatView c, scalar_t beta = 0,
             scalar_t alpha = 1);

/// C = beta*C + A * B^T with an explicitly FUSED accumulator update:
/// acc = fma(a, b, acc), one rounding per term instead of two. IEEE-754
/// fusedMultiplyAdd is exactly specified, so this kernel family is still
/// deterministic and bit-identical across every SIMD variant, tile shape
/// and pool size (the equivalence suite covers it) — but it is a
/// DIFFERENT rounding sequence from gemm_nt, not a drop-in replacement.
/// Use it only where the caller declares rounding freedom: evaluation
/// forwards (Model::loss / Model::predict), never a gradient path whose
/// bits an oracle comparison pins down. This is unrelated to compiler FP
/// contraction, which remains disabled build-wide: the fusion here is
/// requested per call site. A large multiply splits its row bands across
/// `pool`; null runs it on the caller.
void gemm_nt_fma(ConstMatView a, ConstMatView b, MatView c, scalar_t beta = 0,
                 parallel::ThreadPool* pool = nullptr);

}  // namespace hm::tensor
