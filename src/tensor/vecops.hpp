// BLAS-1 style kernels on contiguous spans. These are the hot loops of
// federated aggregation (axpy/scale over flat parameter vectors) and the
// local-SGD update.
//
// Implementation contract (the "determinism contract" relied on by the
// kernel-equivalence tests and by the cross-thread-count reproducibility
// guarantee):
//
//  * Elementwise kernels (axpy, axpby, axpy2, scale, copy) perform exactly
//    one rounding sequence per element, identical to the obvious scalar
//    loop, so they are bit-identical to a naive reference on any ISA.
//  * The reduction kernel (dot, and nrm2 through it) accumulates into
//    kLanes = 8 fixed lanes — lane j folds the elements with index ≡ j
//    (mod 8), in increasing index order — and combines the lanes with the
//    fixed pairwise tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). The lane count is a
//    source-level constant, so results do not depend on the vector width
//    the compiler targets, on -march flags, or on thread count.
//  * The build disables FMA contraction (-ffp-contract=off) so a*b+c is
//    two roundings everywhere, matching the scalar references.
#pragma once

#include "tensor/matrix.hpp"

namespace hm::tensor {

/// Number of independent accumulator lanes used by the reduction kernels.
/// Part of the public determinism contract (see header comment).
inline constexpr std::size_t kLanes = 8;

/// y += alpha * x
void axpy(scalar_t alpha, ConstVecView x, VecView y);

/// y = alpha * x + beta * y. Fuses the scale-then-axpy pair of the
/// decayed SGD update into one pass; for beta != 0 the result is
/// bit-identical to scale(beta, y); axpy(alpha, x, y). beta == 0 is
/// pure overwrite by design: no 0*y term is evaluated, so
/// uninitialized/NaN y is permitted (and, unlike the scale/axpy chain,
/// NaN or -0.0 in y cannot leak into the result).
void axpby(scalar_t alpha, ConstVecView x, scalar_t beta, VecView y);

/// y += a0 * x0 + a1 * x1, evaluated per element as (y + a0*x0) + a1*x1.
/// Bit-identical to axpy(a0, x0, y); axpy(a1, x1, y) but with one pass
/// over y instead of two (the aggregation hot loop).
void axpy2(scalar_t a0, ConstVecView x0, scalar_t a1, ConstVecView x1,
           VecView y);

/// x *= alpha
void scale(scalar_t alpha, VecView x);

/// <x, y> (8-lane fixed-order reduction; see header contract)
scalar_t dot(ConstVecView x, ConstVecView y);

/// ||x||_2
scalar_t nrm2(ConstVecView x);

/// y = x (sizes must match)
void copy(ConstVecView x, VecView y);

/// x = 0
void set_zero(VecView x);

/// max entry (requires non-empty)
scalar_t max(ConstVecView x);

/// index of the max entry (first on ties; requires non-empty)
index_t argmax(ConstVecView x);

/// Project x onto the L2 ball of the given radius centered at the origin.
/// radius <= 0 means "unconstrained" (identity), matching W = R^d. A
/// finite x whose squared norm overflows is still scaled onto the sphere
/// (the norm is recomputed with rescaling), not set to zero.
void project_l2_ball(VecView x, scalar_t radius);

}  // namespace hm::tensor
