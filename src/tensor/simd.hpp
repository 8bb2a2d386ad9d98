// Runtime SIMD dispatch for the tensor kernels.
//
// The determinism contract (vecops.hpp, gemm.hpp) fixes every kernel's
// per-element rounding sequence at the source level: elementwise ops are
// one rounding per element, reductions use 8 named accumulator lanes with
// a fixed combine tree, and the GEMM micro-kernel folds each C(i, j) over
// the reduction index in strictly increasing order regardless of tile
// shape. Because none of that depends on the vector width the compiler
// targets, the SAME source compiled with -mavx2 / -mavx512f is
// bit-identical to the generic build — just faster. Dispatch therefore
// needs no intrinsics at all: kernels_impl.inc is compiled three times
// (generic baseline, AVX2, AVX-512) into distinct namespaces with
// per-ISA register-tile shapes, each TU exports a function-pointer table,
// and the best CPU-supported table is selected once at startup.
//
// The HM_SIMD environment variable ("generic" | "avx2" | "avx512")
// overrides detection for testing; a requested level the CPU cannot run
// falls back to the best supported one (tests read active_simd_level()
// to notice and skip). All tables are always linked in, so the
// equivalence suite can bit-compare every variant in one process via
// detail::kernel_table(level) even when dispatch picked another.
#pragma once

#include "tensor/gemm.hpp"

namespace hm::tensor {

/// Dispatched kernel variants, ordered by capability.
enum class SimdLevel : int { kGeneric = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kNumSimdLevels = 3;

/// The variant every tensor entry point forwards to. Resolved once (CPU
/// detection + HM_SIMD override) on first use and constant afterwards.
SimdLevel active_simd_level();

/// Whether the running CPU can execute the given variant. kGeneric is
/// always true; on non-x86 or unknown compilers only kGeneric is.
bool simd_level_supported(SimdLevel level);

/// "generic" / "avx2" / "avx512".
const char* simd_level_name(SimdLevel level);

namespace detail {

/// Function-pointer table of every dispatched kernel. One instance per
/// compiled variant; signatures mirror the public entry points, and each
/// implementation performs the same HM_CHECK argument validation the
/// public functions always did.
struct KernelTable {
  void (*axpy)(scalar_t, ConstVecView, VecView);
  void (*axpby)(scalar_t, ConstVecView, scalar_t, VecView);
  void (*axpy2)(scalar_t, ConstVecView, scalar_t, ConstVecView, VecView);
  void (*scale)(scalar_t, VecView);
  scalar_t (*dot)(ConstVecView, ConstVecView);
  void (*gemm)(ConstMatView, ConstMatView, MatView, scalar_t);
  void (*gemm_nt)(ConstMatView, ConstMatView, MatView, scalar_t);
  void (*gemm_tn)(ConstMatView, ConstMatView, MatView, scalar_t, scalar_t);
  void (*gemm_nt_fma)(ConstMatView, ConstMatView, MatView, scalar_t,
                      parallel::ThreadPool*);
};

/// Table for one specific variant (the equivalence tests iterate these;
/// calling a table the CPU cannot execute is undefined — check
/// simd_level_supported first).
const KernelTable& kernel_table(SimdLevel level);

/// Table for active_simd_level().
const KernelTable& active_kernel_table();

// Per-variant TU entry points (kernels_generic/avx2/avx512.cpp).
const KernelTable& kernel_table_generic();
const KernelTable& kernel_table_avx2();
const KernelTable& kernel_table_avx512();

}  // namespace detail

}  // namespace hm::tensor
