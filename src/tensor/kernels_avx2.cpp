// AVX2 kernel variant: same source as the generic build (see
// kernels_impl.inc), compiled with -mavx2 so the 4-double vec_t lane
// groups become single ymm operations. 4x8 register tile = 8 ymm
// accumulators + 2 panel vectors, comfortably inside the 16-register
// file (shape picked empirically; wider tiles spill). gemm_nt's
// narrow-output path keeps up to 12 columns of C in registers beside the
// 4-row transposed block of A; it beat the default tile at every n up to
// 12 (64 x n x 784, measured).
#define HM_KERNEL_NS avx2_kernels
#define HM_KERNEL_TABLE kernel_table_avx2
#define HM_KERNEL_MR 4
#define HM_KERNEL_NR 8
#define HM_KERNEL_VW 4
#define HM_KERNEL_NARROW_N 12
#include "tensor/kernels_impl.inc"
