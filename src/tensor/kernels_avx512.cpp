// AVX-512 kernel variant: same source as the generic build (see
// kernels_impl.inc), compiled with -mavx512f and 512-bit preferred
// vector width so the 8-double vec_t lane groups become single zmm
// operations. 8x16 register tile = 16 zmm accumulators (two per row) +
// 2 panel vectors, half the 32-register file left for operands (shape
// picked empirically: ~1.4x over 8x8 on the Fig. 3/4 GEMM sizes). When
// gemm_nt's transposed path packs at most 8 rows (the batch-8 MLP
// forward), the panel is one lane group wide and the tile 16x8: the same
// 16 accumulators, none of them spent on zero padding. gemm_nt's
// narrow-output path keeps up to 17 columns of C in registers: 17
// accumulators beside the 8-row transposed block of A; at 18 columns gcc
// spills and the path lost to the default tile (64 x n x 784, measured).
#define HM_KERNEL_NS avx512_kernels
#define HM_KERNEL_TABLE kernel_table_avx512
#define HM_KERNEL_MR 8
#define HM_KERNEL_NR 16
#define HM_KERNEL_VW 8
#define HM_KERNEL_NARROW_N 17
#include "tensor/kernels_impl.inc"
