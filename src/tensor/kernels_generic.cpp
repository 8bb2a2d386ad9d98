// Baseline kernel variant: compiled with the project-wide target (x86-64
// SSE2 or whatever the platform default is). Tile shape matches the
// original single-variant kernels, so this table IS the historical
// behavior — and, per the determinism contract, the other variants are
// bit-identical to it. gemm_nt's narrow-output path keeps up to 9 columns
// of C in registers; at 10 and 11 it no longer beat the default tile
// (64 x n x 784, measured).
#define HM_KERNEL_NS generic_kernels
#define HM_KERNEL_TABLE kernel_table_generic
#define HM_KERNEL_MR 8
#define HM_KERNEL_NR 6
#define HM_KERNEL_VW 2
#define HM_KERNEL_NARROW_N 9
#include "tensor/kernels_impl.inc"
