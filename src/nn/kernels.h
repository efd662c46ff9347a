/**
 * @file
 * Cache-blocked, thread-parallel compute kernels under the autograd ops.
 *
 * Every kernel distributes disjoint output row (or batch) ranges across
 * the global ThreadPool and keeps the per-element floating-point
 * accumulation order identical to the naive i-k-j loops it replaced —
 * k-blocks are visited in increasing order, and each output element is
 * owned by exactly one thread — so results are bit-identical for any
 * thread count (no atomics, no cross-thread reductions) and to the
 * original scalar code.
 *
 * Each GEMM form has a register-tiled path that its shape and the CPU
 * select (no option, flag or environment variable), and a row kernel
 * for everything else. A tile is 4 rows x two vectors of columns. On
 * x86-64 the build stays at x86-64-v3 (AVX2 + FMA), and each *Rows
 * kernel below also holds 4 x 32 tiles of two 16-float vectors,
 * compiled for AVX-512 alone: when the CPU reports avx512f (checked
 * once per process), they compute the first n & ~31 columns (k & ~31
 * for dA), and the 4 x 16 tiles, the 4 x 8 tile and the scalar
 * columns below take the rest; otherwise those take every column.
 *
 *  - forward (gemmRows): at least 4 rows and n >= 8. A 4-row x
 *    16-column C tile (4 x 8 for the next 8 columns when n % 16 >= 8,
 *    as in the attention context's n = 8) stays in registers across
 *    the whole ascending-k loop, with the row kernel's `acc += a * b`
 *    from acc = 0; the last n % 8 columns (the attention scores'
 *    n = 25 has one) take 4-row scalar chains of the same FMAs.
 *    n = 1 (the task head's fc2) runs 8 rows in row lanes (nn/lanes.h,
 *    AVX2 + FMA builds), one row's chain per lane.
 *  - dB (gemmTN, bmmTN): n >= 8. A 4 x 16 GB tile (4 x 8 for the next
 *    8 columns, as in the attention's dV) is loaded, kept in registers
 *    across an ascending block of m with the same `acc += a * g`, and
 *    stored; blocks run in ascending order. The last n % 8 columns
 *    (the attention's dK has one) take 4-row scalar chains of the same
 *    FMAs. n = 1 (fc2) holds 8 GB rows in one vector, one row's chain
 *    per lane; gemmTN then starts its parallel chunks on 8-row
 *    boundaries.
 *  - dA (gemmNT, bmmNT; x86-64 without ASan/TSan): at least 4 rows and
 *    k >= 8. B^T is packed once per call (per batch) into the calling
 *    thread's reused arena; each element of a 4 x 16 (or 4 x 8) GA
 *    tile over the first k & ~7 columns sums its products over
 *    ascending n from 0, and the sum is then added into GA; the other
 *    k % 8 columns (the attention's dP has one) run the row kernel.
 *    The row kernel's dot product compiles to rounded vector multiplies
 *    and in-order scalar adds for j < (n & ~3) and to FMAs in its
 *    scalar tail, so the tile rounds each product below n & ~3 and
 *    fuses from there on (the attention's dQ, n = 25, fuses its last
 *    product; fc2's dA, n = 1, its only one), where the other two
 *    tiles contract to FMA throughout exactly as their row kernels do.
 *
 * So every output element sees the same float operations in the same
 * order on either path, and the tiles change wall clock only. A wider
 * vector only puts more columns side by side: each element keeps its
 * own chain, so the 4 x 32 tiles give every bit the 4 x 16 ones do, and
 * the CPU changes which code computes an element, never its bits. Every
 * row edge, 2..7-column forwards and dBs, and dA with k < 8 stay on
 * the row kernels, which take `__restrict`-qualified pointers (the
 * operands never alias) and unroll four-wide with a single sequential
 * accumulator chain per output element. Parallel chunks start on a
 * tile-row boundary, so the thread count never changes which code
 * computes an element. tests/test_gemm_digest.cc
 * pins the output bits of every form over every tile and edge case,
 * and checks every tile against one-row calls.
 *
 * The forward micro-kernels (gemmRows / bmm's per-batch body) are
 * exported and marked noinline: the fused inference path (nn/infer_ops,
 * models/fused_infer) calls the *same machine code* as the autograd
 * ops, which is what makes "fused forward == interpreted forward" an
 * exact bitwise statement instead of a numerical-tolerance one. The
 * CPU check sits inside the *Rows kernels, never at a call site, so
 * both paths take the same tiles on any one host.
 */
#pragma once

#include <cstdint>

/** Non-aliasing pointer qualifier (GCC/Clang/MSVC spelling). */
#define TLP_RESTRICT __restrict

/** Force one shared code instance for bit-identity across call sites. */
#if defined(__GNUC__) || defined(__clang__)
#define TLP_NOINLINE __attribute__((noinline))
#else
#define TLP_NOINLINE
#endif

namespace tlp::nn::kern {

/**
 * Scalar work (~flops) a chunk must amortize before a loop is split
 * across threads; small tensors stay on the calling thread.
 */
constexpr int64_t kParallelGrainWork = 16 * 1024;

/** Rows per chunk so each chunk holds ~kParallelGrainWork scalar ops. */
int64_t rowGrain(int64_t work_per_row);

/**
 * Serial micro-kernel: rows [i0, i1) of C[m, n] = A[m, k] * B[k, n], C
 * fully overwritten: 4-row register tiles (n >= 8; 32 columns wide on
 * an AVX-512 CPU) or 8-row lanes (n = 1) where the shape allows, the
 * k-blocked row kernel for the rest. Per output element the k
 * accumulation order is globally increasing — identical to naive i-k-j.
 * Exported (and never inlined) so the fused inference path reuses this
 * exact code; all three operands must be disjoint.
 */
TLP_NOINLINE void gemmRows(const float *TLP_RESTRICT a,
                           const float *TLP_RESTRICT b,
                           float *TLP_RESTRICT c, int64_t i0, int64_t i1,
                           int64_t k, int64_t n);

/** C[m, n] = A[m, k] * B[k, n] (C fully overwritten). */
void gemm(const float *a, const float *b, float *c, int64_t m, int64_t k,
          int64_t n);

/** GA[m, k] += GC[m, n] * B[k, n]^T (the dA = dC * B^T update). */
void gemmNT(const float *gc, const float *b, float *ga, int64_t m,
            int64_t k, int64_t n);

/** GB[k, n] += A[m, k]^T * GC[m, n] (the dB = A^T * dC update). */
void gemmTN(const float *a, const float *gc, float *gb, int64_t m,
            int64_t k, int64_t n);

/** C[s] = A[s] * B[s] for s in [0, batch) (C fully overwritten). */
void bmm(const float *a, const float *b, float *c, int64_t batch,
         int64_t m, int64_t k, int64_t n);

/** GA[s] += GC[s] * B[s]^T for s in [0, batch). */
void bmmNT(const float *gc, const float *b, float *ga, int64_t batch,
           int64_t m, int64_t k, int64_t n);

/** GB[s] += A[s]^T * GC[s] for s in [0, batch). */
void bmmTN(const float *a, const float *gc, float *gb, int64_t batch,
           int64_t m, int64_t k, int64_t n);

} // namespace tlp::nn::kern
