/**
 * @file
 * Raw-pointer forward row kernels shared by the autograd ops and the
 * fused inference path (DESIGN.md §13).
 *
 * The fused-forward equivalence contract says FusedTlpInference must
 * reproduce the interpreted TlpNet forward bit-for-bit. For ops whose
 * expression contains a multiply feeding an add (gemm, layer-norm's
 * affine epilogue) the compiler's FMA contraction choice could in
 * principle differ between two source copies, so those loops exist
 * exactly once: the noinline functions here (and kern::gemmRows) are
 * the single compiled instance both paths call. Contraction-free maps
 * (bias add, relu, residual add, scale-by-constant, position sums) are
 * safe to restate at the call site and are provided as plain inline
 * helpers for the fused path's convenience.
 *
 * All functions are serial over their row range — callers own the
 * parallel partitioning (ops.cc via parallelRows, fused_infer via its
 * per-block arena loop) — and rows are independent, which is what makes
 * any batching/blocking of the forward bit-identical. softmaxRows and
 * layerNormRows run groups of eight rows in row lanes (nn/lanes.h) on
 * AVX2 + FMA builds; a row in a lane gets the bits it gets alone.
 */
#pragma once

#include <cstdint>

#include "nn/kernels.h"

namespace tlp::nn::iops {

/**
 * y[i] = std::exp(x[i]) over [0, n), bit for bit: eight at a time
 * through the vector expf (a port of glibc 2.36's expf) where the
 * build targets AVX2 + FMA, std::exp for the rest.
 */
TLP_NOINLINE void expInto(const float *x, float *y, int64_t n);

/**
 * Rows [r0, r1) of a row-wise softmax over @p cols columns, matching
 * ops.cc softmaxLastDim: max over the row, exp(x - max) summed in
 * ascending column order, then one multiply by the reciprocal sum.
 * When @p causal is non-zero, row r keeps only its first
 * r % causal + 1 columns (the mask of a [.., causal, causal] score
 * tensor) and writes 0 to the rest. In-place operation
 * (@p out == @p in) is allowed.
 *
 * Without a mask, groups of eight rows of at most 256 columns run in
 * row lanes (nn/lanes.h) with expInto's exp; the rows left over run one
 * at a time. Either way a row gets the same bits.
 */
TLP_NOINLINE void softmaxRows(const float *in, float *out, int64_t r0,
                              int64_t r1, int64_t cols,
                              int64_t causal = 0);

/**
 * Rows [r0, r1) of layer normalization with affine, matching ops.cc
 * layerNorm: mean and biased variance accumulated in ascending column
 * order, inv_std = 1/sqrt(var + eps), out = (x - mean)*inv_std*g + b.
 * When @p stats is non-null, (mean, inv_std) are recorded at
 * stats[2*r] / stats[2*r+1] for the backward pass.
 *
 * On an FMA target the variance adds a rounded d*d below column
 * cols & ~3 and fuses d*d into the add from there on, and the affine
 * step is fma((x - mean)*inv_std, g, b): the operations the golden
 * digests pin, spelled out so that every build and both paths keep
 * them. Groups of eight rows of at most 256 columns run in row lanes.
 */
TLP_NOINLINE void layerNormRows(const float *in, const float *gamma,
                                const float *beta, float *out,
                                float *stats, int64_t r0, int64_t r1,
                                int64_t cols, float eps);

/**
 * Rows [r0, r1) of out = x + bias[c] (contraction-free). In-place
 * operation (@p out == @p x) is allowed, so only @p bias carries the
 * no-alias promise.
 */
inline void
addBiasRows(const float *x, const float *TLP_RESTRICT bias,
            float *out, int64_t r0, int64_t r1, int64_t cols)
{
    for (int64_t r = r0; r < r1; ++r)
        for (int64_t c = 0; c < cols; ++c)
            out[r * cols + c] = x[r * cols + c] + bias[c];
}

/**
 * Rows [r0, r1) of out = relu(x + bias[c]); bitwise equal to
 * addBiasRows followed by an elementwise relu (an add then a compare —
 * nothing the compiler can contract). In-place (@p out == @p x) is
 * allowed.
 */
inline void
addBiasReluRows(const float *x,
                const float *TLP_RESTRICT bias, float *out,
                int64_t r0, int64_t r1, int64_t cols)
{
    for (int64_t r = r0; r < r1; ++r) {
        for (int64_t c = 0; c < cols; ++c) {
            const float v = x[r * cols + c] + bias[c];
            out[r * cols + c] = v > 0.0f ? v : 0.0f;
        }
    }
}

/**
 * out[i] = a[i] + b[i] over [0, n) (the residual add). @p out may
 * alias either operand.
 */
inline void
addInto(const float *a, const float *b,
        float *out, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        out[i] = a[i] + b[i];
}

/** x[i] *= factor over [0, n) (a single multiply per element). */
inline void
scaleInPlace(float *x, int64_t n, float factor)
{
    for (int64_t i = 0; i < n; ++i)
        x[i] *= factor;
}

/**
 * out[r] = sum over cols of x[r, c], ascending c (matches sumAxis1's
 * add-only accumulation).
 */
inline void
sumRows(const float *TLP_RESTRICT x, float *TLP_RESTRICT out, int64_t r0,
        int64_t r1, int64_t cols)
{
    for (int64_t r = r0; r < r1; ++r) {
        float sum = 0.0f;
        for (int64_t c = 0; c < cols; ++c)
            sum += x[r * cols + c];
        out[r] = sum;
    }
}

} // namespace tlp::nn::iops
