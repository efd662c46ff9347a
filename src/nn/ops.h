/**
 * @file
 * Differentiable tensor operations.
 *
 * All functions build autograd graph nodes eagerly. Shapes are validated;
 * broadcasting is intentionally limited to the bias pattern (a 1-D tensor
 * added over the last axis) to keep gradients simple and fast.
 */
#pragma once

#include "nn/tensor.h"

namespace tlp::nn {

/** Elementwise sum of same-shaped tensors. */
Tensor add(const Tensor &a, const Tensor &b);

/** x + bias where bias is 1-D over the last axis of x. */
Tensor addBias(const Tensor &x, const Tensor &bias);

/** Elementwise product of same-shaped tensors. */
Tensor mul(const Tensor &a, const Tensor &b);

/** x * constant. */
Tensor scale(const Tensor &x, float factor);

/**
 * Matrix product: [..., k] x [k, n] -> [..., n]. A's leading dims
 * flatten into the GEMM's rows (no copy) and the result keeps them.
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/** Batched matrix product: [B, m, k] x [B, k, n] -> [B, m, n]. */
Tensor bmm(const Tensor &a, const Tensor &b);

/** Rectified linear unit. */
Tensor relu(const Tensor &x);

/** Hyperbolic tangent. */
Tensor tanhT(const Tensor &x);

/** Logistic sigmoid. */
Tensor sigmoidT(const Tensor &x);

/** Softmax over the last axis. */
Tensor softmaxLastDim(const Tensor &x);

/**
 * Causally masked softmax for square attention scores [..., L, L]: row r
 * only attends to columns <= r (used by the GPT-style pretraining of
 * Table 8).
 */
Tensor softmaxLastDimCausal(const Tensor &x);

/** Swap the last two axes (rank >= 2). */
Tensor transposeLast2(const Tensor &x);

/** Permute a rank-4 tensor [a, b, c, d] -> [a, c, b, d]. */
Tensor permute0213(const Tensor &x);

/** Reshape (copying view). */
Tensor reshape(const Tensor &x, const std::vector<int> &shape);

/** Sum of all elements -> scalar. */
Tensor sumAll(const Tensor &x);

/** Row-sum of a 2-D tensor: [n, m] -> [n]. */
Tensor sumAxis1(const Tensor &x);

/** Select index @p t of axis 1: [n, l, d] -> [n, d]. */
Tensor selectAxis1(const Tensor &x, int t);

/** Stack [n, d] slices into [n, len(slices), d]. */
Tensor stackAxis1(const std::vector<Tensor> &slices);

/** Column slice of a 2-D tensor: [n, m] -> [n, len]. */
Tensor sliceCols(const Tensor &x, int start, int len);

/** Layer normalization over the last axis with affine params. */
Tensor layerNorm(const Tensor &x, const Tensor &gamma, const Tensor &beta,
                 float eps = 1e-5f);

} // namespace tlp::nn
