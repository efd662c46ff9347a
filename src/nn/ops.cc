#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "nn/infer_ops.h"
#include "nn/kernels.h"
#include "support/thread_pool.h"

namespace tlp::nn {

namespace {

std::shared_ptr<Node>
makeNode(std::vector<int> shape,
         std::vector<std::shared_ptr<Node>> parents)
{
    auto node = std::make_shared<Node>();
    node->shape = std::move(shape);
    node->allocValue(static_cast<size_t>(shapeNumel(node->shape)));
    node->parents = std::move(parents);
    for (const auto &parent : node->parents)
        node->requires_grad |= parent->requires_grad;
    return node;
}

/** Leading dims x last dim factorization. */
std::pair<int64_t, int64_t>
rowsCols(const std::vector<int> &shape)
{
    TLP_CHECK(!shape.empty(), "rank-0 tensor");
    const int64_t cols = shape.back();
    return {shapeNumel(shape) / cols, cols};
}

/** Chunk size for ~1-flop/element maps (add, mul, relu, copies). */
constexpr int64_t kCheapGrain = 32 * 1024;

/** Chunk size for transcendental maps (exp, tanh, sigmoid). */
constexpr int64_t kTranscendentalGrain = 4 * 1024;

/** Elementwise map over [0, n), split across the global pool. */
template <typename Fn>
void
parallelMap(int64_t n, int64_t grain, Fn &&fn)
{
    ThreadPool::global().parallelFor(
        0, n, grain, [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i)
                fn(i);
        });
}

/** Row-range map over [0, rows), split across the global pool. */
template <typename Fn>
void
parallelRows(int64_t rows, int64_t work_per_row, Fn &&fn)
{
    ThreadPool::global().parallelFor(0, rows,
                                     kern::rowGrain(work_per_row),
                                     std::forward<Fn>(fn));
}

} // namespace

Tensor
add(const Tensor &a, const Tensor &b)
{
    TLP_CHECK(a.shape() == b.shape(), "add shape mismatch");
    auto node = makeNode(a.shape(), {a.node(), b.node()});
    const float *av = a.value().data();
    const float *bv = b.value().data();
    float *out = node->value.data();
    parallelMap(node->numel(), kCheapGrain,
                [=](int64_t i) { out[i] = av[i] + bv[i]; });
    node->backward_fn = [](Node &self) {
        const float *g = self.grad.data();
        for (int p = 0; p < 2; ++p) {
            float *grad = self.parents[static_cast<size_t>(p)]->grad.data();
            parallelMap(self.numel(), kCheapGrain,
                        [=](int64_t i) { grad[i] += g[i]; });
        }
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
addBias(const Tensor &x, const Tensor &bias)
{
    TLP_CHECK(bias.shape().size() == 1, "bias must be 1-D");
    const auto [rows, cols] = rowsCols(x.shape());
    TLP_CHECK(cols == bias.numel(), "bias width mismatch");
    auto node = makeNode(x.shape(), {x.node(), bias.node()});
    const float *xv = x.value().data();
    const float *bv = bias.value().data();
    float *out = node->value.data();
    const int64_t rows_c = rows, cols_c = cols;
    parallelRows(rows_c, cols_c, [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r)
            for (int64_t c = 0; c < cols_c; ++c)
                out[r * cols_c + c] = xv[r * cols_c + c] + bv[c];
    });
    node->backward_fn = [rows_c, cols_c](Node &self) {
        float *gx = self.parents[0]->grad.data();
        float *gb = self.parents[1]->grad.data();
        const float *g = self.grad.data();
        // Partition by columns: each chunk owns a disjoint slice of both
        // gx and gb, and per column the row accumulation order into
        // gb[c] stays the serial 0..rows order.
        ThreadPool::global().parallelFor(
            0, cols_c, kern::rowGrain(rows_c),
            [=](int64_t c0, int64_t c1) {
                for (int64_t r = 0; r < rows_c; ++r) {
                    for (int64_t c = c0; c < c1; ++c) {
                        const float gv = g[r * cols_c + c];
                        gx[r * cols_c + c] += gv;
                        gb[c] += gv;
                    }
                }
            });
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    TLP_CHECK(a.shape() == b.shape(), "mul shape mismatch");
    auto node = makeNode(a.shape(), {a.node(), b.node()});
    const float *av = a.value().data();
    const float *bv = b.value().data();
    float *out = node->value.data();
    parallelMap(node->numel(), kCheapGrain,
                [=](int64_t i) { out[i] = av[i] * bv[i]; });
    node->backward_fn = [](Node &self) {
        float *ga = self.parents[0]->grad.data();
        float *gb = self.parents[1]->grad.data();
        const float *av = self.parents[0]->value.data();
        const float *bv = self.parents[1]->value.data();
        const float *g = self.grad.data();
        parallelMap(self.numel(), kCheapGrain, [=](int64_t i) {
            ga[i] += g[i] * bv[i];
            gb[i] += g[i] * av[i];
        });
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
scale(const Tensor &x, float factor)
{
    auto node = makeNode(x.shape(), {x.node()});
    const float *xv = x.value().data();
    float *out = node->value.data();
    parallelMap(node->numel(), kCheapGrain,
                [=](int64_t i) { out[i] = xv[i] * factor; });
    node->backward_fn = [factor](Node &self) {
        float *gx = self.parents[0]->grad.data();
        const float *g = self.grad.data();
        parallelMap(self.numel(), kCheapGrain,
                    [=](int64_t i) { gx[i] += g[i] * factor; });
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    TLP_CHECK(a.shape().size() >= 2 && b.shape().size() == 2,
              "matmul expects an A of rank >= 2 and a rank-2 B");
    // A's leading dims flatten into GEMM rows, as in addBias.
    const auto [m, k] = rowsCols(a.shape());
    const int64_t n = b.dim(1);
    TLP_CHECK(b.dim(0) == k, "matmul contraction mismatch");
    std::vector<int> shape = a.shape();
    shape.back() = static_cast<int>(n);
    auto node = makeNode(std::move(shape), {a.node(), b.node()});
    kern::gemm(a.value().data(), b.value().data(), node->value.data(), m,
               k, n);
    node->backward_fn = [m, k, n](Node &self) {
        Node &a = *self.parents[0], &b = *self.parents[1];
        const float *gc = self.grad.data();
        if (a.requires_grad)   // dA += dC * B^T
            kern::gemmNT(gc, b.value.data(), a.grad.data(), m, k, n);
        if (b.requires_grad)   // dB += A^T * dC
            kern::gemmTN(a.value.data(), gc, b.grad.data(), m, k, n);
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
bmm(const Tensor &a, const Tensor &b)
{
    TLP_CHECK(a.shape().size() == 3 && b.shape().size() == 3,
              "bmm expects rank-3 inputs");
    const int64_t batch = a.dim(0), m = a.dim(1), k = a.dim(2),
                  n = b.dim(2);
    TLP_CHECK(b.dim(0) == batch && b.dim(1) == k, "bmm shape mismatch");
    auto node = makeNode({static_cast<int>(batch), static_cast<int>(m),
                          static_cast<int>(n)},
                         {a.node(), b.node()});
    kern::bmm(a.value().data(), b.value().data(), node->value.data(),
              batch, m, k, n);
    node->backward_fn = [batch, m, k, n](Node &self) {
        Node &a = *self.parents[0], &b = *self.parents[1];
        const float *gc = self.grad.data();
        if (a.requires_grad)
            kern::bmmNT(gc, b.value.data(), a.grad.data(), batch, m, k, n);
        if (b.requires_grad)
            kern::bmmTN(a.value.data(), gc, b.grad.data(), batch, m, k, n);
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
relu(const Tensor &x)
{
    auto node = makeNode(x.shape(), {x.node()});
    const float *xv = x.value().data();
    float *out = node->value.data();
    parallelMap(node->numel(), kCheapGrain, [=](int64_t i) {
        out[i] = xv[i] > 0.0f ? xv[i] : 0.0f;
    });
    node->backward_fn = [](Node &self) {
        float *gx = self.parents[0]->grad.data();
        const float *xv = self.parents[0]->value.data();
        const float *g = self.grad.data();
        // g is loaded on both sides of the select: loaded on the taken
        // side only, the select compiles to a branch on x's sign.
        parallelMap(self.numel(), kCheapGrain, [=](int64_t i) {
            const float gv = g[i];
            gx[i] += xv[i] > 0.0f ? gv : 0.0f;
        });
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
tanhT(const Tensor &x)
{
    auto node = makeNode(x.shape(), {x.node()});
    const float *xv = x.value().data();
    float *out = node->value.data();
    parallelMap(node->numel(), kTranscendentalGrain,
                [=](int64_t i) { out[i] = std::tanh(xv[i]); });
    node->backward_fn = [](Node &self) {
        float *gx = self.parents[0]->grad.data();
        const float *y = self.value.data();
        const float *g = self.grad.data();
        parallelMap(self.numel(), kCheapGrain, [=](int64_t i) {
            gx[i] += g[i] * (1.0f - y[i] * y[i]);
        });
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
sigmoidT(const Tensor &x)
{
    auto node = makeNode(x.shape(), {x.node()});
    const float *xv = x.value().data();
    float *out = node->value.data();
    parallelMap(node->numel(), kTranscendentalGrain, [=](int64_t i) {
        out[i] = 1.0f / (1.0f + std::exp(-xv[i]));
    });
    node->backward_fn = [](Node &self) {
        float *gx = self.parents[0]->grad.data();
        const float *y = self.value.data();
        const float *g = self.grad.data();
        parallelMap(self.numel(), kCheapGrain, [=](int64_t i) {
            gx[i] += g[i] * y[i] * (1.0f - y[i]);
        });
    };
    return Tensor::fromNode(std::move(node));
}

namespace {

/**
 * softmaxLastDim, or with @p causal non-zero its causal form over
 * [.., causal, causal] scores (iops::softmaxRows' mask).
 */
Tensor
softmaxImpl(const Tensor &x, int64_t causal)
{
    const auto [rows, cols] = rowsCols(x.shape());
    auto node = makeNode(x.shape(), {x.node()});
    const float *xv = x.value().data();
    float *outv = node->value.data();
    const int64_t rows_c = rows, cols_c = cols;
    // exp() dominates the row cost; weight the grain accordingly. The
    // row kernel is shared with the fused inference path (infer_ops.h)
    // so both forwards are literally the same compiled code.
    parallelRows(rows_c, 8 * cols_c, [=](int64_t r0, int64_t r1) {
        iops::softmaxRows(xv, outv, r0, r1, cols_c, causal);
    });
    node->backward_fn = [rows_c, cols_c](Node &self) {
        float *gx = self.parents[0]->grad.data();
        const float *yv = self.value.data();
        const float *gyv = self.grad.data();
        parallelRows(rows_c, 3 * cols_c, [=](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
                const float *y = yv + r * cols_c;
                const float *gy = gyv + r * cols_c;
                float dot = 0.0f;
                for (int64_t c = 0; c < cols_c; ++c)
                    dot += y[c] * gy[c];
                float *g = gx + r * cols_c;
                // masked positions have y == 0 and receive no gradient
                for (int64_t c = 0; c < cols_c; ++c)
                    g[c] += y[c] * (gy[c] - dot);
            }
        });
    };
    return Tensor::fromNode(std::move(node));
}

} // namespace

Tensor
softmaxLastDim(const Tensor &x)
{
    return softmaxImpl(x, 0);
}

Tensor
softmaxLastDimCausal(const Tensor &x)
{
    const auto &shape = x.shape();
    TLP_CHECK(shape.size() >= 2 &&
                  shape.back() == shape[shape.size() - 2],
              "causal softmax needs square trailing dims");
    return softmaxImpl(x, shape.back());
}

Tensor
transposeLast2(const Tensor &x)
{
    const auto &shape = x.shape();
    TLP_CHECK(shape.size() >= 2, "transpose needs rank >= 2");
    std::vector<int> out_shape = shape;
    std::swap(out_shape[out_shape.size() - 1],
              out_shape[out_shape.size() - 2]);
    const int64_t rows = shape[shape.size() - 2];
    const int64_t cols = shape[shape.size() - 1];
    const int64_t batch = shapeNumel(shape) / (rows * cols);

    auto node = makeNode(out_shape, {x.node()});
    const float *xv = x.value().data();
    float *outv = node->value.data();
    ThreadPool::global().parallelFor(
        0, batch, kern::rowGrain(rows * cols),
        [=](int64_t s0, int64_t s1) {
            for (int64_t s = s0; s < s1; ++s) {
                const float *in = xv + s * rows * cols;
                float *out = outv + s * rows * cols;
                for (int64_t r = 0; r < rows; ++r)
                    for (int64_t c = 0; c < cols; ++c)
                        out[c * rows + r] = in[r * cols + c];
            }
        });
    node->backward_fn = [batch, rows, cols](Node &self) {
        float *gx = self.parents[0]->grad.data();
        const float *gv = self.grad.data();
        ThreadPool::global().parallelFor(
            0, batch, kern::rowGrain(rows * cols),
            [=](int64_t s0, int64_t s1) {
                for (int64_t s = s0; s < s1; ++s) {
                    const float *gout = gv + s * rows * cols;
                    float *gin = gx + s * rows * cols;
                    for (int64_t r = 0; r < rows; ++r)
                        for (int64_t c = 0; c < cols; ++c)
                            gin[r * cols + c] += gout[c * rows + r];
                }
            });
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
permute0213(const Tensor &x)
{
    const auto &shape = x.shape();
    TLP_CHECK(shape.size() == 4, "permute0213 needs rank 4");
    const int64_t a = shape[0], b = shape[1], c = shape[2], d = shape[3];
    auto node = makeNode({shape[0], shape[2], shape[1], shape[3]},
                         {x.node()});
    const float *xv = x.value().data();
    float *outv = node->value.data();
    ThreadPool::global().parallelFor(
        0, a, kern::rowGrain(b * c * d), [=](int64_t a0, int64_t a1) {
            for (int64_t ia = a0; ia < a1; ++ia)
                for (int64_t ib = 0; ib < b; ++ib)
                    for (int64_t ic = 0; ic < c; ++ic) {
                        const float *in =
                            xv + ((ia * b + ib) * c + ic) * d;
                        float *out =
                            outv + ((ia * c + ic) * b + ib) * d;
                        std::copy(in, in + d, out);
                    }
        });
    node->backward_fn = [a, b, c, d](Node &self) {
        float *gx = self.parents[0]->grad.data();
        const float *gv = self.grad.data();
        ThreadPool::global().parallelFor(
            0, a, kern::rowGrain(b * c * d), [=](int64_t a0, int64_t a1) {
                for (int64_t ia = a0; ia < a1; ++ia)
                    for (int64_t ib = 0; ib < b; ++ib)
                        for (int64_t ic = 0; ic < c; ++ic) {
                            float *gin =
                                gx + ((ia * b + ib) * c + ic) * d;
                            const float *gout =
                                gv + ((ia * c + ic) * b + ib) * d;
                            for (int64_t id = 0; id < d; ++id)
                                gin[id] += gout[id];
                        }
            });
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
reshape(const Tensor &x, const std::vector<int> &shape)
{
    TLP_CHECK(shapeNumel(shape) == x.numel(),
              "reshape changes element count");
    auto node = makeNode(shape, {x.node()});
    node->value = x.value();
    node->backward_fn = [](Node &self) {
        float *gx = self.parents[0]->grad.data();
        const float *g = self.grad.data();
        parallelMap(self.numel(), kCheapGrain,
                    [=](int64_t i) { gx[i] += g[i]; });
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
sumAll(const Tensor &x)
{
    auto node = makeNode({1}, {x.node()});
    float sum = 0.0f;
    for (float v : x.value())
        sum += v;
    node->value[0] = sum;
    node->backward_fn = [](Node &self) {
        float *gx = self.parents[0]->grad.data();
        const float g = self.grad[0];
        parallelMap(self.parents[0]->numel(), kCheapGrain,
                    [=](int64_t i) { gx[i] += g; });
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
sumAxis1(const Tensor &x)
{
    TLP_CHECK(x.shape().size() == 2, "sumAxis1 needs rank 2");
    const int64_t n = x.dim(0), m = x.dim(1);
    auto node = makeNode({static_cast<int>(n)}, {x.node()});
    const float *xv = x.value().data();
    float *out = node->value.data();
    parallelRows(n, m, [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            float sum = 0.0f;
            for (int64_t c = 0; c < m; ++c)
                sum += xv[r * m + c];
            out[r] = sum;
        }
    });
    node->backward_fn = [n, m](Node &self) {
        float *gx = self.parents[0]->grad.data();
        const float *g = self.grad.data();
        parallelRows(n, m, [=](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r)
                for (int64_t c = 0; c < m; ++c)
                    gx[r * m + c] += g[r];
        });
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
selectAxis1(const Tensor &x, int t)
{
    TLP_CHECK(x.shape().size() == 3, "selectAxis1 needs rank 3");
    const int64_t n = x.dim(0), l = x.dim(1), d = x.dim(2);
    TLP_CHECK(t >= 0 && t < l, "bad time index");
    auto node = makeNode({static_cast<int>(n), static_cast<int>(d)},
                         {x.node()});
    const auto &xv = x.value();
    for (int64_t r = 0; r < n; ++r) {
        const float *in = xv.data() + (r * l + t) * d;
        std::copy(in, in + d, node->value.data() + r * d);
    }
    node->backward_fn = [n, l, d, t](Node &self) {
        auto &gx = self.parents[0]->grad;
        for (int64_t r = 0; r < n; ++r) {
            float *gin = gx.data() + (r * l + t) * d;
            const float *gout = self.grad.data() + r * d;
            for (int64_t c = 0; c < d; ++c)
                gin[c] += gout[c];
        }
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
stackAxis1(const std::vector<Tensor> &slices)
{
    TLP_CHECK(!slices.empty(), "stackAxis1 of nothing");
    const int64_t n = slices[0].dim(0), d = slices[0].dim(1);
    const int64_t l = static_cast<int64_t>(slices.size());
    std::vector<std::shared_ptr<Node>> parents;
    for (const auto &slice : slices) {
        TLP_CHECK(slice.dim(0) == n && slice.dim(1) == d,
                  "stack slice shape mismatch");
        parents.push_back(slice.node());
    }
    auto node = makeNode({static_cast<int>(n), static_cast<int>(l),
                          static_cast<int>(d)},
                         std::move(parents));
    for (int64_t t = 0; t < l; ++t) {
        const auto &sv = node->parents[static_cast<size_t>(t)]->value;
        for (int64_t r = 0; r < n; ++r) {
            std::copy(sv.data() + r * d, sv.data() + (r + 1) * d,
                      node->value.data() + (r * l + t) * d);
        }
    }
    node->backward_fn = [n, l, d](Node &self) {
        for (int64_t t = 0; t < l; ++t) {
            auto &gs = self.parents[static_cast<size_t>(t)]->grad;
            for (int64_t r = 0; r < n; ++r) {
                const float *gout = self.grad.data() + (r * l + t) * d;
                float *gin = gs.data() + r * d;
                for (int64_t c = 0; c < d; ++c)
                    gin[c] += gout[c];
            }
        }
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
sliceCols(const Tensor &x, int start, int len)
{
    TLP_CHECK(x.shape().size() == 2, "sliceCols needs rank 2");
    const int64_t n = x.dim(0), m = x.dim(1);
    TLP_CHECK(start >= 0 && start + len <= m, "bad column slice");
    auto node = makeNode({static_cast<int>(n), len}, {x.node()});
    const auto &xv = x.value();
    for (int64_t r = 0; r < n; ++r) {
        std::copy(xv.data() + r * m + start,
                  xv.data() + r * m + start + len,
                  node->value.data() + r * len);
    }
    node->backward_fn = [n, m, start, len](Node &self) {
        auto &gx = self.parents[0]->grad;
        for (int64_t r = 0; r < n; ++r) {
            const float *gout = self.grad.data() + r * len;
            float *gin = gx.data() + r * m + start;
            for (int64_t c = 0; c < len; ++c)
                gin[c] += gout[c];
        }
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
layerNorm(const Tensor &x, const Tensor &gamma, const Tensor &beta,
          float eps)
{
    const auto [rows, cols] = rowsCols(x.shape());
    TLP_CHECK(gamma.numel() == cols && beta.numel() == cols,
              "layer-norm affine width mismatch");
    auto node = makeNode(x.shape(), {x.node(), gamma.node(), beta.node()});
    auto stats = std::make_shared<std::vector<float>>(
        static_cast<size_t>(rows * 2));   // (mean, inv_std) per row
    const float *xv = x.value().data();
    const float *gv = gamma.value().data();
    const float *bv = beta.value().data();
    float *outv = node->value.data();
    float *statv = stats->data();
    const int64_t rows_c = rows, cols_c = cols;
    // Shared with the fused inference path (infer_ops.h): the affine
    // epilogue contains a contractible multiply-add, so one compiled
    // instance guarantees fused == interpreted bitwise.
    parallelRows(rows_c, 6 * cols_c, [=](int64_t r0, int64_t r1) {
        iops::layerNormRows(xv, gv, bv, outv, statv, r0, r1, cols_c, eps);
    });
    node->backward_fn = [rows_c, cols_c, stats](Node &self) {
        float *gx = self.parents[0]->grad.data();
        float *gg = self.parents[1]->grad.data();
        float *gb = self.parents[2]->grad.data();
        const float *xv = self.parents[0]->value.data();
        const float *gv = self.parents[1]->value.data();
        const float *gyv = self.grad.data();
        const float *statv = stats->data();
        // Pass 1 — gamma/beta grads, partitioned by columns: each chunk
        // owns disjoint gg/gb entries and accumulates rows in the serial
        // 0..rows order, so sums are bit-identical at any thread count.
        ThreadPool::global().parallelFor(
            0, cols_c, kern::rowGrain(3 * rows_c),
            [=](int64_t c0, int64_t c1) {
                for (int64_t r = 0; r < rows_c; ++r) {
                    const float mean = statv[2 * r];
                    const float inv_std = statv[2 * r + 1];
                    const float *in = xv + r * cols_c;
                    const float *gy = gyv + r * cols_c;
                    for (int64_t c = c0; c < c1; ++c) {
                        const float xhat = (in[c] - mean) * inv_std;
                        gg[c] += gy[c] * xhat;
                        gb[c] += gy[c];
                    }
                }
            });
        // Pass 2 — input grads, partitioned by rows (disjoint gx rows).
        parallelRows(rows_c, 8 * cols_c, [=](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
                const float mean = statv[2 * r];
                const float inv_std = statv[2 * r + 1];
                const float *in = xv + r * cols_c;
                const float *gy = gyv + r * cols_c;
                float sum_gyg = 0.0f, sum_gygx = 0.0f;
                for (int64_t c = 0; c < cols_c; ++c) {
                    const float xhat = (in[c] - mean) * inv_std;
                    const float gyg = gy[c] * gv[c];
                    sum_gyg += gyg;
                    sum_gygx += gyg * xhat;
                }
                float *g = gx + r * cols_c;
                const float inv_n = 1.0f / static_cast<float>(cols_c);
                for (int64_t c = 0; c < cols_c; ++c) {
                    const float xhat = (in[c] - mean) * inv_std;
                    const float gyg = gy[c] * gv[c];
                    g[c] += inv_std *
                            (gyg - inv_n * (sum_gyg + xhat * sum_gygx));
                }
            }
        });
    };
    return Tensor::fromNode(std::move(node));
}

} // namespace tlp::nn
