#include "nn/infer_ops.h"

#include <algorithm>
#include <cmath>

#include "nn/lanes.h"

namespace tlp::nn::iops {

namespace {

#if defined(TLP_ROW_LANES)

using lanes::kLanes;

/** Widest row the lane kernels take; their lane-major copy is on the stack. */
constexpr int64_t kMaxLaneCols = 256;

/**
 * glibc 2.36's expf (sysdeps/ieee754/flt-32/e_expf.c, the FMA variant
 * its ifunc picks on an AVX2 + FMA host): exp(x) = 2^(k/32) * 2^(r/32)
 * with x * 32/ln2 = k + r, 2^(k/32) from a 32-entry table and 2^(r/32)
 * from a cubic, all in double, then one rounding to float. These are
 * the library's own constants (its __exp2f_data).
 */
alignas(32) constexpr long long kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kInvLn2N = 0x1.71547652b82fep+5;
constexpr double kShift = 0x1.8p+52;
constexpr double kC0 = 0x1.c6af84b912394p-20;
constexpr double kC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kC2 = 0x1.62e42ff0c52d6p-6;

/** expf's fast path on four floats, each step the library's own. */
inline __m128
expFast4(__m128 x)
{
    const __m256d xd = _mm256_cvtps_pd(x);
    const __m256d inv_ln2n = _mm256_set1_pd(kInvLn2N);
    const __m256d shift = _mm256_set1_pd(kShift);
    const __m256d kd = _mm256_fmadd_pd(inv_ln2n, xd, shift);
    const __m256i ki = _mm256_castpd_si256(kd);
    const __m256d r =
        _mm256_fmsub_pd(inv_ln2n, xd, _mm256_sub_pd(kd, shift));
    const __m256i tab = _mm256_i64gather_epi64(
        kExp2Table, _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
    const __m256d s = _mm256_castsi256_pd(
        _mm256_add_epi64(tab, _mm256_slli_epi64(ki, 47)));
    const __m256d z =
        _mm256_fmadd_pd(_mm256_set1_pd(kC0), r, _mm256_set1_pd(kC1));
    const __m256d r2 = _mm256_mul_pd(r, r);
    const __m256d y0 =
        _mm256_fmadd_pd(_mm256_set1_pd(kC2), r, _mm256_set1_pd(1.0));
    const __m256d y = _mm256_fmadd_pd(z, r2, y0);
    return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

/**
 * std::exp of eight floats, bit for bit. Lanes that glibc sends off its
 * fast path (|x| >= 88 or NaN) call std::exp itself.
 */
inline __m256
exp8(__m256 x)
{
    __m256 y = _mm256_set_m128(expFast4(_mm256_extractf128_ps(x, 1)),
                               expFast4(_mm256_castps256_ps128(x)));
    const __m256i abs_bits = _mm256_and_si256(
        _mm256_castps_si256(x), _mm256_set1_epi32(0x7fffffff));
    const __m256i slow =
        _mm256_cmpgt_epi32(abs_bits, _mm256_set1_epi32(0x42afffff));
    if (!_mm256_testz_si256(slow, slow)) {
        alignas(32) float xs[kLanes], ys[kLanes];
        _mm256_store_ps(xs, x);
        _mm256_store_ps(ys, y);
        const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(slow));
        for (int64_t l = 0; l < kLanes; ++l)
            if (mask & (1 << l))
                ys[l] = std::exp(xs[l]);
        y = _mm256_load_ps(ys);
    }
    return y;
}

/** softmaxRows over the eight rows at @p in, one row per lane. */
inline void
softmaxLanes(const float *in, float *out, int64_t cols)
{
    alignas(32) float t[kLanes * kMaxLaneCols];
    lanes::toLanes(in, cols, t);
    __m256 max_v = _mm256_load_ps(t);
    for (int64_t c = 1; c < cols; ++c)   // std::max(max_v, x), NaN and ±0 alike
        max_v = _mm256_max_ps(_mm256_load_ps(t + c * kLanes), max_v);
    __m256 sum = _mm256_setzero_ps();
    for (int64_t c = 0; c < cols; ++c) {
        const __m256 e =
            exp8(_mm256_sub_ps(_mm256_load_ps(t + c * kLanes), max_v));
        _mm256_store_ps(t + c * kLanes, e);
        sum = _mm256_add_ps(sum, e);
    }
    const __m256 inv = _mm256_div_ps(_mm256_set1_ps(1.0f), sum);
    for (int64_t c = 0; c < cols; ++c)
        _mm256_store_ps(t + c * kLanes,
                        _mm256_mul_ps(_mm256_load_ps(t + c * kLanes), inv));
    lanes::fromLanes(t, cols, out);
}

/** layerNormRows over the eight rows [r, r + 8), one row per lane. */
inline void
layerNormLanes(const float *in, const float *gamma, const float *beta,
               float *out, float *stats, int64_t r, int64_t cols,
               float eps)
{
    alignas(32) float t[kLanes * kMaxLaneCols];
    lanes::toLanes(in + r * cols, cols, t);
    __m256 mean = _mm256_setzero_ps();
    for (int64_t c = 0; c < cols; ++c)
        mean = _mm256_add_ps(mean, _mm256_load_ps(t + c * kLanes));
    mean = _mm256_div_ps(mean, _mm256_set1_ps(static_cast<float>(cols)));
    __m256 var = _mm256_setzero_ps();
    const int64_t rounded = cols & ~int64_t{3};
    for (int64_t c = 0; c < cols; ++c) {
        const __m256 d = _mm256_sub_ps(_mm256_load_ps(t + c * kLanes), mean);
        if (c < rounded) {
            __m256 sq = _mm256_mul_ps(d, d);
            lanes::keepRounded(sq);
            var = _mm256_add_ps(var, sq);
        } else {
            var = _mm256_fmadd_ps(d, d, var);
        }
    }
    var = _mm256_div_ps(var, _mm256_set1_ps(static_cast<float>(cols)));
    const __m256 inv_std = _mm256_div_ps(
        _mm256_set1_ps(1.0f),
        _mm256_sqrt_ps(_mm256_add_ps(var, _mm256_set1_ps(eps))));
    if (stats) {
        alignas(32) float means[kLanes], inv_stds[kLanes];
        _mm256_store_ps(means, mean);
        _mm256_store_ps(inv_stds, inv_std);
        for (int64_t l = 0; l < kLanes; ++l) {
            stats[2 * (r + l)] = means[l];
            stats[2 * (r + l) + 1] = inv_stds[l];
        }
    }
    for (int64_t c = 0; c < cols; ++c) {
        const __m256 scaled = _mm256_mul_ps(
            _mm256_sub_ps(_mm256_load_ps(t + c * kLanes), mean), inv_std);
        _mm256_store_ps(t + c * kLanes,
                        _mm256_fmadd_ps(scaled, _mm256_set1_ps(gamma[c]),
                                        _mm256_set1_ps(beta[c])));
    }
    lanes::fromLanes(t, cols, out + r * cols);
}

#endif // TLP_ROW_LANES

} // namespace

void
expInto(const float *x, float *y, int64_t n)
{
    int64_t i = 0;
#if defined(TLP_ROW_LANES)
    for (; i + kLanes <= n; i += kLanes)
        _mm256_storeu_ps(y + i, exp8(_mm256_loadu_ps(x + i)));
#endif
    for (; i < n; ++i)
        y[i] = std::exp(x[i]);
}

void
softmaxRows(const float *in, float *out, int64_t r0, int64_t r1,
            int64_t cols, int64_t causal)
{
    int64_t r = r0;
#if defined(TLP_ROW_LANES)
    if (causal == 0 && cols <= kMaxLaneCols)
        for (; r + kLanes <= r1; r += kLanes)
            softmaxLanes(in + r * cols, out + r * cols, cols);
#endif
    for (; r < r1; ++r) {
        const int64_t allowed = causal > 0 ? r % causal + 1 : cols;
        const float *row_in = in + r * cols;
        float *row_out = out + r * cols;
        float max_v = row_in[0];
        for (int64_t c = 1; c < allowed; ++c)
            max_v = std::max(max_v, row_in[c]);
        float sum = 0.0f;
        for (int64_t c = 0; c < allowed; ++c) {
            row_out[c] = std::exp(row_in[c] - max_v);
            sum += row_out[c];
        }
        const float inv = 1.0f / sum;
        for (int64_t c = 0; c < allowed; ++c)
            row_out[c] *= inv;
        std::fill(row_out + allowed, row_out + cols, 0.0f);
    }
}

void
layerNormRows(const float *in, const float *gamma, const float *beta,
              float *out, float *stats, int64_t r0, int64_t r1,
              int64_t cols, float eps)
{
    int64_t r = r0;
#if defined(TLP_ROW_LANES)
    if (cols <= kMaxLaneCols)
        for (; r + kLanes <= r1; r += kLanes)
            layerNormLanes(in, gamma, beta, out, stats, r, cols, eps);
#endif
    // The variance rounds d * d before adding it below column cols & ~3
    // and fuses it from there on: what the x86-64-v3 compiler makes of
    // a plain `var += d * d` (8- and 4-wide vector sections of rounded
    // products added in order, then a fused scalar tail), which the
    // golden digests pin.
    const int64_t rounded = cols & ~int64_t{3};
    for (; r < r1; ++r) {
        const float *row_in = in + r * cols;
        float mean = 0.0f;
        for (int64_t c = 0; c < cols; ++c)
            mean += row_in[c];
        mean /= static_cast<float>(cols);
        float var = 0.0f;
        for (int64_t c = 0; c < cols; ++c) {
            const float d = row_in[c] - mean;
            if (c < rounded) {
                float sq = d * d;
                lanes::keepRounded(sq);
                var += sq;
            } else {
                var = lanes::fusedMulAdd(d, d, var);
            }
        }
        var /= static_cast<float>(cols);
        const float inv_std = 1.0f / std::sqrt(var + eps);
        if (stats) {
            stats[2 * r] = mean;
            stats[2 * r + 1] = inv_std;
        }
        float *row_out = out + r * cols;
        for (int64_t c = 0; c < cols; ++c)
            row_out[c] = lanes::fusedMulAdd((row_in[c] - mean) * inv_std,
                                            gamma[c], beta[c]);
    }
}

} // namespace tlp::nn::iops
