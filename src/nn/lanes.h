/**
 * @file
 * Row-lane helpers for the forward row kernels (DESIGN.md §13).
 *
 * A per-row chain (a sum, a max, a dot product) cannot be vectorised
 * along the row without reordering its float operations. The row-lane
 * kernels vectorise across rows instead: each of a vector's eight
 * lanes holds one row and runs that row's operations in their own
 * order, so a row computed in a lane has the bits it has when computed
 * alone. Lanes read a group of eight rows through a lane-major copy,
 * t[c * 8 + lane], made with in-register 8 x 8 transposes.
 *
 * The lane code exists only where the build targets AVX2 + FMA
 * (TLP_ROW_LANES); every other build runs the per-row loops alone.
 */
#pragma once

#include <cmath>
#include <cstdint>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define TLP_ROW_LANES 1
#endif

namespace tlp::nn::lanes {

/**
 * Keep the compiler from fusing @p prod into the add that consumes it,
 * for a loop that must round a product before adding it. Only an FMA
 * target can fuse, and an FMA target has AVX, whose registers hold a
 * float or an eight-float vector.
 */
template <typename T>
inline void
keepRounded(T &prod)
{
#if defined(__FMA__)
    asm("" : "+x"(prod));
#else
    (void)prod;
#endif
}

#if defined(__x86_64__) && defined(__FMA__)
/**
 * keepRounded for a sixteen-float vector, which only an AVX-512
 * register holds: for code that runs on an AVX-512 CPU only.
 */
__attribute__((target("avx512f"))) inline void
keepRounded(float __attribute__((vector_size(64))) & prod)
{
    asm("" : "+v"(prod));
}
#endif

/**
 * acc + a * b, rounded once where the target fuses multiply-adds (as
 * the compiler contracts `acc += a * b` there) and twice elsewhere.
 */
inline float
fusedMulAdd(float a, float b, float acc)
{
#if defined(__FMA__)
    return std::fma(a, b, acc);
#else
    return acc + a * b;
#endif
}

#if defined(TLP_ROW_LANES)

/** Rows a row-lane group holds: one per float of an AVX vector. */
constexpr int64_t kLanes = 8;

/** Transpose the 8 x 8 block held in @p v (v[i] is row i). */
inline void
transpose8(__m256 v[kLanes])
{
    const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
    const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
    const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
    const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
    const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
    const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
    const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
    const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xee);
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xee);
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xee);
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xee);
    v[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    v[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    v[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    v[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    v[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    v[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    v[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    v[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/**
 * Columns [c, c + 8) of the eight rows at @p rows (row stride
 * @p stride) as eight column vectors: v[j] holds column c + j, lane l
 * row l.
 */
inline void
loadColumns8(const float *rows, int64_t stride, int64_t c,
             __m256 v[kLanes])
{
    for (int64_t l = 0; l < kLanes; ++l)
        v[l] = _mm256_loadu_ps(rows + l * stride + c);
    transpose8(v);
}

/** Column @p c of the eight rows at @p rows (row stride @p stride). */
inline __m256
loadColumn(const float *rows, int64_t stride, int64_t c)
{
    alignas(32) float col[kLanes];
    for (int64_t l = 0; l < kLanes; ++l)
        col[l] = rows[l * stride + c];
    return _mm256_load_ps(col);
}

/**
 * The eight rows of @p cols floats at @p rows into lane-major @p t
 * (32-byte aligned): t[c * 8 + l] = rows[l * cols + c].
 */
inline void
toLanes(const float *rows, int64_t cols, float *t)
{
    int64_t c = 0;
    for (; c + kLanes <= cols; c += kLanes) {
        __m256 v[kLanes];
        loadColumns8(rows, cols, c, v);
        for (int64_t j = 0; j < kLanes; ++j)
            _mm256_store_ps(t + (c + j) * kLanes, v[j]);
    }
    for (; c < cols; ++c)
        _mm256_store_ps(t + c * kLanes, loadColumn(rows, cols, c));
}

/** Inverse of toLanes: lane-major @p t back to eight rows at @p rows. */
inline void
fromLanes(const float *t, int64_t cols, float *rows)
{
    int64_t c = 0;
    for (; c + kLanes <= cols; c += kLanes) {
        __m256 v[kLanes];
        for (int64_t j = 0; j < kLanes; ++j)
            v[j] = _mm256_load_ps(t + (c + j) * kLanes);
        transpose8(v);
        for (int64_t l = 0; l < kLanes; ++l)
            _mm256_storeu_ps(rows + l * cols + c, v[l]);
    }
    for (; c < cols; ++c)
        for (int64_t l = 0; l < kLanes; ++l)
            rows[l * cols + c] = t[c * kLanes + l];
}

#endif // TLP_ROW_LANES

} // namespace tlp::nn::lanes
