#include "nn/kernels.h"

#include <algorithm>
#include <cstring>

#include "nn/lanes.h"
#include "support/arena.h"
#include "support/thread_pool.h"

namespace tlp::nn::kern {

namespace {

/** K-block size: a [kKBlock x n<=256] B panel stays L1-resident. */
constexpr int64_t kKBlock = 64;

/** I-block size for the transposed update (dC panel reuse). */
constexpr int64_t kIBlock = 64;

/**
 * Register tile: kTileRows output rows x two vectors of output columns,
 * kTileCols = 16 with eight-float vectors (32 for the wide tiles
 * below). Each form also has a kVecWidth-column tile for a next 8
 * columns, as in the attention context's n = 8. Every loop over a
 * tile's rows carries `#pragma GCC unroll 4` (kTileRows): unrolled
 * early, the accumulators stay in registers rather than in a stack
 * array.
 */
constexpr int64_t kTileRows = 4;
constexpr int64_t kVecWidth = 8;
constexpr int64_t kTileCols = 2 * kVecWidth;

/**
 * The NT tile reproduces the rounded products of the NT row kernel as
 * an uninstrumented x86-64 build compiles it, using an empty-asm
 * barrier (keepRounded). ASan and TSan builds compile that row kernel
 * to other operations, and other targets lack the barrier, so there
 * the row kernel computes every element of dA.
 */
#if defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__) &&              \
    !defined(__SANITIZE_THREAD__)
constexpr bool kNTTileSupported = true;
#else
constexpr bool kNTTileSupported = false;
#endif

/** Eight floats (GCC/Clang vector extension); two make a tile row. */
typedef float Vec8 __attribute__((vector_size(32)));

/** Floats in the tile vector type V. */
template <typename V>
constexpr int64_t kFloats = sizeof(V) / sizeof(float);

// A vector return value is passed differently with and without AVX (or
// AVX-512), and GCC warns of that ABI difference. load has internal
// linkage, so no caller can see it.
#pragma GCC diagnostic ignored "-Wpsabi"

/** The kFloats<V> floats at @p p, which need no alignment. */
template <typename V>
inline V
load(const float *p)
{
    V v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Store @p v to the kFloats<V> floats at @p p. */
template <typename V>
inline void
store(float *p, const V &v)
{
    std::memcpy(p, &v, sizeof(v));
}

/**
 * Row kernel: C rows [i0, i1) = A * B, k-blocked, C fully overwritten.
 * Per output element the k accumulation order is globally increasing,
 * identical to naive i-k-j.
 */
void
gemmRowKernel(const float *TLP_RESTRICT a, const float *TLP_RESTRICT b,
              float *TLP_RESTRICT c, int64_t i0, int64_t i1, int64_t k,
              int64_t n)
{
    std::fill(c + i0 * n, c + i1 * n, 0.0f);
    for (int64_t p0 = 0; p0 < k; p0 += kKBlock) {
        const int64_t p1 = std::min(k, p0 + kKBlock);
        for (int64_t i = i0; i < i1; ++i) {
            float *TLP_RESTRICT crow = c + i * n;
            const float *arow = a + i * k;
            int64_t p = p0;
            for (; p + 4 <= p1; p += 4) {
                const float a0 = arow[p + 0];
                const float a1 = arow[p + 1];
                const float a2 = arow[p + 2];
                const float a3 = arow[p + 3];
                const float *b0 = b + (p + 0) * n;
                const float *b1 = b + (p + 1) * n;
                const float *b2 = b + (p + 2) * n;
                const float *b3 = b + (p + 3) * n;
                // Sequential accumulator chain: same float op order as
                // four single-p iterations, but the C row stays in
                // registers across four FMA streams.
                for (int64_t j = 0; j < n; ++j) {
                    float acc = crow[j];
                    acc += a0 * b0[j];
                    acc += a1 * b1[j];
                    acc += a2 * b2[j];
                    acc += a3 * b3[j];
                    crow[j] = acc;
                }
            }
            for (; p < p1; ++p) {
                const float aval = arow[p];
                const float *brow = b + p * n;
                for (int64_t j = 0; j < n; ++j)
                    crow[j] += aval * brow[j];
            }
        }
    }
}

/**
 * Forward tile: C rows [i, i + 4), columns [j, j + kFloats<V> * kVecs)
 * = A * B. The tile stays in registers across the whole ascending-p
 * loop, and each element's chain is the row kernel's: acc = 0, then
 * acc += a * b.
 */
template <typename V, int kVecs>
inline void
gemmTile(const float *TLP_RESTRICT a, const float *TLP_RESTRICT b,
         float *TLP_RESTRICT c, int64_t i, int64_t j, int64_t k, int64_t n)
{
    V acc[kTileRows][kVecs] = {};
    for (int64_t p = 0; p < k; ++p) {
        V bv[kVecs];
        for (int v = 0; v < kVecs; ++v)
            bv[v] = load<V>(b + p * n + j + v * kFloats<V>);
#pragma GCC unroll 4
        for (int64_t r = 0; r < kTileRows; ++r) {
            const float av = a[(i + r) * k + p];
            for (int v = 0; v < kVecs; ++v)
                acc[r][v] += av * bv[v];
        }
    }
#pragma GCC unroll 4
    for (int64_t r = 0; r < kTileRows; ++r)
        for (int v = 0; v < kVecs; ++v)
            store<V>(c + (i + r) * n + j + v * kFloats<V>, acc[r][v]);
}

/**
 * Forward tile's scalar columns: C rows [i, i + 4), columns [j0, n) =
 * A * B, each element's chain the row kernel's (acc = 0, then
 * acc += a * b over ascending p) in a register. The multiply-add is
 * spelled out: written as `acc += a * b`, this loop over p is a sum the
 * compiler may vectorise as rounded products added in order.
 */
inline void
gemmColumnTile(const float *TLP_RESTRICT a, const float *TLP_RESTRICT b,
               float *TLP_RESTRICT c, int64_t i, int64_t j0, int64_t k,
               int64_t n)
{
    for (int64_t j = j0; j < n; ++j) {
        float acc[kTileRows] = {};
        for (int64_t p = 0; p < k; ++p) {
#pragma GCC unroll 4
            for (int64_t r = 0; r < kTileRows; ++r)
                acc[r] = lanes::fusedMulAdd(a[(i + r) * k + p],
                                            b[p * n + j], acc[r]);
        }
#pragma GCC unroll 4
        for (int64_t r = 0; r < kTileRows; ++r)
            c[(i + r) * n + j] = acc[r];
    }
}

#if defined(TLP_ROW_LANES)
/**
 * n = 1: C rows [i, i + 8) = A * B in row lanes, lane l holding row
 * i + l's chain acc = 0, then acc += a * b over ascending p (an FMA, as
 * the row kernel's is on an FMA target).
 */
inline void
gemvLanes(const float *TLP_RESTRICT a, const float *TLP_RESTRICT b,
          float *TLP_RESTRICT c, int64_t i, int64_t k)
{
    const float *rows = a + i * k;
    __m256 acc = _mm256_setzero_ps();
    int64_t p = 0;
    for (; p + lanes::kLanes <= k; p += lanes::kLanes) {
        __m256 col[lanes::kLanes];
        lanes::loadColumns8(rows, k, p, col);
        for (int64_t q = 0; q < lanes::kLanes; ++q)
            acc = _mm256_fmadd_ps(col[q], _mm256_set1_ps(b[p + q]), acc);
    }
    for (; p < k; ++p)
        acc = _mm256_fmadd_ps(lanes::loadColumn(rows, k, p),
                              _mm256_set1_ps(b[p]), acc);
    _mm256_storeu_ps(c + i, acc);
}
#endif

/**
 * Row kernel: GA rows [i0, i1), columns [p0, p1) of GA += GC * B^T.
 * Each element's dot product compiles (x86-64-v3) to rounded products
 * added in order for j < (n & ~3), in the loop's 8- and 4-wide vector
 * sections, and to fused multiply-adds in its scalar tail.
 */
void
gemmNTRowKernel(const float *TLP_RESTRICT gc, const float *TLP_RESTRICT b,
                float *TLP_RESTRICT ga, int64_t i0, int64_t i1, int64_t p0,
                int64_t p1, int64_t k, int64_t n)
{
    for (int64_t i = i0; i < i1; ++i) {
        const float *gcrow = gc + i * n;
        for (int64_t p = p0; p < p1; ++p) {
            const float *brow = b + p * n;
            float acc = 0.0f;
            for (int64_t j = 0; j < n; ++j)
                acc += gcrow[j] * brow[j];
            ga[i * k + p] += acc;
        }
    }
}

/**
 * NT tile: GA rows [i, i + 4), columns [p, p + kFloats<V> * kVecs) +=
 * GC * B^T, read through @p bt = B^T [n, k]. Each element's dot product
 * starts at 0 and runs the row kernel's operations over ascending j: a
 * rounded product added for j < (n & ~3), a fused multiply-add from
 * there on. The sum is then added into GA.
 */
template <typename V, int kVecs>
inline void
gemmNTTile(const float *TLP_RESTRICT gc, const float *TLP_RESTRICT bt,
           float *TLP_RESTRICT ga, int64_t i, int64_t p, int64_t k,
           int64_t n)
{
    V acc[kTileRows][kVecs] = {};
    const int64_t rounded = n & ~int64_t{3};
    int64_t j = 0;
    for (; j < rounded; ++j) {
        V bv[kVecs];
        for (int v = 0; v < kVecs; ++v)
            bv[v] = load<V>(bt + j * k + p + v * kFloats<V>);
#pragma GCC unroll 4
        for (int64_t r = 0; r < kTileRows; ++r) {
            const float g = gc[(i + r) * n + j];
            for (int v = 0; v < kVecs; ++v) {
                V prod = g * bv[v];
                lanes::keepRounded(prod);
                acc[r][v] += prod;
            }
        }
    }
    for (; j < n; ++j) {
        V bv[kVecs];
        for (int v = 0; v < kVecs; ++v)
            bv[v] = load<V>(bt + j * k + p + v * kFloats<V>);
#pragma GCC unroll 4
        for (int64_t r = 0; r < kTileRows; ++r) {
            const float g = gc[(i + r) * n + j];
            for (int v = 0; v < kVecs; ++v)
                acc[r][v] += g * bv[v];
        }
    }
#pragma GCC unroll 4
    for (int64_t r = 0; r < kTileRows; ++r) {
        for (int v = 0; v < kVecs; ++v) {
            float *garow = ga + (i + r) * k + p + v * kFloats<V>;
            store<V>(garow, load<V>(garow) + acc[r][v]);
        }
    }
}

/**
 * Row kernel: GB rows [p0, p1) of GB += A^T * GC, i-blocked. Per (p, j)
 * the i accumulation order is globally increasing, matching the naive
 * i-outer loop.
 */
void
gemmTNRowKernel(const float *TLP_RESTRICT a, const float *TLP_RESTRICT gc,
                float *TLP_RESTRICT gb, int64_t p0, int64_t p1, int64_t m,
                int64_t k, int64_t n)
{
    for (int64_t i0 = 0; i0 < m; i0 += kIBlock) {
        const int64_t i1 = std::min(m, i0 + kIBlock);
        for (int64_t p = p0; p < p1; ++p) {
            float *TLP_RESTRICT gbrow = gb + p * n;
            int64_t i = i0;
            for (; i + 4 <= i1; i += 4) {
                const float a0 = a[(i + 0) * k + p];
                const float a1 = a[(i + 1) * k + p];
                const float a2 = a[(i + 2) * k + p];
                const float a3 = a[(i + 3) * k + p];
                const float *g0 = gc + (i + 0) * n;
                const float *g1 = gc + (i + 1) * n;
                const float *g2 = gc + (i + 2) * n;
                const float *g3 = gc + (i + 3) * n;
                // One sequential accumulator chain per element: the
                // float addition order is exactly the unrolled-by-1
                // loop's, just with the gbrow load/store hoisted.
                for (int64_t j = 0; j < n; ++j) {
                    float acc = gbrow[j];
                    acc += a0 * g0[j];
                    acc += a1 * g1[j];
                    acc += a2 * g2[j];
                    acc += a3 * g3[j];
                    gbrow[j] = acc;
                }
            }
            for (; i < i1; ++i) {
                const float aval = a[i * k + p];
                const float *gcrow = gc + i * n;
                for (int64_t j = 0; j < n; ++j)
                    gbrow[j] += aval * gcrow[j];
            }
        }
    }
}

/**
 * TN tile: GB rows [p, p + 4), columns [j, j + kFloats<V> * kVecs) +=
 * A^T * GC rows [i0, i1). The tile is loaded, kept in registers across
 * the ascending-i loop with the row kernel's acc += a * g, then stored;
 * a float store and reload is exact, so i-blocked calls in ascending
 * order give each element the row kernel's chain.
 */
template <typename V, int kVecs>
inline void
gemmTNTile(const float *TLP_RESTRICT a, const float *TLP_RESTRICT gc,
           float *TLP_RESTRICT gb, int64_t p, int64_t j, int64_t i0,
           int64_t i1, int64_t k, int64_t n)
{
    V acc[kTileRows][kVecs];
#pragma GCC unroll 4
    for (int64_t r = 0; r < kTileRows; ++r)
        for (int v = 0; v < kVecs; ++v)
            acc[r][v] = load<V>(gb + (p + r) * n + j + v * kFloats<V>);
    for (int64_t i = i0; i < i1; ++i) {
        V g[kVecs];
        for (int v = 0; v < kVecs; ++v)
            g[v] = load<V>(gc + i * n + j + v * kFloats<V>);
#pragma GCC unroll 4
        for (int64_t r = 0; r < kTileRows; ++r) {
            const float av = a[i * k + p + r];
            for (int v = 0; v < kVecs; ++v)
                acc[r][v] += av * g[v];
        }
    }
#pragma GCC unroll 4
    for (int64_t r = 0; r < kTileRows; ++r)
        for (int v = 0; v < kVecs; ++v)
            store<V>(gb + (p + r) * n + j + v * kFloats<V>, acc[r][v]);
}

/**
 * TN tile's scalar columns: GB rows [p, p + 4), columns [j0, n) +=
 * A^T * GC rows [i0, i1), each element's chain the row kernel's fused
 * multiply-adds over ascending i in a register.
 */
inline void
gemmTNColumnTile(const float *TLP_RESTRICT a, const float *TLP_RESTRICT gc,
                 float *TLP_RESTRICT gb, int64_t p, int64_t j0, int64_t i0,
                 int64_t i1, int64_t k, int64_t n)
{
    for (int64_t j = j0; j < n; ++j) {
        float acc[kTileRows];
#pragma GCC unroll 4
        for (int64_t r = 0; r < kTileRows; ++r)
            acc[r] = gb[(p + r) * n + j];
        for (int64_t i = i0; i < i1; ++i) {
#pragma GCC unroll 4
            for (int64_t r = 0; r < kTileRows; ++r)
                acc[r] = lanes::fusedMulAdd(a[i * k + p + r], gc[i * n + j],
                                            acc[r]);
        }
#pragma GCC unroll 4
        for (int64_t r = 0; r < kTileRows; ++r)
            gb[(p + r) * n + j] = acc[r];
    }
}

/**
 * n = 1: GB rows [p, p + 8) += A^T * GC, one GB row per lane, each
 * lane's chain the row kernel's acc += a * g over ascending i.
 */
inline void
gemvTNTile(const float *TLP_RESTRICT a, const float *TLP_RESTRICT gc,
           float *TLP_RESTRICT gb, int64_t p, int64_t m, int64_t k)
{
    Vec8 acc = load<Vec8>(gb + p);
    for (int64_t i = 0; i < m; ++i)
        acc += load<Vec8>(a + i * k + p) * gc[i];
    store<Vec8>(gb + p, acc);
}

/*
 * Wide tiles: 4 x 32, two 16-float vectors per row, on an AVX-512 CPU.
 * They exist where the build targets FMA on x86-64 (x86-64-v3, as the
 * main tree and perfbench build it): there the narrow tiles and row
 * kernels contract `acc += a * b` to FMA, as the wide ones do, so
 * either CPU computes the same bits. Only the row loops below compile
 * for AVX-512 (flatten inlines the tiles into them); the build ISA
 * stays x86-64-v3.
 */
#if defined(__x86_64__) && defined(__FMA__)
#define TLP_WIDE_TILES 1

/** Sixteen floats: an AVX-512 register; two make a wide tile row. */
typedef float Vec16 __attribute__((vector_size(64)));

/** Columns of a wide (AVX-512) tile. */
constexpr int64_t kWideCols = 2 * kFloats<Vec16>;

/** Compiles a row loop for AVX-512; call it only where wideTiles(). */
#define TLP_AVX512 __attribute__((target("avx512f"), flatten))

/**
 * Whether this CPU runs the wide tiles, read once per process. libgcc's
 * check also requires the OS to save the AVX-512 registers.
 */
bool
wideTiles()
{
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") != 0;
    }();
    return supported;
}

/**
 * Forward: C rows [i0, i1) (whole tiles), columns [0, n & ~31) in
 * 4 x 32 tiles. Returns the first column left to the narrow tiles.
 */
TLP_AVX512 int64_t
gemmWideTiles(const float *TLP_RESTRICT a, const float *TLP_RESTRICT b,
              float *TLP_RESTRICT c, int64_t i0, int64_t i1, int64_t k,
              int64_t n)
{
    const int64_t end = n / kWideCols * kWideCols;
    for (int64_t i = i0; i < i1; i += kTileRows)
        for (int64_t j = 0; j < end; j += kWideCols)
            gemmTile<Vec16, 2>(a, b, c, i, j, k, n);
    return end;
}

/**
 * dA: GA rows [i0, i1) (whole tiles), columns [0, k & ~31) in 4 x 32 NT
 * tiles. Returns the first column left to the narrow tiles.
 */
TLP_AVX512 int64_t
gemmNTWideTiles(const float *TLP_RESTRICT gc, const float *TLP_RESTRICT bt,
                float *TLP_RESTRICT ga, int64_t i0, int64_t i1, int64_t k,
                int64_t n)
{
    const int64_t end = k / kWideCols * kWideCols;
    for (int64_t i = i0; i < i1; i += kTileRows)
        for (int64_t p = 0; p < end; p += kWideCols)
            gemmNTTile<Vec16, 2>(gc, bt, ga, i, p, k, n);
    return end;
}

/**
 * dB: GB rows [p0, p1) (whole tiles), columns [0, n & ~31) in 4 x 32
 * TN tiles over GC rows [i0, i1). Returns the first column left to the
 * narrow tiles.
 */
TLP_AVX512 int64_t
gemmTNWideTiles(const float *TLP_RESTRICT a, const float *TLP_RESTRICT gc,
                float *TLP_RESTRICT gb, int64_t p0, int64_t p1, int64_t i0,
                int64_t i1, int64_t k, int64_t n)
{
    const int64_t end = n / kWideCols * kWideCols;
    for (int64_t p = p0; p < p1; p += kTileRows)
        for (int64_t j = 0; j < end; j += kWideCols)
            gemmTNTile<Vec16, 2>(a, gc, gb, p, j, i0, i1, k, n);
    return end;
}
#endif // __x86_64__ && __FMA__

/**
 * End of the whole tiles of @p tile rows in [r0, r1): r1 rounded down
 * onto r0.
 */
int64_t
tiledEnd(int64_t r0, int64_t r1, int64_t tile = kTileRows)
{
    return r0 + (r1 - r0) / tile * tile;
}

/** Whether GA += GC * B^T with m rows and k columns takes NT tiles. */
bool
ntTiled(int64_t m, int64_t k)
{
    return kNTTileSupported && m >= kTileRows && k >= kVecWidth;
}

/**
 * B^T [n, k] of B [k, n], for the NT tile's unit-stride loads. It lives
 * in the calling thread's arena until that thread's next pack; the
 * arena keeps its blocks, so once a thread has packed its largest B a
 * call allocates nothing.
 */
const float *
packTransposed(const float *b, int64_t k, int64_t n)
{
    thread_local Arena arena(size_t{64} << 10);
    arena.reset();
    float *packed = arena.allocFloats(static_cast<size_t>(k * n));
    for (int64_t p = 0; p < k; ++p)
        for (int64_t j = 0; j < n; ++j)
            packed[j * k + p] = b[p * n + j];
    return packed;
}

/**
 * GA rows [i0, i1) of GA += GC * B^T: when @p bt (B^T, packed by the
 * caller) is given, NT tiles over the whole tile rows and the first
 * k & ~7 columns; the row kernel for the rest.
 */
void
gemmNTRows(const float *gc, const float *b, const float *bt, float *ga,
           int64_t i0, int64_t i1, int64_t k, int64_t n)
{
    int64_t edge = i0;
    if (bt != nullptr) {
        edge = tiledEnd(i0, i1);
        const int64_t vec_end = k / kVecWidth * kVecWidth;
        int64_t p0 = 0;
#if defined(TLP_WIDE_TILES)
        if (wideTiles())
            p0 = gemmNTWideTiles(gc, bt, ga, i0, edge, k, n);
#endif
        for (int64_t i = i0; i < edge; i += kTileRows) {
            int64_t p = p0;
            for (; p + kTileCols <= vec_end; p += kTileCols)
                gemmNTTile<Vec8, 2>(gc, bt, ga, i, p, k, n);
            if (p < vec_end)
                gemmNTTile<Vec8, 1>(gc, bt, ga, i, p, k, n);
        }
        gemmNTRowKernel(gc, b, ga, i0, edge, vec_end, k, k, n);
    }
    gemmNTRowKernel(gc, b, ga, edge, i1, 0, k, k, n);
}

/**
 * GB rows [p0, p1) of GB += A^T * GC: TN tiles (n >= 8) or 8-row lanes
 * (n = 1, where @p p0 must lie on an 8-row boundary), then the row
 * kernel. The tiles walk GC in kIBlock-row blocks, so a block's A and
 * GC rows stay cached across every tile instead of streaming all of GC
 * once per tile.
 */
void
gemmTNRows(const float *a, const float *gc, float *gb, int64_t p0,
           int64_t p1, int64_t m, int64_t k, int64_t n)
{
    int64_t edge = p0;
    if (n >= kVecWidth) {
        edge = tiledEnd(p0, p1);
        const int64_t vec_end = n / kVecWidth * kVecWidth;
        for (int64_t i0 = 0; i0 < m; i0 += kIBlock) {
            const int64_t i1 = std::min(m, i0 + kIBlock);
            int64_t j0 = 0;
#if defined(TLP_WIDE_TILES)
            if (wideTiles())
                j0 = gemmTNWideTiles(a, gc, gb, p0, edge, i0, i1, k, n);
#endif
            for (int64_t p = p0; p < edge; p += kTileRows) {
                int64_t j = j0;
                for (; j + kTileCols <= vec_end; j += kTileCols)
                    gemmTNTile<Vec8, 2>(a, gc, gb, p, j, i0, i1, k, n);
                if (j < vec_end)
                    gemmTNTile<Vec8, 1>(a, gc, gb, p, j, i0, i1, k, n);
                gemmTNColumnTile(a, gc, gb, p, vec_end, i0, i1, k, n);
            }
        }
    } else if (n == 1) {
        edge = tiledEnd(p0, p1, kVecWidth);
        for (int64_t p = p0; p < edge; p += kVecWidth)
            gemvTNTile(a, gc, gb, p, m, k);
    }
    gemmTNRowKernel(a, gc, gb, edge, p1, m, k, n);
}

/**
 * parallelFor over rows [0, rows) in chunks that start on a boundary of
 * @p tile rows, so the thread count never changes which rows a tile
 * computes and which the row kernel does.
 */
template <typename Fn>
void
forRowTiles(int64_t rows, int64_t tile, int64_t work_per_row, const Fn &fn)
{
    const int64_t tiles = (rows + tile - 1) / tile;
    ThreadPool::global().parallelFor(
        0, tiles, rowGrain(work_per_row * tile),
        [&](int64_t t0, int64_t t1) {
            fn(t0 * tile, std::min(rows, t1 * tile));
        });
}

} // namespace

int64_t
rowGrain(int64_t work_per_row)
{
    return std::max<int64_t>(
        1, kParallelGrainWork / std::max<int64_t>(1, work_per_row));
}

void
gemmRows(const float *TLP_RESTRICT a, const float *TLP_RESTRICT b,
         float *TLP_RESTRICT c, int64_t i0, int64_t i1, int64_t k,
         int64_t n)
{
    int64_t edge = i0;
    if (n >= kVecWidth) {
        edge = tiledEnd(i0, i1);
        const int64_t vec_end = n / kVecWidth * kVecWidth;
        int64_t j0 = 0;
#if defined(TLP_WIDE_TILES)
        if (wideTiles())
            j0 = gemmWideTiles(a, b, c, i0, edge, k, n);
#endif
        for (int64_t i = i0; i < edge; i += kTileRows) {
            int64_t j = j0;
            for (; j + kTileCols <= vec_end; j += kTileCols)
                gemmTile<Vec8, 2>(a, b, c, i, j, k, n);
            if (j < vec_end)
                gemmTile<Vec8, 1>(a, b, c, i, j, k, n);
            gemmColumnTile(a, b, c, i, vec_end, k, n);
        }
    }
#if defined(TLP_ROW_LANES)
    if (n == 1)
        for (; edge + lanes::kLanes <= i1; edge += lanes::kLanes)
            gemvLanes(a, b, c, edge, k);
#endif
    gemmRowKernel(a, b, c, edge, i1, k, n);
}

void
gemm(const float *a, const float *b, float *c, int64_t m, int64_t k,
     int64_t n)
{
    forRowTiles(m, kTileRows, k * n, [&](int64_t i0, int64_t i1) {
        gemmRows(a, b, c, i0, i1, k, n);
    });
}

void
gemmNT(const float *gc, const float *b, float *ga, int64_t m, int64_t k,
       int64_t n)
{
    const float *bt = ntTiled(m, k) ? packTransposed(b, k, n) : nullptr;
    forRowTiles(m, kTileRows, k * n, [&](int64_t i0, int64_t i1) {
        gemmNTRows(gc, b, bt, ga, i0, i1, k, n);
    });
}

void
gemmTN(const float *a, const float *gc, float *gb, int64_t m, int64_t k,
       int64_t n)
{
    // n = 1 runs 8-row lanes (gemvTNTile), so its chunks start on 8 rows.
    const int64_t tile = n == 1 ? kVecWidth : kTileRows;
    forRowTiles(k, tile, m * n, [&](int64_t p0, int64_t p1) {
        gemmTNRows(a, gc, gb, p0, p1, m, k, n);
    });
}

void
bmm(const float *a, const float *b, float *c, int64_t batch, int64_t m,
    int64_t k, int64_t n)
{
    ThreadPool::global().parallelFor(
        0, batch, rowGrain(m * k * n), [&](int64_t s0, int64_t s1) {
            for (int64_t s = s0; s < s1; ++s) {
                gemmRows(a + s * m * k, b + s * k * n, c + s * m * n, 0,
                         m, k, n);
            }
        });
}

void
bmmNT(const float *gc, const float *b, float *ga, int64_t batch, int64_t m,
      int64_t k, int64_t n)
{
    ThreadPool::global().parallelFor(
        0, batch, rowGrain(m * k * n), [&](int64_t s0, int64_t s1) {
            for (int64_t s = s0; s < s1; ++s) {
                const float *bs = b + s * k * n;
                const float *bt =
                    ntTiled(m, k) ? packTransposed(bs, k, n) : nullptr;
                gemmNTRows(gc + s * m * n, bs, bt, ga + s * m * k, 0, m, k,
                           n);
            }
        });
}

void
bmmTN(const float *a, const float *gc, float *gb, int64_t batch, int64_t m,
      int64_t k, int64_t n)
{
    ThreadPool::global().parallelFor(
        0, batch, rowGrain(m * k * n), [&](int64_t s0, int64_t s1) {
            for (int64_t s = s0; s < s1; ++s) {
                gemmTNRows(a + s * m * k, gc + s * m * n, gb + s * k * n,
                           0, k, m, k, n);
            }
        });
}

} // namespace tlp::nn::kern
