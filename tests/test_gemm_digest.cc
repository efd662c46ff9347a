/**
 * @file
 * Golden digests of the GEMM kernels' output bits.
 *
 * Each case runs one of the six kernel forms over every combination of
 * m in {1, 3, 4, 5, 400, 403}, k in {1, 8, 22, 25, 64, 70} and
 * n in {1, 8, 16, 25, 64, 80}: single rows and columns, sizes below,
 * at and one past the 4-row x 16-column register tile, the attention
 * and embedding widths, and the training shapes with ragged edges.
 * The 64- to 80-wide outputs also take the 4 x 32 tiles on an AVX-512
 * CPU (n = 80 hands its last 16 columns on to a 4 x 16 tile), and their
 * digests are the same there: the CPU picks which tile computes an
 * element, never its bits. Operands are random floats; the NT and TN
 * forms accumulate into random, non-zero outputs. An FNV-1a digest over
 * every output's float bits must equal the pinned value at 1, 2 and 4
 * threads, so any change to a kernel's per-element float operations, or
 * to which code computes an element under some partition, moves a
 * digest.
 *
 * GemmTiles checks the forward and backward tiles against the row
 * kernels with no golden value, so it runs in every build, the
 * sanitizer builds too.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "golden.h"
#include "nn/kernels.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace tlp {
namespace {

constexpr int64_t kRows[] = {1, 3, 4, 5, 400, 403};
constexpr int64_t kInner[] = {1, 8, 22, 25, 64, 70};
constexpr int64_t kCols[] = {1, 8, 16, 25, 64, 80};
constexpr int64_t kBatch = 3;

std::vector<float>
randomFloats(int64_t count, Rng &rng)
{
    std::vector<float> values(static_cast<size_t>(count));
    for (float &v : values)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return values;
}

/**
 * One kernel call on fresh operands of the given shape: @p x and @p y
 * are the inputs, @p out is the output (random on entry, so the
 * accumulating forms add into non-zero values).
 */
using KernelCall = std::function<void(const float *x, const float *y,
                                      float *out, int64_t m, int64_t k,
                                      int64_t n)>;

/** Element counts of (x, y, out) for one call at shape (m, k, n). */
struct Sizes
{
    int64_t x, y, out;
};
using SizeFn = std::function<Sizes(int64_t m, int64_t k, int64_t n)>;

/** Digest of every output over the full shape grid, at one thread count. */
uint64_t
gridDigest(const KernelCall &call, const SizeFn &sizes)
{
    Rng rng(0x6e33);
    uint64_t digest = 1469598103934665603ull;
    for (int64_t m : kRows) {
        for (int64_t k : kInner) {
            for (int64_t n : kCols) {
                const Sizes s = sizes(m, k, n);
                const std::vector<float> x = randomFloats(s.x, rng);
                const std::vector<float> y = randomFloats(s.y, rng);
                std::vector<float> out = randomFloats(s.out, rng);
                call(x.data(), y.data(), out.data(), m, k, n);
                digest = fnv1a(out.data(), out.size() * sizeof(float),
                               digest);
            }
        }
    }
    return digest;
}

/** gridDigest at 1, 2 and 4 threads, each checked against @p pinned. */
void
expectDigest(const KernelCall &call, const SizeFn &sizes, uint64_t pinned)
{
    if (!test::kGoldenBits)
        GTEST_SKIP() << "digests are pinned for the uninstrumented "
                        "x86-64-v3 build";
    for (int threads : {1, 2, 4}) {
        ThreadPool::setGlobalThreads(threads);
        const uint64_t digest = gridDigest(call, sizes);
        EXPECT_EQ(digest, pinned)
            << "threads " << threads << ": 0x" << std::hex << digest;
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
}

TEST(GemmDigest, Forward)
{
    expectDigest(
        [](const float *a, const float *b, float *c, int64_t m, int64_t k,
           int64_t n) { nn::kern::gemm(a, b, c, m, k, n); },
        [](int64_t m, int64_t k, int64_t n) {
            return Sizes{m * k, k * n, m * n};
        },
        0x86478aa817dabdf9ull);
}

TEST(GemmDigest, NT)
{
    expectDigest(
        [](const float *gc, const float *b, float *ga, int64_t m,
           int64_t k, int64_t n) { nn::kern::gemmNT(gc, b, ga, m, k, n); },
        [](int64_t m, int64_t k, int64_t n) {
            return Sizes{m * n, k * n, m * k};
        },
        0x9eee5bae592cd208ull);
}

TEST(GemmDigest, TN)
{
    expectDigest(
        [](const float *a, const float *gc, float *gb, int64_t m,
           int64_t k, int64_t n) { nn::kern::gemmTN(a, gc, gb, m, k, n); },
        [](int64_t m, int64_t k, int64_t n) {
            return Sizes{m * k, m * n, k * n};
        },
        0x9c649685f08cdf27ull);
}

TEST(GemmDigest, Bmm)
{
    expectDigest(
        [](const float *a, const float *b, float *c, int64_t m, int64_t k,
           int64_t n) { nn::kern::bmm(a, b, c, kBatch, m, k, n); },
        [](int64_t m, int64_t k, int64_t n) {
            return Sizes{kBatch * m * k, kBatch * k * n, kBatch * m * n};
        },
        0xc767000d0c531547ull);
}

TEST(GemmDigest, BmmNT)
{
    expectDigest(
        [](const float *gc, const float *b, float *ga, int64_t m,
           int64_t k, int64_t n) {
            nn::kern::bmmNT(gc, b, ga, kBatch, m, k, n);
        },
        [](int64_t m, int64_t k, int64_t n) {
            return Sizes{kBatch * m * n, kBatch * k * n, kBatch * m * k};
        },
        0x7cc026f47364ba9eull);
}

TEST(GemmDigest, BmmTN)
{
    expectDigest(
        [](const float *a, const float *gc, float *gb, int64_t m,
           int64_t k, int64_t n) {
            nn::kern::bmmTN(a, gc, gb, kBatch, m, k, n);
        },
        [](int64_t m, int64_t k, int64_t n) {
            return Sizes{kBatch * m * k, kBatch * m * n, kBatch * k * n};
        },
        0x3e9433185ab21132ull);
}

/** Whether @p got and @p want hold the same float bits. */
bool
sameBits(const std::vector<float> &got, const std::vector<float> &want)
{
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(),
                       got.size() * sizeof(float)) == 0;
}

/** Rows, inner sizes and (below) columns the tile tests run: 1..30. */
constexpr int64_t kMax = 30;

/**
 * Output column counts the tile tests run: 1..30, which covers every
 * column edge of the 8- and 16-column tiles, then one below, at and one
 * past one and two 32-column tiles (AVX-512 CPUs), so each hand-off to
 * the 16-, 8- and scalar-column tiles is checked.
 */
std::vector<int64_t>
tileColumns()
{
    std::vector<int64_t> columns;
    for (int64_t n = 1; n <= kMax; ++n)
        columns.push_back(n);
    for (int64_t n : {31, 32, 33, 47, 48, 49, 63, 64, 65})
        columns.push_back(n);
    return columns;
}

/** Batches the batched forms run; 65 is tileColumns()'s largest. */
constexpr int64_t kBatches = 2;
constexpr int64_t kOperand = kBatches * 65 * 65;

/**
 * Every C row that a whole-matrix gemm or bmm computes, in tiles
 * wherever the shape allows, must have the bits of the same row
 * computed one row per call, which always takes the row kernel. m and k
 * run 1..30 and n over tileColumns(): every row edge of the 4-row tiles
 * and the 8-row n = 1 lanes, every column edge of the tiles, and the
 * attention shapes (k, n) = (8, 25) and (25, 8).
 */
TEST(GemmTiles, ForwardTilesMatchOneRowCalls)
{
    Rng rng(0xf04d);
    const std::vector<float> pool = randomFloats(3 * kOperand, rng);
    const float *x = pool.data();
    const float *y = x + kOperand;
    const float *start = y + kOperand;
    for (int64_t m = 1; m <= kMax; ++m) {
        for (int64_t k = 1; k <= kMax; ++k) {
            for (int64_t n : tileColumns()) {
                // C[m, n] = A[m, k] * B[k, n], x = A, y = B.
                const int64_t c = m * n;
                std::vector<float> rows(start, start + kBatches * c);
                for (int64_t s = 0; s < kBatches; ++s)
                    for (int64_t i = 0; i < m; ++i)
                        nn::kern::gemm(x + s * m * k + i * k, y + s * k * n,
                                       rows.data() + s * c + i * n, 1, k, n);
                std::vector<float> whole(start, start + c);
                nn::kern::gemm(x, y, whole.data(), m, k, n);
                ASSERT_TRUE(sameBits(whole, {rows.begin(),
                                             rows.begin() + c}))
                    << "gemm m=" << m << " k=" << k << " n=" << n;
                whole.assign(start, start + kBatches * c);
                nn::kern::bmm(x, y, whole.data(), kBatches, m, k, n);
                ASSERT_TRUE(sameBits(whole, rows))
                    << "bmm m=" << m << " k=" << k << " n=" << n;
            }
        }
    }
}

/**
 * Every GA row (NT) and GB row (TN) that a whole-matrix call computes,
 * in tiles wherever the shape allows, must have the bits of the same
 * row computed one row per call, which always takes the row kernel.
 * m runs 1..30, and k and n, the output columns of NT and TN, run over
 * tileColumns(): every row edge of the 4-row tiles and the 8-row n = 1
 * lanes, every column edge of the tiles, and the attention shapes
 * (k, n) = (8, 25) and (25, 8). The batched forms run two batches.
 */
TEST(GemmTiles, BackwardTilesMatchOneRowCalls)
{
    Rng rng(0x711e);
    const std::vector<float> pool = randomFloats(3 * kOperand, rng);
    const float *x = pool.data();
    const float *y = x + kOperand;
    const float *start = y + kOperand;
    std::vector<float> column(kMax);
    for (int64_t m = 1; m <= kMax; ++m) {
        for (int64_t k : tileColumns()) {
            for (int64_t n : tileColumns()) {
                // NT: GA[m, k] += GC[m, n] * B[k, n]^T, x = GC, y = B.
                const int64_t ga = m * k;
                std::vector<float> rows(start, start + kBatches * ga);
                for (int64_t s = 0; s < kBatches; ++s)
                    for (int64_t i = 0; i < m; ++i)
                        nn::kern::gemmNT(x + s * m * n + i * n, y + s * k * n,
                                         rows.data() + s * ga + i * k, 1, k,
                                         n);
                std::vector<float> whole(start, start + ga);
                nn::kern::gemmNT(x, y, whole.data(), m, k, n);
                ASSERT_TRUE(sameBits(whole, {rows.begin(),
                                             rows.begin() + ga}))
                    << "gemmNT m=" << m << " k=" << k << " n=" << n;
                whole.assign(start, start + kBatches * ga);
                nn::kern::bmmNT(x, y, whole.data(), kBatches, m, k, n);
                ASSERT_TRUE(sameBits(whole, rows))
                    << "bmmNT m=" << m << " k=" << k << " n=" << n;

                // TN: GB[k, n] += A[m, k]^T * GC[m, n], x = A, y = GC;
                // one GB row per call is a k = 1 call on A's column.
                const int64_t gb = k * n;
                rows.assign(start, start + kBatches * gb);
                for (int64_t s = 0; s < kBatches; ++s) {
                    for (int64_t p = 0; p < k; ++p) {
                        for (int64_t i = 0; i < m; ++i)
                            column[static_cast<size_t>(i)] =
                                x[s * m * k + i * k + p];
                        nn::kern::gemmTN(column.data(), y + s * m * n,
                                         rows.data() + s * gb + p * n, m, 1,
                                         n);
                    }
                }
                whole.assign(start, start + gb);
                nn::kern::gemmTN(x, y, whole.data(), m, k, n);
                ASSERT_TRUE(sameBits(whole, {rows.begin(),
                                             rows.begin() + gb}))
                    << "gemmTN m=" << m << " k=" << k << " n=" << n;
                whole.assign(start, start + kBatches * gb);
                nn::kern::bmmTN(x, y, whole.data(), kBatches, m, k, n);
                ASSERT_TRUE(sameBits(whole, rows))
                    << "bmmTN m=" << m << " k=" << k << " n=" << n;
            }
        }
    }
}

} // namespace
} // namespace tlp
