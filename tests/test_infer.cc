/**
 * @file
 * Tests for the inference hot path (DESIGN.md §13): the Arena scratch
 * allocator, the in-place feature extractor, the fused forward, and the
 * primitive-seq score cache. The load-bearing claim everywhere
 * is bit-identity — fused or interpreted, cached or cold, the model
 * must predict the exact same bits.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "golden.h"

#include "features/tlp_features.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "models/feature_cache.h"
#include "models/fused_infer.h"
#include "nn/infer_ops.h"
#include "nn/kernels.h"
#include "sketch/policy.h"
#include "support/arena.h"
#include "support/rng.h"

namespace tlp {
namespace {

TEST(Arena, AlignsAndBumps)
{
    Arena arena(256);
    float *a = arena.allocFloats(3);
    float *b = arena.allocFloats(5);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % Arena::kAlign, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % Arena::kAlign, 0u);
    EXPECT_NE(a, b);
    a[0] = 1.0f;
    b[0] = 2.0f;
    EXPECT_EQ(a[0], 1.0f);
}

TEST(Arena, RewindReusesTheSamePointers)
{
    Arena arena(1024);
    const Arena::Mark mark = arena.checkpoint();
    float *first = arena.allocFloats(64);
    arena.rewind(mark);
    float *second = arena.allocFloats(64);
    // The whole point: the steady state recycles identical storage.
    EXPECT_EQ(first, second);
    EXPECT_EQ(arena.blockCount(), 1u);
}

TEST(Arena, GrowsAcrossBlocksAndStopsGrowingAtSteadyState)
{
    Arena arena(128);
    const Arena::Mark mark = arena.checkpoint();
    for (int round = 0; round < 8; ++round) {
        arena.rewind(mark);
        for (int i = 0; i < 10; ++i)
            arena.allocFloats(100);   // ~4 KB live, first block is 128 B
    }
    const size_t blocks = arena.blockCount();
    const size_t reserved = arena.reservedBytes();
    EXPECT_GT(blocks, 1u);
    for (int round = 0; round < 8; ++round) {
        arena.rewind(mark);
        for (int i = 0; i < 10; ++i)
            arena.allocFloats(100);
    }
    // Same workload after warm-up: no new blocks, no new reservation.
    EXPECT_EQ(arena.blockCount(), blocks);
    EXPECT_EQ(arena.reservedBytes(), reserved);
    EXPECT_GE(arena.highWaterBytes(), 10u * 100u * sizeof(float));
}

TEST(Arena, ResetKeepsCapacity)
{
    Arena arena(64);
    arena.allocFloats(1000);
    const size_t reserved = arena.reservedBytes();
    arena.reset();
    EXPECT_EQ(arena.reservedBytes(), reserved);
    float *p = arena.allocFloats(1000);
    EXPECT_NE(p, nullptr);
    EXPECT_EQ(arena.reservedBytes(), reserved);
}

/** std::exp's float bits, for bit-for-bit comparison. */
uint32_t
stdExpBits(float x)
{
    return std::bit_cast<uint32_t>(std::exp(x));
}

TEST(RowLanes, ExpMatchesStdExpBitForBit)
{
    if (!test::kGoldenBits)
        GTEST_SKIP() << "the vector expf is tied to glibc's expf in the "
                        "pinned x86-64-v3 build";
    // Every float in (-88, 0], the inputs the vector path computes
    // itself: bit patterns 0x80000000 (-0) up to the one below -88.
    constexpr uint32_t kFirst = 0x80000000u;
    constexpr uint32_t kEnd = 0xc2b00000u;   // -88.0f
    constexpr uint32_t kChunk = 1u << 16;
    std::vector<float> x(kChunk), y(kChunk);
    uint64_t mismatches = 0;
    uint32_t first_mismatch = 0;
    for (uint32_t base = kFirst; base < kEnd; base += kChunk) {
        const uint32_t n = std::min(kChunk, kEnd - base);
        for (uint32_t i = 0; i < n; ++i)
            x[i] = std::bit_cast<float>(base + i);
        nn::iops::expInto(x.data(), y.data(), n);
        for (uint32_t i = 0; i < n; ++i) {
            if (std::bit_cast<uint32_t>(y[i]) != stdExpBits(x[i])) {
                if (mismatches++ == 0)
                    first_mismatch = base + i;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << "first at bits 0x" << std::hex
                              << first_mismatch;

    // The lanes std::exp computes instead, mixed into groups of eight
    // with fast-path lanes: NaN payloads, the infinities, the zeros,
    // and one ulp either side of -88, of glibc's underflow bounds
    // (-103.28, -103.97) and of its overflow bound (88.72).
    const auto ulps = [](float v) {
        return std::vector<float>{std::nextafter(v, -INFINITY), v,
                                  std::nextafter(v, INFINITY)};
    };
    std::vector<float> specials = {
        std::bit_cast<float>(0x7fc00000u), std::bit_cast<float>(0xffc00000u),
        std::bit_cast<float>(0x7f800001u), std::bit_cast<float>(0xff800001u),
        std::bit_cast<float>(0x7fc12345u), std::bit_cast<float>(0xffbfffffu),
        -INFINITY, INFINITY, -0.0f, 0.0f, 1.0f, -1.5f,
    };
    for (float bound : {-88.0f, 88.0f, -0x1.9d1d9ep6f, -0x1.9fe368p6f,
                        0x1.62e42ep6f}) {
        for (float v : ulps(bound))
            specials.push_back(v);
    }
    for (size_t offset = 0; offset < 8; ++offset) {
        std::vector<float> in(offset, -0.25f);
        in.insert(in.end(), specials.begin(), specials.end());
        std::vector<float> out(in.size());
        nn::iops::expInto(in.data(), out.data(),
                          static_cast<int64_t>(in.size()));
        for (size_t i = 0; i < in.size(); ++i)
            EXPECT_EQ(std::bit_cast<uint32_t>(out[i]), stdExpBits(in[i]))
                << "x bits 0x" << std::hex << std::bit_cast<uint32_t>(in[i]);
    }
}

/**
 * @p rows x @p cols floats for the row kernels: seeded values in
 * [-4, 4), and rows of every kind a row lane must carry like a lone
 * row: one NaN, +inf or -inf among finite values, all -inf, one value
 * repeated, and denormals.
 */
std::vector<float>
kernelRows(int64_t rows, int64_t cols, Rng &rng)
{
    std::vector<float> x(static_cast<size_t>(rows * cols));
    for (float &v : x)
        v = static_cast<float>(rng.uniform(-4.0, 4.0));
    for (int64_t r = 0; r < rows; ++r) {
        float *row = x.data() + r * cols;
        const int64_t at = rng.randint(cols);
        switch (r % 8) {
        case 1: row[at] = std::numeric_limits<float>::quiet_NaN(); break;
        case 2: row[at] = INFINITY; break;
        case 3: row[at] = -INFINITY; break;
        case 4: std::fill(row, row + cols, -INFINITY); break;
        case 5: std::fill(row, row + cols, row[at]); break;
        case 6:
            for (int64_t c = 0; c < cols; ++c)
                row[c] *= 1e-39f;
            break;
        default: break;
        }
    }
    return x;
}

/** Float bits of @p v, so that NaNs compare by payload too. */
std::vector<uint32_t>
bitsOf(const std::vector<float> &v)
{
    std::vector<uint32_t> bits(v.size());
    std::memcpy(bits.data(), v.data(), v.size() * sizeof(float));
    return bits;
}

TEST(RowLanes, LanesMatchOneRowCalls)
{
    // Each kernel over rows [r0, r1) in one call, where groups of rows
    // share lanes or tiles, and one row per call, where no row does:
    // every output bit must agree.
    constexpr int64_t kMaxRows = 17;
    Rng rng(0x1a7e5);
    for (int64_t cols = 1; cols <= 70; ++cols) {
        const int64_t rows = 3 + kMaxRows + 1;
        const std::vector<float> x = kernelRows(rows, cols, rng);
        const std::vector<float> gamma = kernelRows(1, cols, rng);
        const std::vector<float> beta = kernelRows(1, cols, rng);
        for (int64_t r0 : {1, 3}) {
            for (int64_t count = 0; count <= kMaxRows; ++count) {
                const int64_t r1 = r0 + count;
                const auto size = static_cast<size_t>(rows * cols);
                std::vector<float> grouped(size), single(size);
                nn::iops::softmaxRows(x.data(), grouped.data(), r0, r1,
                                      cols);
                for (int64_t r = r0; r < r1; ++r)
                    nn::iops::softmaxRows(x.data(), single.data(), r, r + 1,
                                          cols);
                EXPECT_EQ(bitsOf(grouped), bitsOf(single))
                    << "softmax cols=" << cols << " rows " << r0 << ".."
                    << r1;

                std::vector<float> stats_g(2 * rows), stats_s(2 * rows);
                nn::iops::layerNormRows(x.data(), gamma.data(), beta.data(),
                                        grouped.data(), stats_g.data(), r0,
                                        r1, cols, 1e-5f);
                for (int64_t r = r0; r < r1; ++r)
                    nn::iops::layerNormRows(x.data(), gamma.data(),
                                            beta.data(), single.data(),
                                            stats_s.data(), r, r + 1, cols,
                                            1e-5f);
                EXPECT_EQ(bitsOf(grouped), bitsOf(single))
                    << "layer norm cols=" << cols << " rows " << r0 << ".."
                    << r1;
                EXPECT_EQ(bitsOf(stats_g), bitsOf(stats_s))
                    << "layer norm stats cols=" << cols;

                // gemmRows: here cols is n, the output width. The
                // special rows are A's; a NaN or inf in B would reach
                // every output.
                for (int64_t k : {1, 5, 8, 13, 70}) {
                    const std::vector<float> a = kernelRows(rows, k, rng);
                    std::vector<float> b(static_cast<size_t>(k * cols));
                    for (float &v : b)
                        v = static_cast<float>(rng.uniform(-1.0, 1.0));
                    nn::kern::gemmRows(a.data(), b.data(), grouped.data(),
                                       r0, r1, k, cols);
                    for (int64_t r = r0; r < r1; ++r)
                        nn::kern::gemmRows(a.data(), b.data(),
                                           single.data(), r, r + 1, k,
                                           cols);
                    EXPECT_EQ(bitsOf(grouped), bitsOf(single))
                        << "gemm k=" << k << " n=" << cols << " rows "
                        << r0 << ".." << r1;
                }
            }
        }
    }
}

/**
 * Deterministic candidate schedules from the real sketch policy. Small
 * subgraphs dedup to few unique schedules, so pool across the
 * workload's subgraphs until @p n states are gathered.
 */
std::vector<sched::State>
samplePopulation(size_t n, uint64_t seed)
{
    static const ir::Workload workload =
        ir::partitionGraph(ir::buildNetwork("mlp-mixer"));
    Rng rng(seed);
    std::vector<sched::State> states;
    while (states.size() < n) {
        for (const auto &subgraph : workload.subgraphs) {
            sketch::SchedulePolicy policy(subgraph, false);
            for (auto &state : policy.sampleInitPopulation(
                     static_cast<int>(n), rng)) {
                if (states.size() < n)
                    states.push_back(std::move(state));
            }
        }
    }
    return states;
}

TEST(TlpFeatures, ExtractIntoMatchesReturningExtractor)
{
    const auto states = samplePopulation(8, 41);
    ASSERT_FALSE(states.empty());
    feat::TlpFeatureOptions options;
    const size_t dim = static_cast<size_t>(options.seq_len) *
                       static_cast<size_t>(options.emb_size);
    std::vector<float> row(dim);
    for (const sched::State &state : states) {
        const auto expect =
            feat::extractTlpFeatures(state.steps(), options);
        ASSERT_EQ(expect.size(), dim);
        feat::extractTlpFeaturesInto(state.steps(), options, row.data());
        EXPECT_EQ(std::memcmp(row.data(), expect.data(),
                              dim * sizeof(float)),
                  0);
    }
}

TEST(SeqKey, DistinguishesSequencesAndIsStable)
{
    const auto states = samplePopulation(16, 42);
    ASSERT_GE(states.size(), 2u);
    std::vector<model::SeqKey> keys;
    for (const sched::State &state : states)
        keys.push_back(model::seqKeyOf(state.steps()));
    for (size_t i = 0; i < keys.size(); ++i) {
        EXPECT_TRUE(keys[i] == model::seqKeyOf(states[i].steps()));
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_FALSE(keys[i] == keys[j]);
    }
}

/** Fresh TlpNet of @p config, seeded deterministically. */
std::shared_ptr<model::TlpNet>
makeNet(const model::TlpNetConfig &config, uint64_t seed = 7)
{
    Rng rng(seed);
    return std::make_shared<model::TlpNet>(config, rng);
}

/**
 * Move every parameter of @p net off its initial value by seeded noise,
 * as training would: a fresh net's layer norms are the identity affine
 * (gamma 1, beta 0), under which a reordered epilogue rounds the same.
 */
void
perturbParameters(model::TlpNet &net, uint64_t seed)
{
    Rng rng(seed);
    for (nn::Tensor &param : net.parameters())
        for (float &value : param.value())
            value += static_cast<float>(rng.uniform(-0.1, 0.1));
}

/** scoreStates through a model built with @p options. */
std::vector<double>
scoresWith(std::shared_ptr<model::TlpNet> net,
           const model::TlpInferOptions &options,
           const std::vector<sched::State> &states, int task = 0)
{
    model::TlpCostModel cost_model(std::move(net), {}, task, options);
    return cost_model.scoreStates(task, states);
}

TEST(FusedInfer, MatchesInterpretedBitForBit)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    config.head_hidden = 16;
    auto fresh = makeNet(config);
    auto trained = makeNet(config);
    perturbParameters(*trained, 46);
    for (const auto &net : {fresh, trained}) {
        // Row counts straddling the block size: partial, exact,
        // multi-block.
        for (int n : {1, 5, 16, 33}) {
            const auto states = samplePopulation(n, 43);
            ASSERT_FALSE(states.empty());
            const auto legacy =
                scoresWith(net, model::TlpInferOptions::legacy(), states);
            const auto fused =
                scoresWith(net, model::TlpInferOptions{true, 0}, states);
            EXPECT_EQ(legacy, fused)
                << "rows=" << n << (net == trained ? " perturbed" : "");
        }
    }
}

TEST(FusedInfer, MatchesInterpretedAcrossConfigs)
{
    // configs[3] is the served default (hidden 64, 8 heads of 8, the
    // tune and fleet model); configs[4] leaves lane and vector tails:
    // heads of 9 columns, and a head width of 20.
    std::vector<model::TlpNetConfig> configs(5);
    configs[0].hidden = 32;
    configs[0].heads = 4;
    configs[1].hidden = 48;
    configs[1].heads = 6;
    configs[1].residual_blocks = 1;
    configs[1].head_hidden = 24;
    configs[2].hidden = 32;
    configs[2].heads = 8;
    configs[2].num_tasks = 3;
    configs[4].hidden = 36;
    configs[4].heads = 4;
    configs[4].head_hidden = 20;
    const auto states = samplePopulation(20, 44);
    for (const auto &config : configs) {
        auto net = makeNet(config, 11);
        for (int task = 0; task < config.num_tasks; ++task) {
            const auto legacy = scoresWith(
                net, model::TlpInferOptions::legacy(), states, task);
            const auto fused = scoresWith(
                net, model::TlpInferOptions{true, 0}, states, task);
            EXPECT_EQ(legacy, fused)
                << "hidden=" << config.hidden << " task=" << task;
        }
    }
}

TEST(FusedInfer, AllOptionCombinationsAgree)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    auto net = makeNet(config);
    const auto states = samplePopulation(24, 45);
    const auto baseline =
        scoresWith(net, model::TlpInferOptions::legacy(), states);
    EXPECT_EQ(baseline,
              scoresWith(net, model::TlpInferOptions{false, 64}, states));
    EXPECT_EQ(baseline,
              scoresWith(net, model::TlpInferOptions{true, 0}, states));
    EXPECT_EQ(baseline,
              scoresWith(net, model::TlpInferOptions{true, 64}, states));
}

TEST(FusedInfer, LstmBackboneFallsBackToInterpreted)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    config.lstm_backbone = true;
    auto net = makeNet(config);
    const auto states = samplePopulation(6, 46);
    // fused=true must silently use the interpreted path (and still may
    // cache): identical scores, no crash.
    const auto legacy =
        scoresWith(net, model::TlpInferOptions::legacy(), states);
    EXPECT_EQ(legacy,
              scoresWith(net, model::TlpInferOptions{true, 64}, states));
}

TEST(FusedInfer, RefreshReportsExactlyWhenWeightsMove)
{
    // Every backbone keeps the slab, so the LSTM one detects moves too.
    for (const bool lstm : {false, true}) {
        model::TlpNetConfig config;
        config.hidden = 32;
        config.heads = 4;
        config.lstm_backbone = lstm;
        auto net = makeNet(config);
        model::FusedTlpInference fused(net);
        EXPECT_FALSE(fused.refresh()) << lstm;
        float &weight = net->parameters().front().value()[0];
        weight += 0.25f;
        EXPECT_TRUE(fused.refresh()) << lstm;
        EXPECT_FALSE(fused.refresh()) << lstm;
        // Moving back is a move too; an unmoved net never is.
        weight -= 0.25f;
        EXPECT_TRUE(fused.refresh()) << lstm;
        EXPECT_FALSE(fused.refresh()) << lstm;
    }
}

TEST(FeatureCache, LstmMemosInvalidateWhenParametersChange)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    config.lstm_backbone = true;
    auto net = makeNet(config);
    model::TlpCostModel cached(net, {}, 0, model::TlpInferOptions{true, 64});
    const auto states = samplePopulation(6, 52);
    const auto before = cached.scoreStates(0, states);
    net->parameters().back().value()[0] += 0.25f;
    const auto after = cached.scoreStates(0, states);
    EXPECT_EQ(after,
              scoresWith(net, model::TlpInferOptions::legacy(), states));
    EXPECT_NE(after, before);
}

TEST(FeatureCache, InterleavedGenerationsMatchUncached)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    auto net = makeNet(config);
    model::TlpCostModel cached(net, {}, 0,
                               model::TlpInferOptions{true, 256});
    model::TlpCostModel uncached(net, {}, 0,
                                 model::TlpInferOptions{true, 0});

    // Evolution-shaped workload: each generation keeps survivors from
    // the previous one (score-memo hits), mutates some (fresh rows), and
    // injects duplicates (same-batch repeats).
    static const ir::Workload workload =
        ir::partitionGraph(ir::buildNetwork("mlp-mixer"));
    sketch::SchedulePolicy policy(workload.subgraphs[0], false);
    Rng rng(47);
    std::vector<sched::State> population =
        policy.sampleInitPopulation(24, rng);
    ASSERT_FALSE(population.empty());
    for (int generation = 0; generation < 4; ++generation) {
        // Duplicates inside one batch are scored before either is cached.
        std::vector<sched::State> batch = population;
        batch.push_back(population[0]);
        batch.push_back(population[population.size() / 2]);
        const auto hot = cached.scoreStates(0, batch);
        const auto cold = uncached.scoreStates(0, batch);
        ASSERT_EQ(hot, cold) << "generation " << generation;
        // Survivors + mutants for the next round.
        std::vector<sched::State> next(population.begin(),
                                       population.begin() +
                                           population.size() / 2);
        for (const sched::State &state : population) {
            if (auto mutant = policy.mutate(state, rng))
                next.push_back(std::move(*mutant));
        }
        population = std::move(next);
    }
    const auto stats = cached.cacheStats();
    EXPECT_GT(stats.score_hits, 0u);     // survivors + in-batch dups
    EXPECT_GT(stats.misses, 0u);         // fresh mutants
    EXPECT_EQ(uncached.cacheStats().score_hits, 0u);
}

TEST(FeatureCache, TinyCapacityEvictsButNeverChangesScores)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    auto net = makeNet(config);
    model::TlpCostModel tiny(net, {}, 0, model::TlpInferOptions{true, 4});
    const auto states = samplePopulation(32, 48);
    ASSERT_GT(states.size(), 4u);
    const auto baseline =
        scoresWith(net, model::TlpInferOptions::legacy(), states);
    // Thrash the 4-entry cache repeatedly; every pass must match.
    for (int pass = 0; pass < 3; ++pass)
        EXPECT_EQ(tiny.scoreStates(0, states), baseline) << pass;
    EXPECT_GT(tiny.cacheStats().evictions, 0u);
}

TEST(FeatureCache, ScoreMemosInvalidateWhenParametersChange)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    auto net = makeNet(config);
    model::TlpCostModel cached(net, {}, 0,
                               model::TlpInferOptions{true, 256});
    const auto states = samplePopulation(12, 49);
    const auto before = cached.scoreStates(0, states);
    EXPECT_EQ(before, cached.scoreStates(0, states));

    // Perturb the head's output bias in place — what continued training
    // does; this bias shifts every score, so the change must show.
    net->parameters().back().value()[0] += 0.25f;
    const auto after = cached.scoreStates(0, states);
    const auto fresh =
        scoresWith(net, model::TlpInferOptions::legacy(), states);
    EXPECT_EQ(after, fresh);
    EXPECT_NE(after, before);
}

TEST(FeatureCache, DuplicatesAndStaleMemosScoreFreshOnce)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    const auto states = samplePopulation(12, 51);
    ASSERT_EQ(states.size(), 12u);
    for (const bool fused : {false, true}) {
        auto net = makeNet(config);
        model::TlpCostModel cached(net, {}, 0,
                                   model::TlpInferOptions{fused, 256});
        // Memoize the first half, then move the weights: those memos
        // are now stale.
        const std::vector<sched::State> first(states.begin(),
                                              states.begin() + 6);
        cached.scoreStates(0, first);
        net->parameters().back().value()[0] += 0.25f;

        // Two stale memos, six unseen candidates, and in-batch
        // duplicates of both kinds (one key three times).
        std::vector<sched::State> batch(states.begin() + 4, states.end());
        batch.push_back(states[4]);
        batch.push_back(states[9]);
        batch.push_back(states[9]);
        const auto legacy =
            scoresWith(net, model::TlpInferOptions::legacy(), batch);
        const auto before = cached.cacheStats();
        EXPECT_EQ(cached.scoreStates(0, batch), legacy) << fused;
        const auto after = cached.cacheStats();
        EXPECT_EQ(after.score_hits, before.score_hits) << fused;
        EXPECT_EQ(after.misses - before.misses, batch.size()) << fused;

        // Every distinct key holds exactly one entry, now memoized.
        std::set<std::pair<uint64_t, uint64_t>> distinct;
        for (const sched::State &state : states) {
            const model::SeqKey key = model::seqKeyOf(state.steps());
            distinct.insert({key.lo, key.hi});
        }
        EXPECT_EQ(cached.cacheSize(),
                  static_cast<int64_t>(distinct.size()))
            << fused;
        EXPECT_EQ(cached.scoreStates(0, batch), legacy) << fused;
        const auto again = cached.cacheStats();
        EXPECT_EQ(again.score_hits - after.score_hits, batch.size())
            << fused;
        EXPECT_EQ(again.score_hits + again.misses,
                  first.size() + 2 * batch.size())
            << fused;
        EXPECT_EQ(again.feature_hits, 0u) << fused;
        EXPECT_EQ(again.bypasses, 0u) << fused;
        EXPECT_EQ(again.evictions, 0u) << fused;
    }
}

TEST(FeatureCache, EvictionUnitSemantics)
{
    const auto states = samplePopulation(8, 50);
    ASSERT_GE(states.size(), 5u);
    model::FeatureCache cache(2);
    std::vector<model::SeqKey> keys;
    for (const sched::State &state : states)
        keys.push_back(model::seqKeyOf(state.steps()));

    const int64_t s0 = cache.insert(keys[0]);
    const int64_t s1 = cache.insert(keys[1]);
    EXPECT_EQ(cache.find(keys[0]), s0);
    EXPECT_EQ(cache.find(keys[1]), s1);
    cache.storeScore(s0, 0, 9, 1.5);
    double score = 0.0;
    EXPECT_TRUE(cache.scoreAt(s0, 0, 9, &score));
    EXPECT_EQ(score, 1.5);
    EXPECT_FALSE(cache.scoreAt(s0, 1, 9, &score));  // other task
    EXPECT_FALSE(cache.scoreAt(s0, 0, 8, &score));  // other epoch

    // Third insert evicts the oldest (keys[0]) and reuses its slot —
    // including clearing the score memo.
    const int64_t s2 = cache.insert(keys[2]);
    EXPECT_EQ(s2, s0);
    EXPECT_EQ(cache.find(keys[0]), -1);
    EXPECT_EQ(cache.find(keys[2]), s2);
    EXPECT_FALSE(cache.scoreAt(s2, 0, 9, &score));
    EXPECT_EQ(cache.stats().evictions, 1u);

    // Hammer it: many inserts over a 2-entry cache stay consistent.
    for (int round = 0; round < 50; ++round) {
        const model::SeqKey &key =
            keys[static_cast<size_t>(round) % keys.size()];
        if (cache.find(key) < 0)
            cache.insert(key);
        EXPECT_GE(cache.find(key), 0);
    }
    EXPECT_EQ(cache.size(), 2);
}

} // namespace
} // namespace tlp
