/**
 * @file
 * Tests for the inference hot path (DESIGN.md §13): the Arena scratch
 * allocator, the in-place feature extractor, the fused forward, and the
 * primitive-seq score cache. The load-bearing claim everywhere
 * is bit-identity — fused or interpreted, cached or cold, the model
 * must predict the exact same bits.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "features/tlp_features.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "models/feature_cache.h"
#include "models/fused_infer.h"
#include "sketch/policy.h"
#include "support/arena.h"

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
    auto net = makeNet(config);
    // Row counts straddling the block size: partial, exact, multi-block.
    for (int n : {1, 5, 16, 33}) {
        const auto states = samplePopulation(n, 43);
        ASSERT_FALSE(states.empty());
        const auto legacy =
            scoresWith(net, model::TlpInferOptions::legacy(), states);
        const auto fused =
            scoresWith(net, model::TlpInferOptions{true, 0}, states);
        EXPECT_EQ(legacy, fused) << "rows=" << n;
    }
}

TEST(FusedInfer, MatchesInterpretedAcrossConfigs)
{
    std::vector<model::TlpNetConfig> configs(3);
    configs[0].hidden = 32;
    configs[0].heads = 4;
    configs[1].hidden = 48;
    configs[1].heads = 6;
    configs[1].residual_blocks = 1;
    configs[1].head_hidden = 24;
    configs[2].hidden = 32;
    configs[2].heads = 8;
    configs[2].num_tasks = 3;
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
