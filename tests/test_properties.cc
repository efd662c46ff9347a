/**
 * @file
 * Property-based (parameterized) tests: invariants that must hold for
 * every network in the zoo and across many random schedules.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "features/ansor_features.h"
#include "features/tlp_features.h"
#include "hwmodel/simulator.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "schedule/lower.h"
#include "sketch/policy.h"
#include "sketch/tiles.h"
#include "support/stats.h"

namespace tlp {
namespace {

// ---------------------------------------------------------------------
// Per-network properties.
// ---------------------------------------------------------------------

class NetworkProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(NetworkProperty, PartitionWeightsArePositive)
{
    const auto workload = ir::partitionGraph(ir::buildNetwork(GetParam()));
    ASSERT_FALSE(workload.subgraphs.empty());
    for (size_t i = 0; i < workload.subgraphs.size(); ++i) {
        EXPECT_GE(workload.weights[i], 1);
        EXPECT_FALSE(workload.subgraphs[i]->key().empty());
    }
}

TEST_P(NetworkProperty, SubgraphKeysAreDistinctWithinWorkload)
{
    const auto workload = ir::partitionGraph(ir::buildNetwork(GetParam()));
    std::set<std::string> keys;
    for (const auto &subgraph : workload.subgraphs)
        EXPECT_TRUE(keys.insert(subgraph->key()).second)
            << subgraph->key();
}

TEST_P(NetworkProperty, RandomSchedulesReplayExactly)
{
    const auto workload = ir::partitionGraph(ir::buildNetwork(GetParam()));
    Rng rng(fnv1a(GetParam().data(), GetParam().size()));
    for (size_t i = 0; i < std::min<size_t>(4, workload.subgraphs.size());
         ++i) {
        for (bool gpu : {false, true}) {
            sketch::SchedulePolicy policy(workload.subgraphs[i], gpu);
            const auto state = policy.sampleRandom(rng);
            const auto replayed = sched::replaySteps(
                workload.subgraphs[i], gpu, state.steps());
            EXPECT_EQ(replayed.steps(), state.steps());
            ASSERT_EQ(replayed.numStages(), state.numStages());
            for (int s = 0; s < state.numStages(); ++s) {
                EXPECT_EQ(replayed.stage(s).totalExtent(),
                          state.stage(s).totalExtent());
            }
        }
    }
}

TEST_P(NetworkProperty, SimulatedLatencyFiniteAndScheduleSensitive)
{
    const auto workload = ir::partitionGraph(ir::buildNetwork(GetParam()));
    Rng rng(3 + fnv1a(GetParam().data(), GetParam().size()));
    hw::LatencySimulator sim(hw::HardwarePlatform::preset("e5-2673"));
    const auto &subgraph = workload.subgraphs[0];
    sketch::SchedulePolicy policy(subgraph, false);
    std::set<double> latencies;
    for (int trial = 0; trial < 6; ++trial) {
        const auto state = policy.sampleRandom(rng);
        const double latency = sim.latencyMs(sched::lower(state));
        EXPECT_TRUE(std::isfinite(latency));
        EXPECT_GT(latency, 0.0);
        latencies.insert(latency);
    }
    EXPECT_GE(latencies.size(), 2u);   // schedules matter
}

TEST_P(NetworkProperty, TlpFeaturesDeterministicAndBounded)
{
    const auto workload = ir::partitionGraph(ir::buildNetwork(GetParam()));
    Rng rng(11);
    sketch::SchedulePolicy policy(workload.subgraphs[0], false);
    const auto state = policy.sampleRandom(rng);
    const auto a = feat::extractTlpFeatures(state.steps());
    const auto b = feat::extractTlpFeatures(state.steps());
    EXPECT_EQ(a, b);
    for (float v : a) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_LT(std::abs(v), 100.0f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, NetworkProperty, ::testing::ValuesIn(ir::allNetworkNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ---------------------------------------------------------------------
// Schedule-transform invariants over random dense shapes.
// ---------------------------------------------------------------------

class SplitProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int>>
{
};

TEST_P(SplitProperty, SplitConservesCoverage)
{
    const auto [extent, parts] = GetParam();
    ir::ComputeGraph g("t");
    auto x = g.input({extent, 64});
    g.dense(x, 32);
    auto sg = std::make_shared<ir::Subgraph>(g.nodes(), 2);

    Rng rng(static_cast<uint64_t>(extent * 131 + parts));
    sched::State state(sg, false);
    const auto lengths =
        sketch::sampleTileLengths(rng, extent, parts);
    state.split(2, 0, lengths);

    // Product of the parts' extents >= original extent (ceil rounding),
    // and total coverage of original iter 0 spans the full extent.
    int64_t product = 1;
    int64_t covered = 1;
    const sched::Stage &stage = state.stage(2);
    for (size_t q = 0; q < stage.iters.size(); ++q) {
        const sched::Iterator &iter = stage.iters[q];
        bool covers_zero = false;
        for (const auto &[orig, ext] : iter.coverage)
            covers_zero |= orig == 0;
        if (covers_zero || iter.coverage.empty()) {
            // Parts of the split iterator.
            if (stage.iterName(static_cast<int>(q)).rfind("i.", 0) == 0) {
                product *= iter.extent;
                int64_t own = 1;
                for (const auto &[orig, ext] : iter.coverage)
                    if (orig == 0)
                        own *= ext;
                covered *= own;
            }
        }
    }
    EXPECT_GE(product, extent);
    EXPECT_GE(covered, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Extents, SplitProperty,
    ::testing::Combine(::testing::Values<int64_t>(7, 16, 60, 128, 1000),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------
// Simulator cross-platform properties.
// ---------------------------------------------------------------------

class PlatformProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PlatformProperty, LatencyPositiveFiniteDeterministic)
{
    const auto hw = hw::HardwarePlatform::preset(GetParam());
    ir::ComputeGraph g("t");
    auto x = g.input({128, 256});
    g.dense(x, 128);
    auto sg = std::make_shared<ir::Subgraph>(g.nodes(), 2);
    Rng rng(5);
    sketch::SchedulePolicy policy(sg, hw.is_gpu);
    const auto state = policy.sampleRandom(rng);
    hw::LatencySimulator sim(hw);
    const double a = sim.latencyMs(sched::lower(state));
    const double b = sim.latencyMs(sched::lower(state));
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.0);
    EXPECT_TRUE(std::isfinite(a));
}

TEST_P(PlatformProperty, BiggerProblemIsSlower)
{
    const auto hw = hw::HardwarePlatform::preset(GetParam());
    hw::LatencySimulator sim(hw);
    auto latency = [&](int64_t n) {
        ir::ComputeGraph g("t");
        auto x = g.input({n, n});
        g.dense(x, n);
        auto sg = std::make_shared<ir::Subgraph>(g.nodes(), 2);
        sched::State state(sg, hw.is_gpu);
        if (hw.is_gpu) {
            state.fuse(2, {0, 1});
            state.split(2, 0, {128});
            state.annotate(2, 0, sched::Annotation::BlockX);
            state.annotate(2, 1, sched::Annotation::ThreadX);
        }
        return sim.latencyMs(sched::lower(state));
    };
    EXPECT_GT(latency(512), latency(64));
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PlatformProperty,
    ::testing::ValuesIn(hw::HardwarePlatform::presetNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ---------------------------------------------------------------------
// Feature-extraction invariants over crop sizes.
// ---------------------------------------------------------------------

class CropProperty
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(CropProperty, ShapeAlwaysMatchesOptions)
{
    const auto [seq_len, emb] = GetParam();
    const auto workload =
        ir::partitionGraph(ir::buildNetwork("resnet-18"));
    Rng rng(17);
    sketch::SchedulePolicy policy(workload.subgraphs[1], false);
    const auto state = policy.sampleRandom(rng);
    feat::TlpFeatureOptions options;
    options.seq_len = seq_len;
    options.emb_size = emb;
    const auto features = feat::extractTlpFeatures(state.steps(), options);
    EXPECT_EQ(features.size(),
              static_cast<size_t>(seq_len) * static_cast<size_t>(emb));
}

INSTANTIATE_TEST_SUITE_P(Crops, CropProperty,
                         ::testing::Values(std::pair{8, 14},
                                           std::pair{25, 22},
                                           std::pair{25, 40},
                                           std::pair{54, 22},
                                           std::pair{54, 40},
                                           std::pair{80, 64}));

} // namespace
} // namespace tlp
