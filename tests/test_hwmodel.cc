/**
 * @file
 * Unit and property tests for the hardware platform models and the
 * analytic latency simulator.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "hwmodel/measurer.h"
#include "hwmodel/simulator.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "sketch/policy.h"
#include "support/stats.h"

namespace tlp::hw {
namespace {

ir::SubgraphPtr
denseSubgraph(int64_t m, int64_t n, int64_t k)
{
    ir::ComputeGraph g("t");
    auto x = g.input({m, k});
    g.dense(x, n);
    return std::make_shared<ir::Subgraph>(g.nodes(), 2);
}

sched::LoweredNest
naiveNest(ir::SubgraphPtr sg, bool is_gpu = false)
{
    sched::State state(std::move(sg), is_gpu);
    return sched::lower(state);
}

TEST(Platform, PresetsExist)
{
    const auto names = HardwarePlatform::presetNames();
    ASSERT_EQ(names.size(), 7u);
    for (const auto &name : names) {
        const auto hw = HardwarePlatform::preset(name);
        EXPECT_EQ(hw.name, name);
    }
    EXPECT_FALSE(HardwarePlatform::preset("i7-10510u").is_gpu);
    EXPECT_TRUE(HardwarePlatform::preset("tesla-t4").is_gpu);
}

TEST(Platform, CpuAndGpuListsPartition)
{
    EXPECT_EQ(HardwarePlatform::cpuPresetNames().size(), 5u);
    EXPECT_EQ(HardwarePlatform::gpuPresetNames().size(), 2u);
}

TEST(Simulator, DeterministicLatency)
{
    auto nest = naiveNest(denseSubgraph(64, 64, 512));
    LatencySimulator sim(HardwarePlatform::preset("e5-2673"));
    EXPECT_DOUBLE_EQ(sim.latencyMs(nest), sim.latencyMs(nest));
    EXPECT_GT(sim.latencyMs(nest), 0.0);
}

TEST(Simulator, MoreWorkTakesLonger)
{
    LatencySimulator sim(HardwarePlatform::preset("e5-2673"));
    const double small = sim.latencyMs(naiveNest(denseSubgraph(64, 64, 64)));
    const double large =
        sim.latencyMs(naiveNest(denseSubgraph(512, 512, 512)));
    EXPECT_GT(large, small * 10);
}

TEST(Simulator, ParallelAnnotationSpeedsUp)
{
    auto sg = denseSubgraph(256, 256, 256);
    sched::State serial(sg, false);
    sched::State parallel(sg, false);
    parallel.annotate(2, 0, sched::Annotation::Parallel);
    LatencySimulator sim(HardwarePlatform::preset("platinum-8272"));
    EXPECT_GT(sim.latencyMs(sched::lower(serial)),
              1.5 * sim.latencyMs(sched::lower(parallel)));
}

TEST(Simulator, VectorizeSpeedsUp)
{
    auto sg = denseSubgraph(256, 256, 256);
    sched::State scalar(sg, false);
    // Reorder so a spatial loop is innermost, then vectorize it.
    sched::State vec(sg, false);
    vec.reorder(2, {0, 2, 1});
    vec.annotate(2, 2, sched::Annotation::Vectorize);
    LatencySimulator sim(HardwarePlatform::preset("e5-2673"));
    EXPECT_GT(sim.latencyMs(sched::lower(scalar)),
              1.5 * sim.latencyMs(sched::lower(vec)));
}

TEST(Simulator, TilingReducesMemoryTime)
{
    // Large matmul, both parallel + vectorized so memory time dominates:
    // the untiled loop order re-streams the weight matrix per row while
    // the tiled one reuses cache-resident tiles.
    auto sg = denseSubgraph(1024, 1024, 1024);
    sched::State naive(sg, false);
    naive.reorder(2, {0, 2, 1});            // i, k, j
    naive.annotate(2, 0, sched::Annotation::Parallel);
    naive.annotate(2, 2, sched::Annotation::Vectorize);

    sched::State tiled(sg, false);
    tiled.split(2, 0, {32});        // i -> i0, i1(32)
    tiled.split(2, 2, {32});        // j -> j0, j1(32)
    tiled.split(2, 4, {32});        // k -> k0, k1(32)
    tiled.reorder(2, {0, 2, 4, 1, 5, 3});   // i0 j0 k0 i1 k1 j1
    tiled.annotate(2, 0, sched::Annotation::Parallel);
    tiled.annotate(2, 5, sched::Annotation::Vectorize);
    LatencySimulator sim(HardwarePlatform::preset("i7-10510u"));
    EXPECT_GT(sim.latencyMs(sched::lower(naive)),
              1.5 * sim.latencyMs(sched::lower(tiled)));
}

TEST(Simulator, PlatformsDisagreeOnRankings)
{
    // The domain gap: schedule rankings differ across platforms.
    auto sg = denseSubgraph(512, 512, 512);
    sketch::SchedulePolicy policy(sg, false);
    Rng rng(11);
    const auto population = policy.sampleInitPopulation(40, rng);
    ASSERT_GE(population.size(), 20u);

    std::vector<double> lat_a, lat_b;
    LatencySimulator sim_a(HardwarePlatform::preset("platinum-8272"));
    LatencySimulator sim_b(HardwarePlatform::preset("graviton2"));
    for (const auto &state : population) {
        const auto nest = sched::lower(state);
        lat_a.push_back(sim_a.latencyMs(nest));
        lat_b.push_back(sim_b.latencyMs(nest));
    }
    const double rho = spearman(lat_a, lat_b);
    // Correlated (same programs) but far from identical.
    EXPECT_GT(rho, 0.1);
    EXPECT_LT(rho, 0.995);
}

TEST(Simulator, ScheduleQualitySpreadIsWide)
{
    auto sg = denseSubgraph(512, 512, 512);
    sketch::SchedulePolicy policy(sg, false);
    Rng rng(13);
    const auto population = policy.sampleInitPopulation(50, rng);
    LatencySimulator sim(HardwarePlatform::preset("e5-2673"));
    double best = 1e300, worst = 0.0;
    for (const auto &state : population) {
        const double lat = sim.latencyMs(sched::lower(state));
        best = std::min(best, lat);
        worst = std::max(worst, lat);
    }
    EXPECT_GT(worst / best, 2.0);
}

TEST(Simulator, GpuKernelsRunOnGpuPresets)
{
    auto sg = denseSubgraph(256, 256, 256);
    sketch::SchedulePolicy policy(sg, true);
    Rng rng(17);
    const auto state = policy.sampleRandom(rng);
    LatencySimulator sim(HardwarePlatform::preset("tesla-t4"));
    const double lat = sim.latencyMs(sched::lower(state));
    EXPECT_GT(lat, 0.0);
    EXPECT_LT(lat, 1e4);
}

TEST(Simulator, T4FasterThanK80OnBigKernels)
{
    auto sg = denseSubgraph(1024, 1024, 1024);
    sketch::SchedulePolicy policy(sg, true);
    Rng rng(19);
    const auto state = policy.sampleRandom(rng);
    const auto nest = sched::lower(state);
    LatencySimulator t4(HardwarePlatform::preset("tesla-t4"));
    LatencySimulator k80(HardwarePlatform::preset("tesla-k80"));
    EXPECT_LT(t4.latencyMs(nest), k80.latencyMs(nest));
}

TEST(Simulator, WholeZooSimulates)
{
    Rng rng(23);
    for (const auto &name : {"resnet-18", "bert-tiny"}) {
        const auto w = ir::partitionGraph(ir::buildNetwork(name));
        for (const auto &sg : w.subgraphs) {
            for (bool gpu : {false, true}) {
                sketch::SchedulePolicy policy(sg, gpu);
                const auto state = policy.sampleRandom(rng);
                LatencySimulator sim(HardwarePlatform::preset(
                    gpu ? "tesla-t4" : "e5-2673"));
                const double lat = sim.latencyMs(sched::lower(state));
                EXPECT_GT(lat, 0.0) << name << " " << sg->key();
                EXPECT_TRUE(std::isfinite(lat)) << sg->key();
            }
        }
    }
}

std::vector<sched::LoweredNest>
sampleNests(int count, uint64_t seed = 29)
{
    auto sg = denseSubgraph(256, 256, 256);
    sketch::SchedulePolicy policy(sg, false);
    Rng rng(seed);
    const auto population = policy.sampleInitPopulation(count, rng);
    std::vector<sched::LoweredNest> nests;
    for (const auto &state : population)
        nests.push_back(sched::lower(state));
    return nests;
}

TEST(Measurer, NoiseIsBoundedAndAccounted)
{
    auto nest = naiveNest(denseSubgraph(128, 128, 128));
    Measurer measurer(HardwarePlatform::preset("e5-2673"));
    LatencySimulator sim(HardwarePlatform::preset("e5-2673"));
    const double truth = sim.latencyMs(nest);
    for (int i = 0; i < 20; ++i) {
        const double measured = measurer.measureMs(nest);
        EXPECT_NEAR(measured, truth, truth * 0.2);
    }
    EXPECT_EQ(measurer.count(), 20);
    EXPECT_NEAR(measurer.elapsedSeconds(), 20 * 0.25, 1e-9);
    measurer.resetAccounting();
    EXPECT_EQ(measurer.count(), 0);
}

TEST(Measurer, FaultClassIsOrderIndependent)
{
    // Whether a candidate faults (and how) must not depend on what was
    // measured before it — only the noise stream is sequential.
    MeasureOptions options;
    options.faults = FaultProfile::uniform(0.5);
    const auto nests = sampleNests(12);
    Measurer forward(HardwarePlatform::preset("e5-2673"), options);
    Measurer backward(HardwarePlatform::preset("e5-2673"), options);
    std::vector<MeasureStatus> fwd, bwd(nests.size());
    for (const auto &nest : nests)
        fwd.push_back(forward.measure(nest).status);
    for (size_t i = nests.size(); i-- > 0;)
        bwd[i] = backward.measure(nests[i]).status;
    for (size_t i = 0; i < nests.size(); ++i)
        EXPECT_EQ(fwd[i], bwd[i]) << "nest " << i;
}

TEST(Measurer, FaultsAreDeterministic)
{
    MeasureOptions options;
    options.faults = FaultProfile::uniform(0.4);
    const auto nests = sampleNests(16);
    Measurer a(HardwarePlatform::preset("platinum-8272"), options);
    Measurer b(HardwarePlatform::preset("platinum-8272"), options);
    bool any_failed = false;
    for (const auto &nest : nests) {
        const auto ra = a.measure(nest);
        const auto rb = b.measure(nest);
        EXPECT_EQ(ra.status, rb.status);
        EXPECT_EQ(ra.attempts, rb.attempts);
        EXPECT_DOUBLE_EQ(ra.seconds_spent, rb.seconds_spent);
        if (ra.ok())
            EXPECT_DOUBLE_EQ(ra.latency_ms, rb.latency_ms);
        else
            any_failed = true;
    }
    EXPECT_TRUE(any_failed) << "40% fault rate should fail something";
    EXPECT_EQ(a.statusCounts(), b.statusCounts());
}

TEST(Measurer, FaultOutcomeIndependentOfNoiseSeed)
{
    // Fault draws key off FaultProfile::seed, not the noise seed.
    MeasureOptions options;
    options.faults = FaultProfile::uniform(0.5);
    const auto nests = sampleNests(16);
    Measurer a(HardwarePlatform::preset("e5-2673"), options, 1);
    Measurer b(HardwarePlatform::preset("e5-2673"), options, 2);
    for (const auto &nest : nests)
        EXPECT_EQ(a.measure(nest).status, b.measure(nest).status);
}

TEST(Measurer, CompileErrorsFailImmediatelyAndQuarantine)
{
    MeasureOptions options;
    options.faults.compile_error_prob = 1.0;
    options.max_retries = 5;
    Measurer measurer(HardwarePlatform::preset("e5-2673"), options);
    const auto nest = naiveNest(denseSubgraph(64, 64, 64));

    const auto first = measurer.measure(nest);
    EXPECT_EQ(first.status, MeasureStatus::CompileError);
    EXPECT_EQ(first.attempts, 1);   // never retried despite max_retries
    EXPECT_TRUE(std::isnan(first.latency_ms));
    EXPECT_GT(first.seconds_spent, 0.0);
    EXPECT_LT(first.seconds_spent, kSecondsPerMeasure);
    EXPECT_TRUE(measurer.isQuarantined(nest));

    // The second request short-circuits: same status, no hardware time.
    const auto second = measurer.measure(nest);
    EXPECT_EQ(second.status, MeasureStatus::CompileError);
    EXPECT_EQ(second.attempts, 0);
    EXPECT_DOUBLE_EQ(second.seconds_spent, 0.0);
    EXPECT_EQ(measurer.quarantineHits(), 1);
}

TEST(Measurer, TransientFaultsRetryUpToCap)
{
    MeasureOptions options;
    options.faults.timeout_prob = 1.0;
    options.faults.timeout_seconds = 0.5;
    options.max_retries = 2;
    options.quarantine_after = 100;
    Measurer measurer(HardwarePlatform::preset("e5-2673"), options);
    const auto nest = naiveNest(denseSubgraph(64, 64, 64));

    const auto result = measurer.measure(nest);
    EXPECT_EQ(result.status, MeasureStatus::Timeout);
    EXPECT_EQ(result.attempts, 3);   // 1 + max_retries
    EXPECT_DOUBLE_EQ(result.seconds_spent, 3 * 0.5);
    EXPECT_DOUBLE_EQ(measurer.failureSeconds(), measurer.elapsedSeconds());
}

TEST(Measurer, RetriesRecoverTransientFaults)
{
    MeasureOptions base;
    base.faults.timeout_prob = 0.4;
    base.quarantine_after = 1000;
    auto with_retries = base;
    base.max_retries = 0;
    with_retries.max_retries = 3;

    const auto nests = sampleNests(32);
    Measurer stubborn(HardwarePlatform::preset("e5-2673"), base);
    Measurer patient(HardwarePlatform::preset("e5-2673"), with_retries);
    int64_t ok_stubborn = 0, ok_patient = 0;
    for (const auto &nest : nests) {
        ok_stubborn += stubborn.measure(nest).ok();
        ok_patient += patient.measure(nest).ok();
    }
    EXPECT_GT(ok_patient, ok_stubborn);
    EXPECT_EQ(ok_patient,
              patient.statusCounts()[static_cast<size_t>(
                  MeasureStatus::Ok)]);
}

TEST(Measurer, RepeatFailuresGetQuarantined)
{
    MeasureOptions options;
    options.faults.runtime_error_prob = 1.0;
    options.max_retries = 0;
    options.quarantine_after = 3;
    Measurer measurer(HardwarePlatform::preset("e5-2673"), options);
    const auto nest = naiveNest(denseSubgraph(64, 64, 64));

    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(measurer.isQuarantined(nest));
        EXPECT_EQ(measurer.measure(nest).attempts, 1);
    }
    EXPECT_TRUE(measurer.isQuarantined(nest));
    EXPECT_EQ(measurer.measure(nest).attempts, 0);
    EXPECT_EQ(measurer.quarantineSize(), 1);
}

TEST(Measurer, SuccessfulLatencyStaysNearTruthUnderFaults)
{
    // Candidates that eventually measure Ok must still report sane
    // latencies: close to the noise-free simulator value, never NaN.
    const auto nests = sampleNests(16);
    MeasureOptions faulty;
    faulty.faults = FaultProfile::uniform(0.3);
    faulty.max_retries = 4;
    Measurer injected(HardwarePlatform::preset("e5-2673"), faulty);
    LatencySimulator sim(HardwarePlatform::preset("e5-2673"));
    int compared = 0;
    for (const auto &nest : nests) {
        const auto result = injected.measure(nest);
        if (!result.ok()) {
            EXPECT_TRUE(std::isnan(result.latency_ms));
            continue;
        }
        const double truth = sim.latencyMs(nest);
        EXPECT_NEAR(result.latency_ms, truth, truth * 0.2);
        ++compared;
    }
    EXPECT_GT(compared, 0);
}

TEST(Measurer, StateRoundTripsThroughSerialization)
{
    MeasureOptions options;
    options.faults = FaultProfile::uniform(0.6);
    options.quarantine_after = 1;
    Measurer measurer(HardwarePlatform::preset("e5-2673"), options);
    for (const auto &nest : sampleNests(12))
        measurer.measure(nest);

    std::stringstream ss;
    {
        BinaryWriter writer(ss);
        measurer.serializeState(writer);
    }
    Measurer restored(HardwarePlatform::preset("e5-2673"), options);
    BinaryReader reader(ss);
    restored.deserializeState(reader);
    EXPECT_DOUBLE_EQ(restored.elapsedSeconds(), measurer.elapsedSeconds());
    EXPECT_DOUBLE_EQ(restored.failureSeconds(), measurer.failureSeconds());
    EXPECT_EQ(restored.count(), measurer.count());
    EXPECT_EQ(restored.statusCounts(), measurer.statusCounts());
    EXPECT_EQ(restored.quarantineSize(), measurer.quarantineSize());

    // The noise stream continues identically after a restore: a fresh
    // measurer replaying the same sequence agrees with the restored one.
    const auto next_nest = naiveNest(denseSubgraph(96, 96, 96));
    Measurer replay(HardwarePlatform::preset("e5-2673"), options);
    for (const auto &nest : sampleNests(12))
        replay.measure(nest);
    EXPECT_DOUBLE_EQ(replay.measureMs(next_nest),
                     restored.measureMs(next_nest));
}

} // namespace
} // namespace tlp::hw
