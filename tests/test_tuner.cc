/**
 * @file
 * Integration tests for the evolutionary search and tuning sessions.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "tuner/session.h"
#include "scratch.h"

namespace tlp::tune {
namespace {

ir::Workload
tinyWorkload()
{
    // A small slice of ResNet-18: first few distinct subgraphs.
    ir::Workload full = ir::partitionGraph(ir::buildNetwork("resnet-18"));
    ir::Workload slim;
    slim.name = "resnet-18-slice";
    for (size_t i = 0; i < 3 && i < full.subgraphs.size(); ++i) {
        slim.subgraphs.push_back(full.subgraphs[i]);
        slim.weights.push_back(full.weights[i]);
    }
    return slim;
}

TuneOptions
quickOptions()
{
    TuneOptions options;
    options.rounds = 6;
    options.measures_per_round = 4;
    options.evolution.population = 24;
    options.evolution.iterations = 2;
    options.evolution.children_per_iter = 12;
    options.measure.seconds_per_measure = 0.25;
    return options;
}

TEST(Evolution, ReturnsRankedUnmeasuredCandidates)
{
    const auto workload = tinyWorkload();
    sketch::SchedulePolicy policy(workload.subgraphs[0], false);
    model::RandomCostModel cost_model(3);
    Rng rng(4);
    std::set<uint64_t> measured;
    EvolutionOptions options;
    options.population = 32;
    options.iterations = 2;
    const auto result = evolveOneRound(policy, cost_model, 0, 5, measured,
                                       options, rng);
    EXPECT_LE(result.candidates.size(), 5u);
    EXPECT_GE(result.candidates.size(), 1u);
    EXPECT_EQ(result.candidates.size(), result.scores.size());
    EXPECT_GE(result.model_seconds, 0.0);
    // Excluded hashes are respected.
    std::set<uint64_t> returned;
    for (const auto &state : result.candidates)
        returned.insert(state.steps().hash());
    EXPECT_EQ(returned.size(), result.candidates.size());
}

TEST(Evolution, ExclusionFilterWorks)
{
    const auto workload = tinyWorkload();
    sketch::SchedulePolicy policy(workload.subgraphs[0], false);
    model::RandomCostModel cost_model(5);
    Rng rng(6);
    EvolutionOptions options;
    options.population = 16;
    options.iterations = 1;
    auto first = evolveOneRound(policy, cost_model, 0, 4, {}, options,
                                rng);
    std::set<uint64_t> measured;
    for (const auto &state : first.candidates)
        measured.insert(state.steps().hash());
    Rng rng2(6);
    auto second = evolveOneRound(policy, cost_model, 0, 4, measured,
                                 options, rng2);
    for (const auto &state : second.candidates)
        EXPECT_EQ(measured.count(state.steps().hash()), 0u);
}

TEST(Session, ProducesMonotoneCurve)
{
    const auto workload = tinyWorkload();
    model::RandomCostModel cost_model(7);
    const auto result =
        tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                     cost_model, quickOptions());

    EXPECT_GT(result.total_measurements, 0);
    EXPECT_FALSE(result.curve.empty());
    EXPECT_TRUE(std::isfinite(result.best_workload_latency_ms));
    // Workload latency is non-increasing once finite.
    double last = std::numeric_limits<double>::infinity();
    for (const auto &point : result.curve) {
        if (std::isfinite(point.workload_latency_ms)) {
            EXPECT_LE(point.workload_latency_ms, last + 1e-9);
            last = point.workload_latency_ms;
        }
        EXPECT_GT(point.search_seconds, 0.0);
    }
    EXPECT_NEAR(result.total_search_seconds,
                result.measure_seconds + result.model_seconds, 1e-9);
}

TEST(Session, EveryTaskGetsARound)
{
    const auto workload = tinyWorkload();
    model::RandomCostModel cost_model(8);
    const auto result =
        tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                     cost_model, quickOptions());
    for (double best : result.best_per_task_ms)
        EXPECT_TRUE(std::isfinite(best));
}

TEST(Session, GuidedSearchBeatsFewRandomRounds)
{
    // With an online model, later rounds should find better programs
    // than pure chance given the same budget. (Probabilistic but stable
    // for fixed seeds.)
    const auto workload = tinyWorkload();
    TuneOptions options = quickOptions();
    options.rounds = 9;

    model::AnsorOnlineCostModel online;
    const auto guided =
        tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                     online, options);

    model::RandomCostModel random_model(9);
    const auto random_result =
        tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                     random_model, options);

    EXPECT_LE(guided.best_workload_latency_ms,
              random_result.best_workload_latency_ms * 1.4);
}

TEST(Session, TimeToReachSemantics)
{
    TuneResult result;
    result.curve = {{10, 1.0, 100.0}, {20, 2.0, 50.0}, {30, 3.0, 25.0}};
    EXPECT_DOUBLE_EQ(result.timeToReach(60.0), 2.0);
    EXPECT_DOUBLE_EQ(result.timeToReach(25.0), 3.0);
    EXPECT_TRUE(std::isinf(result.timeToReach(1.0)));
}

TEST(Session, TimeToReachBoundaryCases)
{
    // Empty curve: nothing was ever reached.
    TuneResult empty;
    EXPECT_TRUE(std::isinf(empty.timeToReach(1e9)));

    TuneResult result;
    result.curve = {{10, 1.0, 100.0}, {20, 2.0, 50.0}, {30, 3.0, 25.0}};
    // Target hit EXACTLY on a curve point (<= , not <): the first
    // point's own latency counts as reached at that point's time.
    EXPECT_DOUBLE_EQ(result.timeToReach(100.0), 1.0);
    EXPECT_DOUBLE_EQ(result.timeToReach(50.0), 2.0);
    // Target below the best the curve ever reached: never.
    EXPECT_TRUE(std::isinf(result.timeToReach(24.999)));
    // Target above everything: reached at the very first point.
    EXPECT_DOUBLE_EQ(result.timeToReach(1e12), 1.0);
    // A generous (infinite) target is reached immediately; an
    // impossible (-inf) one never.
    EXPECT_DOUBLE_EQ(
        result.timeToReach(std::numeric_limits<double>::infinity()),
        1.0);
    EXPECT_TRUE(std::isinf(
        result.timeToReach(-std::numeric_limits<double>::infinity())));
}

TEST(Session, GpuWorkloadTunes)
{
    const auto workload = tinyWorkload();
    model::RandomCostModel cost_model(10);
    const auto result =
        tuneWorkload(workload, hw::HardwarePlatform::preset("tesla-t4"),
                     cost_model, quickOptions());
    EXPECT_TRUE(std::isfinite(result.best_workload_latency_ms));
    EXPECT_GT(result.total_measurements, 0);
}

TEST(Session, CurveStaysMonotoneUnderFaults)
{
    // 30% injected fault rate: the session must finish, the curve must
    // stay monotone, and no non-finite latency may surface anywhere.
    const auto workload = tinyWorkload();
    TuneOptions options = quickOptions();
    options.rounds = 9;
    options.measure.faults = hw::FaultProfile::uniform(0.3);
    model::AnsorOnlineCostModel cost_model;
    const auto result =
        tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                     cost_model, options);

    EXPECT_GT(result.failed_measurements, 0);
    EXPECT_GT(result.wasted_measure_seconds, 0.0);
    EXPECT_LE(result.wasted_measure_seconds, result.measure_seconds);
    double last = std::numeric_limits<double>::infinity();
    for (const auto &point : result.curve) {
        if (std::isfinite(point.workload_latency_ms)) {
            EXPECT_LE(point.workload_latency_ms, last + 1e-9);
            last = point.workload_latency_ms;
        }
    }
    for (double best : result.best_per_task_ms)
        EXPECT_FALSE(std::isnan(best));
    int64_t classified = 0;
    for (int64_t count : result.status_counts) {
        EXPECT_GE(count, 0);
        classified += count;
    }
    EXPECT_EQ(classified, result.total_measurements);
}

TEST(Session, FaultyRunIsDeterministic)
{
    const auto workload = tinyWorkload();
    TuneOptions options = quickOptions();
    options.measure.faults = hw::FaultProfile::uniform(0.25);

    model::AnsorOnlineCostModel model_a, model_b;
    const auto a =
        tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                     model_a, options);
    const auto b =
        tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                     model_b, options);

    EXPECT_EQ(a.total_measurements, b.total_measurements);
    EXPECT_EQ(a.failed_measurements, b.failed_measurements);
    EXPECT_DOUBLE_EQ(a.measure_seconds, b.measure_seconds);
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (size_t i = 0; i < a.curve.size(); ++i) {
        EXPECT_EQ(a.curve[i].measurements, b.curve[i].measurements);
        EXPECT_DOUBLE_EQ(a.curve[i].workload_latency_ms,
                         b.curve[i].workload_latency_ms);
    }
}

TEST(Session, CheckpointResumeMatchesUninterruptedRun)
{
    const auto workload = tinyWorkload();
    const std::string ckpt = test::scratchDir() + "/resume.ckpt";

    TuneOptions options = quickOptions();
    options.rounds = 8;
    options.measure.faults = hw::FaultProfile::uniform(0.2);
    options.checkpoint_path = ckpt;
    options.checkpoint_every = 2;

    // Reference: one uninterrupted run.
    model::AnsorOnlineCostModel reference_model;
    const auto reference =
        tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                     reference_model, options);

    // "Killed" run: only half the rounds, leaving a checkpoint behind.
    std::remove(ckpt.c_str());
    TuneOptions half = options;
    half.rounds = 4;
    model::AnsorOnlineCostModel killed_model;
    tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                 killed_model, half);

    // Resume with a fresh model and the full budget.
    TuneOptions resumed_options = options;
    resumed_options.resume = true;
    model::AnsorOnlineCostModel resumed_model;
    const auto resumed =
        tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                     resumed_model, resumed_options);

    // The resumed curve is bit-identical in measurements, latency and
    // simulated seconds (model wall clock is real time and excluded).
    EXPECT_EQ(resumed.total_measurements, reference.total_measurements);
    EXPECT_DOUBLE_EQ(resumed.measure_seconds, reference.measure_seconds);
    EXPECT_DOUBLE_EQ(resumed.best_workload_latency_ms,
                     reference.best_workload_latency_ms);
    ASSERT_EQ(resumed.curve.size(), reference.curve.size());
    for (size_t i = 0; i < reference.curve.size(); ++i) {
        EXPECT_EQ(resumed.curve[i].measurements,
                  reference.curve[i].measurements);
        EXPECT_DOUBLE_EQ(resumed.curve[i].workload_latency_ms,
                         reference.curve[i].workload_latency_ms);
    }
    std::remove(ckpt.c_str());
}

TEST(Session, CheckpointEveryRoundNeverRemeasuresFinalRound)
{
    // Cadence edge case: checkpoint_every = 1 and a crash after the
    // final round but before result emission. The final round's
    // checkpoint is on disk, so the resumed session must come back
    // already Finished and re-measure NOTHING — measurement counts and
    // simulated seconds are pinned to the uninterrupted run's.
    const auto workload = tinyWorkload();
    const std::string ckpt = test::scratchDir() + "/cadence.ckpt";

    TuneOptions options = quickOptions();
    options.rounds = 5;
    options.checkpoint_path = ckpt;
    options.checkpoint_every = 1;

    model::AnsorOnlineCostModel reference_model;
    const auto reference =
        tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                     reference_model, options);

    model::AnsorOnlineCostModel resumed_model;
    TuningSession session(workload,
                          hw::HardwarePlatform::preset("e5-2673"),
                          resumed_model, options);
    const Status status = session.resumeFromCheckpoint();
    ASSERT_TRUE(status.ok()) << status.toString();
    EXPECT_EQ(session.phase(), SessionPhase::Finished);
    EXPECT_EQ(session.roundsDone(), options.rounds);
    EXPECT_TRUE(session.done());
    EXPECT_FALSE(session.step());   // a step must be a no-op now

    const TuneResult &result = session.finish();
    EXPECT_EQ(result.total_measurements, reference.total_measurements);
    EXPECT_DOUBLE_EQ(result.measure_seconds, reference.measure_seconds);
    ASSERT_EQ(result.curve.size(), reference.curve.size());
    for (size_t i = 0; i < reference.curve.size(); ++i) {
        EXPECT_EQ(result.curve[i].measurements,
                  reference.curve[i].measurements);
        EXPECT_DOUBLE_EQ(result.curve[i].workload_latency_ms,
                         reference.curve[i].workload_latency_ms);
        EXPECT_DOUBLE_EQ(result.curve[i].measure_seconds,
                         reference.curve[i].measure_seconds);
    }
    EXPECT_DOUBLE_EQ(result.best_workload_latency_ms,
                     reference.best_workload_latency_ms);
    std::remove(ckpt.c_str());
}

TEST(Session, ResumeRejectsForeignCheckpoint)
{
    const auto workload = tinyWorkload();
    const std::string ckpt = test::scratchDir() + "/foreign.ckpt";

    TuneOptions options = quickOptions();
    options.rounds = 2;
    options.checkpoint_path = ckpt;
    options.checkpoint_every = 1;
    model::RandomCostModel cost_model(12);
    tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                 cost_model, options);

    // Same checkpoint, different seed: the config digest must not match.
    TuneOptions mismatched = options;
    mismatched.resume = true;
    mismatched.seed = options.seed + 1;
    model::RandomCostModel other_model(12);
    EXPECT_EXIT(tuneWorkload(workload,
                             hw::HardwarePlatform::preset("e5-2673"),
                             other_model, mismatched),
                ::testing::ExitedWithCode(kExitUserError),
                "different session");
    std::remove(ckpt.c_str());
}

} // namespace
} // namespace tlp::tune
