/**
 * @file
 * Fleet-level fault drill for the multi-session tuning service
 * (DESIGN.md §12): crash-safe recovery to bit-identical curves,
 * quarantine of damaged checkpoints, deterministic admission/shedding,
 * seeded transient-fault backoff, and snapshot hot-swap probing.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>

#include "bench/bench_common.h"
#include "models/snapshot.h"
#include "models/supervisor.h"
#include "models/tlp_model.h"
#include "support/io_env.h"
#include "support/rng.h"
#include "support/str_util.h"
#include "support/thread_pool.h"
#include "tuner/service/service.h"
#include "scratch.h"

namespace tlp::serve {
namespace {

namespace fs = std::filesystem;

using bench::curvesMatch;
using bench::plantFile;
using bench::readFile;
using bench::tearMidFile;

/**
 * A fleet of @p n quick sessions with mixed cost models. Identical
 * specs must yield identical trajectories in any service, so every
 * test builds its fleet through this one helper.
 */
std::vector<SessionSpec>
quickFleet(int n)
{
    return bench::drillFleet(n, 4, 0x900d);
}

ServiceOptions
quickService(const std::string &dir, int fleet_size)
{
    return bench::drillServiceOptions(dir, fleet_size);
}

/** Golden run: the whole fleet, uninterrupted, in its own directory. */
void
runGolden(const std::string &dir, const std::vector<SessionSpec> &fleet,
          std::vector<tune::TuneResult> &results)
{
    TuningService service(quickService(dir,
                                       static_cast<int>(fleet.size())));
    service.recover(fleet);
    service.runUntilIdle();
    ASSERT_TRUE(service.idle());
    for (const SessionSpec &spec : fleet) {
        ASSERT_EQ(service.status(spec.name), SessionStatus::Finished);
        results.push_back(service.result(spec.name));
    }
}

/** The deterministic curve fields must agree point-for-point. */
void
expectSameCurve(const tune::TuneResult &want, const tune::TuneResult &got,
                const std::string &name)
{
    EXPECT_EQ(want.total_measurements, got.total_measurements) << name;
    ASSERT_EQ(want.curve.size(), got.curve.size()) << name;
    for (size_t i = 0; i < want.curve.size(); ++i) {
        EXPECT_EQ(want.curve[i].measurements, got.curve[i].measurements)
            << name << " point " << i;
        EXPECT_DOUBLE_EQ(want.curve[i].workload_latency_ms,
                         got.curve[i].workload_latency_ms)
            << name << " point " << i;
        EXPECT_DOUBLE_EQ(want.curve[i].measure_seconds,
                         got.curve[i].measure_seconds)
            << name << " point " << i;
    }
}

TEST(Service, FleetKillDrillRecoversBitIdenticalCurves)
{
    // Golden: 8 concurrent sessions, uninterrupted.
    const auto fleet = quickFleet(8);
    const std::string golden_dir = test::scratchDir("golden");
    std::vector<tune::TuneResult> golden;
    runGolden(golden_dir, fleet, golden);

    // Drill: same fleet, a seeded sequence of kill points. Each pass
    // constructs a fresh service over the surviving checkpoints, runs a
    // seeded number of ticks, and is destroyed mid-flight — so every
    // session is abandoned at a different round each pass.
    const std::string drill_dir = test::scratchDir("drill");
    int64_t total_salvaged = 0;
    {
        const int64_t kills[3] = {11, 9, 13};
        for (int pass = 0; pass < 3; ++pass) {
            TuningService service(quickService(drill_dir, 8));
            const auto report = service.recover(fleet);
            EXPECT_EQ(report.quarantined, 0);
            total_salvaged += report.rounds_salvaged;
            service.runUntilIdle(kills[pass]);
            // destroyed here, mid-run: the "kill"
        }
    }
    EXPECT_GT(total_salvaged, 0);

    // Final incarnation recovers and finishes everything.
    TuningService service(quickService(drill_dir, 8));
    const auto report = service.recover(fleet);
    EXPECT_EQ(report.quarantined, 0);
    EXPECT_GT(report.recovered, 0);
    service.runUntilIdle();
    ASSERT_TRUE(service.idle());

    for (size_t i = 0; i < fleet.size(); ++i) {
        const std::string &name = fleet[i].name;
        ASSERT_EQ(service.status(name), SessionStatus::Finished);
        expectSameCurve(golden[i], service.result(name), name);
    }
    // The on-disk curve files (what CI diffs) match byte-for-byte.
    EXPECT_TRUE(curvesMatch(golden_dir, drill_dir, fleet));
}

TEST(Service, DamagedCheckpointIsQuarantinedNotFatal)
{
    const auto fleet = quickFleet(4);
    const std::string golden_dir = test::scratchDir("q_golden");
    std::vector<tune::TuneResult> golden;
    runGolden(golden_dir, fleet, golden);

    const std::string dir = test::scratchDir("quarantine");
    {
        TuningService service(quickService(dir, 4));
        service.recover(fleet);
        service.runUntilIdle(17);
    }
    // Corrupt one checkpoint the way a torn disk would: flip bytes in
    // the middle of the file.
    const std::string victim = dir + "/s001.ckpt";
    ASSERT_TRUE(tearMidFile(victim)) << victim;

    TuningService service(quickService(dir, 4));
    const auto report = service.recover(fleet);
    EXPECT_EQ(report.quarantined, 1);
    EXPECT_EQ(report.outcomes.at("s001"), RecoveryOutcome::Quarantined);
    EXPECT_TRUE(fs::exists(victim + ".quarantined.1"));
    service.runUntilIdle();

    // The quarantined session restarted from round 0 and still matches
    // the golden curve; nothing aborted.
    for (size_t i = 0; i < fleet.size(); ++i) {
        const std::string &name = fleet[i].name;
        ASSERT_EQ(service.status(name), SessionStatus::Finished);
        expectSameCurve(golden[i], service.result(name), name);
    }
}

TEST(Service, AdmissionControlShedsDeterministically)
{
    for (int repeat = 0; repeat < 2; ++repeat) {
        const std::string dir =
            test::scratchDir("admit" + std::to_string(repeat));
        ServiceOptions options = quickService(dir, 6);
        options.max_active = 2;
        options.max_queued = 2;
        TuningService service(options);
        const auto fleet = quickFleet(6);
        EXPECT_EQ(service.submit(fleet[0]), AdmitOutcome::Active);
        EXPECT_EQ(service.submit(fleet[1]), AdmitOutcome::Active);
        EXPECT_EQ(service.submit(fleet[2]), AdmitOutcome::Queued);
        EXPECT_EQ(service.submit(fleet[3]), AdmitOutcome::Queued);
        EXPECT_EQ(service.submit(fleet[4]), AdmitOutcome::Shed);
        EXPECT_EQ(service.submit(fleet[5]), AdmitOutcome::Shed);
        EXPECT_EQ(service.stats().shed, 2);
        EXPECT_EQ(service.status("s004"), SessionStatus::Shed);

        service.runUntilIdle();
        // Queued sessions were promoted and finished; shed ones never
        // ran and never wrote files.
        EXPECT_EQ(service.stats().finished, 4);
        EXPECT_EQ(service.status("s002"), SessionStatus::Finished);
        EXPECT_EQ(service.status("s003"), SessionStatus::Finished);
        EXPECT_FALSE(fs::exists(dir + "/s004.ckpt"));
        EXPECT_FALSE(fs::exists(dir + "/s004.curve"));
    }
}

TEST(Service, QueuedSessionMatchesUnqueuedTrajectory)
{
    // Admission timing must not leak into trajectories: a session that
    // waited in the queue produces the same curve as one admitted
    // immediately.
    const auto fleet = quickFleet(4);
    const std::string golden_dir = test::scratchDir("queue_golden");
    std::vector<tune::TuneResult> golden;
    runGolden(golden_dir, fleet, golden);

    const std::string dir = test::scratchDir("queue_narrow");
    ServiceOptions options = quickService(dir, 4);
    options.max_active = 1;    // strictly serial, everyone else queues
    TuningService service(options);
    for (const SessionSpec &spec : fleet)
        service.submit(spec);
    service.runUntilIdle();
    for (size_t i = 0; i < fleet.size(); ++i) {
        ASSERT_EQ(service.status(fleet[i].name),
                  SessionStatus::Finished);
        expectSameCurve(golden[i], service.result(fleet[i].name),
                        fleet[i].name);
    }
}

TEST(Service, QueuedSessionResumesItsCheckpoint)
{
    // A session the queue holds at recovery must resume from its intact
    // checkpoint, not restart from round 0 at promotion over it.
    const auto fleet = quickFleet(2);
    const std::string golden_dir = test::scratchDir("queued_resume_golden");
    std::vector<tune::TuneResult> golden;
    runGolden(golden_dir, fleet, golden);

    const std::string dir = test::scratchDir("queued_resume");
    ServiceOptions options = quickService(dir, 2);
    options.max_active = 1;
    // s000 runs its 4 rounds; the kill lands after 2 rounds of s001.
    const bench::FleetRun killed = bench::runFleet(options, fleet, 6);
    ASSERT_EQ(killed.stats.rounds_run, 6);
    ASSERT_EQ(killed.status[1], SessionStatus::Active);

    const bench::FleetRun resumed = bench::runFleet(options, fleet);
    EXPECT_EQ(resumed.recovery.outcomes.at("s001"),
              RecoveryOutcome::Recovered);
    EXPECT_EQ(resumed.recovery.recovered, 2);
    EXPECT_EQ(resumed.recovery.rounds_salvaged, 6);
    // Only s001's two remaining rounds run again.
    EXPECT_EQ(resumed.stats.rounds_run, 2);
    for (const SessionStatus status : resumed.status)
        EXPECT_EQ(status, SessionStatus::Finished);
    EXPECT_TRUE(curvesMatch(golden_dir, dir, fleet));
}

TEST(Service, TransientFaultsBackOffWithoutPerturbingCurves)
{
    const auto fleet = quickFleet(4);
    const std::string golden_dir = test::scratchDir("fault_golden");
    std::vector<tune::TuneResult> golden;
    runGolden(golden_dir, fleet, golden);

    const std::string dir = test::scratchDir("faulty");
    ServiceOptions options = quickService(dir, 4);
    options.faults.transient_rate = 0.4;
    options.faults.seed = 0xfa171;
    options.backoff_cap_ticks = 4;
    TuningService service(options);
    service.recover(fleet);
    service.runUntilIdle();

    EXPECT_GT(service.stats().faults_injected, 0);
    EXPECT_GT(service.stats().backoff_ticks_slept, 0);
    for (size_t i = 0; i < fleet.size(); ++i) {
        ASSERT_EQ(service.status(fleet[i].name),
                  SessionStatus::Finished);
        expectSameCurve(golden[i], service.result(fleet[i].name),
                        fleet[i].name);
    }

    // The fault schedule itself is seeded: the same service re-run
    // injects the same number of faults at the same ticks.
    const std::string dir2 = test::scratchDir("faulty2");
    ServiceOptions options2 = options;
    options2.dir = dir2;
    TuningService service2(options2);
    service2.recover(fleet);
    service2.runUntilIdle();
    EXPECT_EQ(service.stats().faults_injected,
              service2.stats().faults_injected);
    EXPECT_EQ(service.stats().ticks, service2.stats().ticks);
}

TEST(Service, DeadlineFinalizesEarly)
{
    const std::string dir = test::scratchDir("deadline");
    TuningService service(quickService(dir, 2));
    auto fleet = quickFleet(2);
    fleet[0].deadline_simulated_seconds = 1e-3;   // expires immediately
    service.recover(fleet);
    service.runUntilIdle();

    EXPECT_EQ(service.status("s000"), SessionStatus::DeadlineExpired);
    EXPECT_EQ(service.status("s001"), SessionStatus::Finished);
    EXPECT_EQ(service.stats().deadline_expired, 1);
    // The expired session still produced a (short) result and curve.
    EXPECT_LE(service.result("s000").curve.size(),
              service.result("s001").curve.size());
    EXPECT_TRUE(fs::exists(dir + "/s000.curve"));
}

TEST(Service, SnapshotHotSwapProbesHealth)
{
    const std::string dir = test::scratchDir("swap");
    TuningService service(quickService(dir, 2));

    // A healthy snapshot installs.
    model::TlpNetConfig config;
    config.hidden = 16;
    config.head_hidden = 16;
    config.residual_blocks = 1;
    Rng rng(11);
    model::TlpNet net(config, rng);
    const std::string good = dir + "/good.snap";
    ASSERT_TRUE(model::saveTlpSnapshot(good, net).ok());
    EXPECT_TRUE(service.swapModel(good).ok());
    EXPECT_EQ(service.stats().snapshot_swaps, 1);
    EXPECT_EQ(service.stats().snapshot_swap_failures, 0);

    // A zero-parameter snapshot loads (valid framing!) but fails the
    // health probe: degenerate constant scores.
    model::TlpNet zeroed(config, rng);
    for (nn::Tensor &param : zeroed.parameters())
        std::fill(param.value().begin(), param.value().end(), 0.0f);
    const std::string flat = dir + "/flat.snap";
    ASSERT_TRUE(model::saveTlpSnapshot(flat, zeroed).ok());
    const Status degenerate = service.swapModel(flat);
    EXPECT_FALSE(degenerate.ok());
    EXPECT_NE(degenerate.message().find("probe"), std::string::npos);

    // A corrupt snapshot is rejected by the loader.
    std::string bytes = readFile(good);
    for (size_t i = bytes.size() / 2; i < bytes.size() / 2 + 8; ++i)
        bytes[i] = static_cast<char>(~bytes[i]);
    const std::string bad = dir + "/bad.snap";
    plantFile(bad, bytes);
    EXPECT_FALSE(service.swapModel(bad).ok());
    EXPECT_EQ(service.stats().snapshot_swap_failures, 2);

    // Bad swaps never blocked admission: guarded-tlp sessions run (on
    // the degraded ladder or the good snapshot, whichever is current).
    auto fleet = quickFleet(1);
    fleet[0].model = ModelKind::GuardedTlp;
    fleet[0].tune.rounds = 2;
    service.recover(fleet);
    service.runUntilIdle();
    EXPECT_EQ(service.status("s000"), SessionStatus::Finished);
}

TEST(Service, SnapshotProbeJudgesNonFiniteAndSpread)
{
    // The probe shares model::scoreHealth with the guarded ladder but
    // judges in float, always, with a 1e-12f spread floor.
    using model::HealthEvent;
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(model::scoreHealth<float>({0.0f, nan}, 1e-12f),
              HealthEvent::NanScore);
    EXPECT_EQ(model::scoreHealth<float>({0.0f, inf}, 1e-12f),
              HealthEvent::NanScore);
    EXPECT_EQ(model::scoreHealth<float>({0.0f, 0.9e-12f}, 1e-12f),
              HealthEvent::ConstantScore);
    EXPECT_EQ(model::scoreHealth<float>({0.0f, 1e-12f}, 1e-12f),
              HealthEvent::ConstantScore);
    EXPECT_EQ(model::scoreHealth<float>({0.0f, 1.1e-12f}, 1e-12f),
              HealthEvent::NumEvents);

    // End to end: a NaN or +Inf output bias poisons every score.
    model::TlpNetConfig config;
    config.hidden = 16;
    config.head_hidden = 16;
    config.residual_blocks = 1;
    Rng rng(12);
    model::TlpNet net(config, rng);
    EXPECT_TRUE(model::probeSnapshotHealth(net).ok());
    std::vector<float> &bias = net.headParameters(0).back().value();
    for (const float poison : {nan, inf}) {
        std::fill(bias.begin(), bias.end(), poison);
        const Status status = model::probeSnapshotHealth(net);
        EXPECT_FALSE(status.ok());
        EXPECT_NE(status.message().find("non-finite"), std::string::npos)
            << status.message();
    }
}

TEST(Service, InferenceHotPathNeverPerturbsCurves)
{
    // DESIGN.md §13: the fused forward and the score cache are
    // pure accelerators. A guarded-tlp fleet must produce byte-identical
    // curve files with them on or off — including when the accelerated
    // fleet is killed mid-run and recovered from checkpoints (a
    // recovered session restarts with a cold cache, which may only
    // change speed, never values).
    auto fleet = quickFleet(4);
    for (SessionSpec &spec : fleet) {
        spec.model = ModelKind::GuardedTlp;
        spec.tune.rounds = 3;
    }
    model::TlpNetConfig config;
    config.hidden = 16;
    config.head_hidden = 16;
    config.residual_blocks = 1;
    Rng rng(13);
    model::TlpNet net(config, rng);
    const std::string snap = test::scratchDir("infer_snap") + "/tlp.snap";
    fs::create_directories(fs::path(snap).parent_path());
    ASSERT_TRUE(model::saveTlpSnapshot(snap, net).ok());

    // Golden: legacy inference (interpreted forward, no cache).
    const std::string legacy_dir = test::scratchDir("infer_legacy");
    std::vector<tune::TuneResult> golden;
    {
        ServiceOptions options = quickService(legacy_dir, 4);
        options.tlp_infer = model::TlpInferOptions::legacy();
        TuningService service(options);
        ASSERT_TRUE(service.swapModel(snap).ok());
        service.recover(fleet);
        service.runUntilIdle();
        ASSERT_TRUE(service.idle());
        for (const SessionSpec &spec : fleet)
            golden.push_back(service.result(spec.name));
    }

    // Accelerated: fused + cached, killed twice and recovered.
    const std::string fast_dir = test::scratchDir("infer_fast");
    ServiceOptions fast_options = quickService(fast_dir, 4);
    fast_options.tlp_infer = model::TlpInferOptions{true, 512};
    for (int64_t kill_ticks : {7, 5}) {
        TuningService service(fast_options);
        ASSERT_TRUE(service.swapModel(snap).ok());
        service.recover(fleet);
        service.runUntilIdle(kill_ticks);
        // destroyed here, mid-run: the "kill"
    }
    TuningService service(fast_options);
    ASSERT_TRUE(service.swapModel(snap).ok());
    const auto report = service.recover(fleet);
    EXPECT_EQ(report.quarantined, 0);
    service.runUntilIdle();
    ASSERT_TRUE(service.idle());

    for (size_t i = 0; i < fleet.size(); ++i) {
        const std::string &name = fleet[i].name;
        ASSERT_EQ(service.status(name), SessionStatus::Finished);
        expectSameCurve(golden[i], service.result(name), name);
    }
    EXPECT_TRUE(curvesMatch(legacy_dir, fast_dir, fleet));
}

TEST(Service, QuarantineKeepsEveryGeneration)
{
    // Two successive quarantines of the same session must leave two
    // distinct evidence files; a fixed suffix would silently overwrite
    // the first (the bug this pins).
    const auto fleet = quickFleet(2);
    const std::string dir = test::scratchDir("quarantine_gen");
    const std::string victim = dir + "/s001.ckpt";

    {
        TuningService service(quickService(dir, 2));
        service.recover(fleet);
        service.runUntilIdle(9);
    }
    ASSERT_TRUE(tearMidFile(victim)) << victim;
    {
        TuningService service(quickService(dir, 2));
        const auto report = service.recover(fleet);
        EXPECT_EQ(report.quarantined, 1);
        EXPECT_TRUE(fs::exists(victim + ".quarantined.1"));
        service.runUntilIdle(9);
    }
    ASSERT_TRUE(tearMidFile(victim)) << victim;
    {
        TuningService service(quickService(dir, 2));
        const auto report = service.recover(fleet);
        EXPECT_EQ(report.quarantined, 1);
        // Both generations of evidence survive, and they differ (they
        // were taken at different rounds).
        ASSERT_TRUE(fs::exists(victim + ".quarantined.1"));
        ASSERT_TRUE(fs::exists(victim + ".quarantined.2"));
        service.runUntilIdle();
        for (const SessionSpec &spec : fleet)
            EXPECT_EQ(service.status(spec.name),
                      SessionStatus::Finished);
    }
}

TEST(Service, RecoverSweepsStrandedTempFiles)
{
    // A crash between atomicWriteFile's open and rename strands
    // "<name>.tmp.<pid>.<seq>" files; recover() must reap them (and
    // only them).
    const auto fleet = quickFleet(2);
    const std::string dir = test::scratchDir("sweep");
    fs::create_directories(dir);
    for (const char *name :
         {"s000.ckpt.tmp.12345.0", "s001.ckpt.tmp.999.17",
          "s000.curve.tmp.1.2",
          "keep.ckpt",                 // not a temp: must survive
          "odd.tmp.x.1"})              // non-numeric pid: must survive
        plantFile(dir + "/" + name, "stranded");

    TuningService service(quickService(dir, 2));
    const auto report = service.recover(fleet);
    EXPECT_EQ(report.stale_temps_swept, 3);
    EXPECT_EQ(service.stats().stale_temps_swept, 3);
    EXPECT_FALSE(fs::exists(dir + "/s000.ckpt.tmp.12345.0"));
    EXPECT_FALSE(fs::exists(dir + "/s001.ckpt.tmp.999.17"));
    EXPECT_FALSE(fs::exists(dir + "/s000.curve.tmp.1.2"));
    EXPECT_TRUE(fs::exists(dir + "/keep.ckpt"));
    EXPECT_TRUE(fs::exists(dir + "/odd.tmp.x.1"));
    service.runUntilIdle();
    for (const SessionSpec &spec : fleet)
        EXPECT_EQ(service.status(spec.name), SessionStatus::Finished);
}

TEST(Service, CheckpointWriteFaultsRetryThenDegradeWithoutCurveDrift)
{
    // DESIGN.md §14: with the I/O chaos env failing checkpoint and
    // curve writes (crash debris and all), the fleet's curves must stay
    // byte-identical to a fault-free run — checkpoint persistence may
    // degrade, trajectories may not.
    const auto fleet = quickFleet(4);
    const std::string golden_dir = test::scratchDir("io_golden");
    std::vector<tune::TuneResult> golden;
    runGolden(golden_dir, fleet, golden);

    const std::string dir = test::scratchDir("io_chaos");
    IoFaultProfile chaos;
    chaos.fault_rate = 0.7;
    chaos.seed = 0x10c4a0;
    chaos.crash_debris = true;
    ScopedIoFaults scope(chaos);

    ServiceOptions options = quickService(dir, 4);
    options.ckpt_retry_limit = 2;
    {
        // First incarnation dies mid-run with faults raging.
        TuningService service(options);
        service.recover(fleet);
        service.runUntilIdle(13);
    }
    TuningService service(options);
    service.recover(fleet);   // sweeps debris, adopts what survived
    service.runUntilIdle();
    ASSERT_TRUE(service.idle());

    const ServiceStats &stats = service.stats();
    EXPECT_GT(stats.ckpt_write_failures, 0);
    EXPECT_GT(stats.ckpt_retries, 0);
    EXPECT_GT(stats.checkpointless_sessions, 0);

    for (size_t i = 0; i < fleet.size(); ++i) {
        const std::string &name = fleet[i].name;
        ASSERT_EQ(service.status(name), SessionStatus::Finished);
        expectSameCurve(golden[i], service.result(name), name);
    }
    EXPECT_TRUE(curvesMatch(golden_dir, dir, fleet));
}

TEST(Service, RecoveryRetriesReadFaultsInsteadOfQuarantining)
{
    // A read fault on an intact checkpoint is not damage: recover()
    // retries it and resumes, so no salvageable round is thrown away.
    const auto fleet = quickFleet(4);
    const std::string golden_dir = test::scratchDir("read_fault_golden");
    std::vector<tune::TuneResult> golden;
    runGolden(golden_dir, fleet, golden);

    const std::string dir = test::scratchDir("read_fault");
    const ServiceOptions options = quickService(dir, 4);
    bench::runFleet(options, fleet, 9);

    IoFaultProfile chaos;
    chaos.fault_rate = 0.5;
    chaos.seed = 0x4ead;
    ScopedIoFaults scope(chaos);
    const bench::FleetRun resumed = bench::runFleet(options, fleet);
    EXPECT_EQ(resumed.recovery.quarantined, 0);
    EXPECT_EQ(resumed.recovery.recovered, 4);
    EXPECT_GT(IoEnv::global().counters().read_faults, 0);
    for (const SessionStatus status : resumed.status)
        EXPECT_EQ(status, SessionStatus::Finished);
    EXPECT_TRUE(curvesMatch(golden_dir, dir, fleet));
}

TEST(Service, IoChaosScheduleIsSeededAndReplayable)
{
    // The same profile over the same fleet injects the identical fault
    // schedule: counters match run-for-run (the I/O analogue of the
    // transient-fault determinism test above).
    const auto fleet = quickFleet(2);
    IoFaultProfile chaos;
    chaos.fault_rate = 0.5;
    chaos.seed = 0xabc;
    int64_t failures[2] = {0, 0};
    for (int pass = 0; pass < 2; ++pass) {
        // Same directory both passes: draws are keyed by the path
        // fingerprint, so the schedule replays only on identical paths.
        const std::string dir = test::scratchDir("io_replay");
        ScopedIoFaults scope(chaos);
        TuningService service(quickService(dir, 2));
        service.recover(fleet);
        service.runUntilIdle();
        failures[pass] = service.stats().ckpt_write_failures;
    }
    EXPECT_GT(failures[0], 0);
    EXPECT_EQ(failures[0], failures[1]);
}

TEST(Service, PoisonedSessionIsContainedWithoutCurveDrift)
{
    // DESIGN.md §15: tripping the circuit breaker on one poisoned
    // session must leave every other session's curve bytes identical
    // to a fleet where the poisoned spec never existed — at any
    // thread count.
    auto drill_fleet = quickFleet(5);
    auto golden_fleet = drill_fleet;
    golden_fleet.erase(golden_fleet.begin() + 2);   // a world without s002

    const std::string golden_dir = test::scratchDir("poison_golden");
    std::vector<tune::TuneResult> golden;
    runGolden(golden_dir, golden_fleet, golden);

    for (const int threads : {1, 3}) {
        ThreadPool::setGlobalThreads(threads);
        const std::string dir =
            test::scratchDir("poison_drill" + std::to_string(threads));
        ServiceOptions options = quickService(dir, 5);
        options.faults.poison_session = "s002";
        options.faults.poison_after_round = 1;
        options.breaker_trip_limit = 3;
        options.backoff_cap_ticks = 2;
        TuningService service(options);
        service.recover(drill_fleet);
        service.runUntilIdle();
        ASSERT_TRUE(service.idle());

        // The poisoned session is terminal, curveless, and its last
        // checkpoint was renamed aside as evidence.
        EXPECT_EQ(service.status("s002"),
                  SessionStatus::PoisonQuarantined);
        EXPECT_EQ(service.stats().breaker_trips, 1);
        EXPECT_FALSE(fs::exists(dir + "/s002.curve"));
        EXPECT_FALSE(fs::exists(dir + "/s002.ckpt"));
        EXPECT_TRUE(fs::exists(dir + "/s002.ckpt.quarantined.1"));

        // Everyone else finished exactly as if s002 never enrolled.
        for (size_t i = 0; i < golden_fleet.size(); ++i) {
            const std::string &name = golden_fleet[i].name;
            ASSERT_EQ(service.status(name), SessionStatus::Finished);
            expectSameCurve(golden[i], service.result(name), name);
        }
        EXPECT_TRUE(curvesMatch(golden_dir, dir, golden_fleet))
            << threads << " threads";
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
}

TEST(Service, BreakerTripFreesSlotForQueuedSession)
{
    // A tripped session must release its active slot like any other
    // terminal state: the queued session behind it gets promoted and
    // runs to completion.
    const auto fleet = quickFleet(2);
    const std::string dir = test::scratchDir("breaker_slot");
    ServiceOptions options = quickService(dir, 2);
    options.max_active = 1;
    options.faults.poison_session = "s000";
    options.faults.poison_after_round = 0;
    options.breaker_trip_limit = 2;
    options.backoff_cap_ticks = 2;
    TuningService service(options);
    EXPECT_EQ(service.submit(fleet[0]), AdmitOutcome::Active);
    EXPECT_EQ(service.submit(fleet[1]), AdmitOutcome::Queued);
    service.runUntilIdle();

    EXPECT_EQ(service.status("s000"), SessionStatus::PoisonQuarantined);
    EXPECT_EQ(service.status("s001"), SessionStatus::Finished);
    EXPECT_EQ(service.stats().breaker_trips, 1);
    EXPECT_EQ(service.stats().finished, 1);
    // Poisoned before its first checkpoint: no evidence, just no file.
    EXPECT_FALSE(fs::exists(dir + "/s000.curve"));
    EXPECT_TRUE(fs::exists(dir + "/s001.curve"));
}

TEST(Service, DisabledBreakerNeverTripsUnderPoison)
{
    // breaker_trip_limit = 0 turns containment off: the poisoned
    // session retries (with backoff) until the tick budget expires,
    // and is still Active when the service is stopped.
    const auto fleet = quickFleet(2);
    const std::string dir = test::scratchDir("breaker_off");
    ServiceOptions options = quickService(dir, 2);
    options.faults.poison_session = "s000";
    options.faults.poison_after_round = 0;
    options.breaker_trip_limit = 0;
    options.backoff_cap_ticks = 2;
    TuningService service(options);
    service.recover(fleet);
    service.runUntilIdle(200);

    EXPECT_EQ(service.stats().breaker_trips, 0);
    // Stopped mid-backoff, not quarantined: the session is still live.
    EXPECT_EQ(service.status("s000"), SessionStatus::BackedOff);
    EXPECT_EQ(service.status("s001"), SessionStatus::Finished);
    EXPECT_GT(service.stats().faults_injected, 0);
    EXPECT_FALSE(service.idle());
}

TEST(Service, RecoverQuarantineSkipsPlantedEvidenceGenerations)
{
    // Evidence from earlier incidents may be non-contiguous (operators
    // delete nothing, but crashes can). recover() must slot new
    // evidence into the first free generation and never overwrite.
    const auto fleet = quickFleet(2);
    const std::string dir = test::scratchDir("evidence_gaps");
    {
        TuningService service(quickService(dir, 2));
        service.recover(fleet);
        service.runUntilIdle(9);
    }
    const std::string victim = dir + "/s001.ckpt";
    ASSERT_TRUE(fs::exists(victim));
    ASSERT_TRUE(tearMidFile(victim)) << victim;
    plantFile(victim + ".quarantined.1", "incident one");
    plantFile(victim + ".quarantined.3", "incident three");

    TuningService service(quickService(dir, 2));
    const auto report = service.recover(fleet);
    EXPECT_EQ(report.quarantined, 1);
    EXPECT_TRUE(fs::exists(victim + ".quarantined.2"));
    EXPECT_EQ(readFile(victim + ".quarantined.1"), "incident one");
    EXPECT_EQ(readFile(victim + ".quarantined.3"), "incident three");
    service.runUntilIdle();
    for (const SessionSpec &spec : fleet)
        EXPECT_EQ(service.status(spec.name), SessionStatus::Finished);
}

TEST(Service, GuardedTlpWithoutSnapshotRunsTheAnsorLadder)
{
    // No snapshot installed: a guarded-tlp session degrades to the
    // guarded-ansor ladder and so writes the same curve.
    auto ansor_fleet = quickFleet(2);
    auto tlp_fleet = ansor_fleet;
    for (size_t i = 0; i < ansor_fleet.size(); ++i) {
        ansor_fleet[i].model = ModelKind::GuardedAnsor;
        tlp_fleet[i].model = ModelKind::GuardedTlp;
    }
    const std::string ansor_dir = test::scratchDir("ansor");
    const std::string tlp_dir = test::scratchDir("tlp");
    TuningService ansor(quickService(ansor_dir, 2));
    ansor.recover(ansor_fleet);
    ansor.runUntilIdle();
    TuningService tlp(quickService(tlp_dir, 2));
    tlp.recover(tlp_fleet);
    tlp.runUntilIdle();
    EXPECT_TRUE(curvesMatch(ansor_dir, tlp_dir, ansor_fleet));
}

TEST(BenchDrill, CurvesMatchOnlyOnIdenticalNonEmptyCurves)
{
    const std::string golden = test::scratchDir("golden");
    const std::string drill = test::scratchDir("drill");
    const auto fleet = quickFleet(2);
    for (const SessionSpec &spec : fleet) {
        plantFile(golden + "/" + spec.name + ".curve", "0 1.5 2.0\n");
        plantFile(drill + "/" + spec.name + ".curve", "0 1.5 2.0\n");
    }
    EXPECT_TRUE(curvesMatch(golden, drill, fleet));

    // One byte off in one session's curve.
    plantFile(drill + "/s001.curve", "0 1.5 2.1\n");
    EXPECT_FALSE(curvesMatch(golden, drill, fleet));
    plantFile(drill + "/s001.curve", "0 1.5 2.0\n");

    // A missing or empty golden curve never matches vacuously, even
    // when the drill side is missing or empty too.
    plantFile(golden + "/s001.curve", "");
    plantFile(drill + "/s001.curve", "");
    EXPECT_FALSE(curvesMatch(golden, drill, fleet));
    fs::remove(golden + "/s001.curve");
    fs::remove(drill + "/s001.curve");
    EXPECT_FALSE(curvesMatch(golden, drill, fleet));
}

TEST(BenchDrill, ReportWritesTheCommittedLayout)
{
    // One of each field shape the BENCH_*.json files use: a scalar of
    // each printf format in use, a bool, a string, an array of rows
    // between scalars, and a nested object closing the report.
    const std::string path = test::scratchDir() + "/BENCH_layout.json";
    bench::Report report(path, "layout");
    report.add("sessions", "%d", 8)
        .add("kill_tick", "%lld", 9000000000LL)
        .add("dataset_bytes", "%zu", size_t{597461})
        .add("load_mbps", "%.2f", 34.356)
        .add("wall_seconds", "%.3f", 0.0654)
        .add("ticks_saved_fraction", "%.4f", 0.4375)
        .flag("curves_identical", true);
    report.row("sweep")
        .add("flip_rate", "%g", 0.0)
        .text("policy", "abort")
        .add("final_loss", "%.6f", 0.229252)
        .add("records_lost", "%.1f", 606.25)
        .flag("aborted", false);
    report.row("sweep")
        .add("flip_rate", "%g", 1e-5)
        .text("policy", "rollback-retry")
        .add("final_loss", "%.6f", 0.3040391)
        .add("records_lost", "%.1f", 0.0)
        .flag("aborted", true);
    report.add("violations", "%d", 0);
    report.object("guarded_search")
        .add("clean_final_ms", "%.4f", 4.932)
        .add("failovers", "%lld", 1LL);
    ASSERT_TRUE(report.write());
    EXPECT_EQ(readFile(path),
              "{\n"
              "  \"bench\": \"layout\",\n"
              "  \"scale\": " + strFormat("%.3f", benchScale()) + ",\n"
              "  \"sessions\": 8,\n"
              "  \"kill_tick\": 9000000000,\n"
              "  \"dataset_bytes\": 597461,\n"
              "  \"load_mbps\": 34.36,\n"
              "  \"wall_seconds\": 0.065,\n"
              "  \"ticks_saved_fraction\": 0.4375,\n"
              "  \"curves_identical\": true,\n"
              "  \"sweep\": [\n"
              "    {\"flip_rate\": 0, \"policy\": \"abort\", "
              "\"final_loss\": 0.229252, \"records_lost\": 606.2, "
              "\"aborted\": false},\n"
              "    {\"flip_rate\": 1e-05, \"policy\": \"rollback-retry\", "
              "\"final_loss\": 0.304039, \"records_lost\": 0.0, "
              "\"aborted\": true}\n"
              "  ],\n"
              "  \"violations\": 0,\n"
              "  \"guarded_search\": {\n"
              "    \"clean_final_ms\": 4.9320,\n"
              "    \"failovers\": 1\n"
              "  }\n"
              "}\n");
}

TEST(BenchDrill, ReportCloseFailsOnFullDisk)
{
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    // fopen succeeds on /dev/full; the write only fails on the flush.
    EXPECT_FALSE(bench::Report("/dev/full", "full_disk").write());
    const std::string dir = test::scratchDir();
    EXPECT_FALSE(bench::Report(dir + "/missing/BENCH.json", "x").write());

    const std::string path = dir + "/BENCH_ok.json";
    EXPECT_TRUE(bench::Report(path, "ok").write());
    EXPECT_EQ(readFile(path), "{\n  \"bench\": \"ok\",\n  \"scale\": " +
                                  strFormat("%.3f", benchScale()) + "\n}\n");
}

TEST(Service, ModelKindNamesRoundTrip)
{
    for (const ModelKind kind :
         {ModelKind::Random, ModelKind::Ansor, ModelKind::GuardedAnsor,
          ModelKind::GuardedTlp}) {
        const auto parsed = parseModelKind(modelKindName(kind));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value(), kind);
    }
    EXPECT_FALSE(parseModelKind("xgboost").ok());
}

} // namespace
} // namespace tlp::serve
