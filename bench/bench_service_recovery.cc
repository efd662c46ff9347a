/**
 * @file
 * Whole-service fault drill (DESIGN.md §12): how much work does
 * crash-safe recovery save, and is the recovered fleet exact?
 *
 * A fleet of sessions runs three times: (a) golden, uninterrupted;
 * (b) killed at a fixed tick with one checkpoint deliberately
 * corrupted, then recovered by a fresh service incarnation; (c) the
 * same interruption replayed WITHOUT checkpoints (every session
 * restarts from round 0) as the cost baseline. The drill reports
 * rounds salvaged vs re-run, quarantine counts, and whether every
 * recovered curve is bit-identical to golden — the number the paper's
 * long-running search setting actually cares about.
 *
 * Emits BENCH_service.json.
 */
#include <cstdio>
#include <filesystem>

#include "bench/bench_common.h"

using namespace tlp;
using namespace tlp::bench;

int
main()
{
    const double scale = benchScale();
    const int sessions = std::max(8, static_cast<int>(8 * scale));
    const int rounds = std::max(4, static_cast<int>(4 * scale));
    const auto fleet = drillFleet(sessions, rounds, 0xbe7c);
    const long long kill_tick = static_cast<long long>(sessions) * rounds / 2;

    std::printf("service recovery drill: %d sessions x %d rounds, kill "
                "at tick %lld\n",
                sessions, rounds, kill_tick);

    // (a) Golden, uninterrupted.
    const std::string golden_dir = "/tmp/tlp_bench_service_golden";
    std::filesystem::remove_all(golden_dir);
    const FleetRun golden =
        runFleet(drillServiceOptions(golden_dir, sessions), fleet);
    std::printf("golden: %lld ticks, %.2fs wall\n",
                static_cast<long long>(golden.ticks), golden.wall_seconds);

    // (b) Kill at a fixed tick, corrupt one checkpoint, recover.
    const std::string drill_dir = "/tmp/tlp_bench_service_drill";
    std::filesystem::remove_all(drill_dir);
    const auto options = drillServiceOptions(drill_dir, sessions);
    runFleet(options, fleet, kill_tick);
    // One torn checkpoint.
    tearMidFile(drill_dir + "/s001.ckpt");
    const FleetRun recovered = runFleet(options, fleet);
    const serve::RecoveryReport &report = recovered.recovery;
    std::printf("recovered: %d resumed / %d quarantined / %d fresh, "
                "%lld rounds salvaged, %lld ticks to finish, %.2fs "
                "wall\n",
                report.recovered, report.quarantined, report.fresh,
                static_cast<long long>(report.rounds_salvaged),
                static_cast<long long>(recovered.ticks),
                recovered.wall_seconds);

    // Exactness: every curve file byte-identical to golden.
    const bool curves_identical = curvesMatch(golden_dir, drill_dir, fleet);
    std::printf("curves identical to golden: %s\n",
                curves_identical ? "yes" : "NO (BUG)");

    // (c) The no-checkpoint baseline: the same kill throws ALL progress
    // away, so finishing costs a full golden run again.
    const double ticks_saved_frac =
        golden.ticks > 0 ? 1.0 - static_cast<double>(recovered.ticks) /
                                     static_cast<double>(golden.ticks)
                         : 0.0;
    std::printf("recovery finished in %lld ticks vs %lld from scratch "
                "(%.0f%% saved)\n",
                static_cast<long long>(recovered.ticks),
                static_cast<long long>(golden.ticks),
                100.0 * ticks_saved_frac);

    Report json("BENCH_service.json", "service_recovery");
    json.add("sessions", "%d", sessions)
        .add("rounds_per_session", "%d", rounds)
        .add("kill_tick", "%lld", kill_tick)
        .add("recovered", "%d", report.recovered)
        .add("quarantined", "%d", report.quarantined)
        .add("fresh", "%d", report.fresh)
        .add("rounds_salvaged", "%lld",
             static_cast<long long>(report.rounds_salvaged))
        .add("rounds_rerun", "%lld",
             static_cast<long long>(recovered.stats.rounds_run))
        .add("golden_ticks", "%lld", static_cast<long long>(golden.ticks))
        .add("recovery_ticks", "%lld",
             static_cast<long long>(recovered.ticks))
        .add("ticks_saved_fraction", "%.4f", ticks_saved_frac)
        .add("golden_wall_seconds", "%.3f", golden.wall_seconds)
        .add("recovery_wall_seconds", "%.3f", recovered.wall_seconds)
        .flag("curves_identical", curves_identical);
    if (!json.write())
        return 1;
    return curves_identical && report.quarantined == 1 ? 0 : 1;
}
