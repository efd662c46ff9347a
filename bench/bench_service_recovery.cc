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
#include <fstream>

#include "bench/bench_common.h"
#include "support/clock.h"

using namespace tlp;
using namespace tlp::bench;

int
main()
{
    const double scale = benchScale();
    const int sessions = std::max(8, static_cast<int>(8 * scale));
    const int rounds = std::max(4, static_cast<int>(4 * scale));
    const auto fleet = drillFleet(
        sessions, rounds, 0xbe7c,
        {serve::ModelKind::Ansor, serve::ModelKind::Random,
         serve::ModelKind::GuardedAnsor, serve::ModelKind::Random});
    const int64_t kill_tick = static_cast<int64_t>(sessions) * rounds / 2;

    std::printf("service recovery drill: %d sessions x %d rounds, kill "
                "at tick %lld\n",
                sessions, rounds, static_cast<long long>(kill_tick));

    // (a) Golden, uninterrupted.
    const std::string golden_dir = "/tmp/tlp_bench_service_golden";
    std::filesystem::remove_all(golden_dir);
    double t0 = wallSeconds();
    serve::TuningService golden(drillServiceOptions(golden_dir, sessions));
    golden.recover(fleet);
    const int64_t golden_ticks = golden.runUntilIdle();
    const double golden_seconds = wallSeconds() - t0;
    std::printf("golden: %lld ticks, %.2fs wall\n",
                static_cast<long long>(golden_ticks), golden_seconds);

    // (b) Kill at a fixed tick, corrupt one checkpoint, recover.
    const std::string drill_dir = "/tmp/tlp_bench_service_drill";
    std::filesystem::remove_all(drill_dir);
    {
        serve::TuningService victim(drillServiceOptions(drill_dir, sessions));
        victim.recover(fleet);
        victim.runUntilIdle(kill_tick);
        // destroyed here: the "kill -9"
    }
    {
        // One torn checkpoint: flip bytes mid-file.
        const std::string path = drill_dir + "/s001.ckpt";
        std::string bytes = readFile(path);
        if (bytes.size() > 64) {
            for (size_t i = bytes.size() / 2;
                 i < bytes.size() / 2 + 16 && i < bytes.size(); ++i)
                bytes[i] = static_cast<char>(~bytes[i]);
            // tlp-lint: allow(raw-io) -- deliberately plants a torn checkpoint; routing through the seam would defeat the drill
            std::ofstream os(path,
                             std::ios::binary | std::ios::trunc);
            os.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
        }
    }
    t0 = wallSeconds();
    serve::TuningService recovered(drillServiceOptions(drill_dir, sessions));
    const auto report = recovered.recover(fleet);
    const int64_t recovery_ticks = recovered.runUntilIdle();
    const double recovery_seconds = wallSeconds() - t0;
    std::printf("recovered: %d resumed / %d quarantined / %d fresh, "
                "%lld rounds salvaged, %lld ticks to finish, %.2fs "
                "wall\n",
                report.recovered, report.quarantined, report.fresh,
                static_cast<long long>(report.rounds_salvaged),
                static_cast<long long>(recovery_ticks),
                recovery_seconds);

    // (c) The no-checkpoint baseline: the same kill throws ALL progress
    // away, so finishing costs a full golden run again.
    const int64_t rerun_ticks = golden_ticks;

    // Exactness: every curve file byte-identical to golden.
    const bool curves_identical = curvesMatch(golden_dir, drill_dir, fleet);
    std::printf("curves identical to golden: %s\n",
                curves_identical ? "yes" : "NO (BUG)");

    const auto &stats = recovered.stats();
    const double ticks_saved_frac =
        rerun_ticks > 0
            ? 1.0 - static_cast<double>(recovery_ticks) /
                        static_cast<double>(rerun_ticks)
            : 0.0;
    std::printf("recovery finished in %lld ticks vs %lld from scratch "
                "(%.0f%% saved)\n",
                static_cast<long long>(recovery_ticks),
                static_cast<long long>(rerun_ticks),
                100.0 * ticks_saved_frac);

    FILE *json = openReport("BENCH_service.json");
    if (!json)
        return 1;
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"service_recovery\",\n");
    std::fprintf(json, "  \"scale\": %.3f,\n", scale);
    std::fprintf(json, "  \"sessions\": %d,\n", sessions);
    std::fprintf(json, "  \"rounds_per_session\": %d,\n", rounds);
    std::fprintf(json, "  \"kill_tick\": %lld,\n",
                 static_cast<long long>(kill_tick));
    std::fprintf(json, "  \"recovered\": %d,\n", report.recovered);
    std::fprintf(json, "  \"quarantined\": %d,\n", report.quarantined);
    std::fprintf(json, "  \"fresh\": %d,\n", report.fresh);
    std::fprintf(json, "  \"rounds_salvaged\": %lld,\n",
                 static_cast<long long>(report.rounds_salvaged));
    std::fprintf(json, "  \"rounds_rerun\": %lld,\n",
                 static_cast<long long>(stats.rounds_run));
    std::fprintf(json, "  \"golden_ticks\": %lld,\n",
                 static_cast<long long>(golden_ticks));
    std::fprintf(json, "  \"recovery_ticks\": %lld,\n",
                 static_cast<long long>(recovery_ticks));
    std::fprintf(json, "  \"ticks_saved_fraction\": %.4f,\n",
                 ticks_saved_frac);
    std::fprintf(json, "  \"golden_wall_seconds\": %.3f,\n",
                 golden_seconds);
    std::fprintf(json, "  \"recovery_wall_seconds\": %.3f,\n",
                 recovery_seconds);
    std::fprintf(json, "  \"curves_identical\": %s\n",
                 curves_identical ? "true" : "false");
    std::fprintf(json, "}\n");
    if (!closeReport(json, "BENCH_service.json"))
        return 1;
    std::printf("wrote BENCH_service.json\n");
    return curves_identical && report.quarantined == 1 ? 0 : 1;
}
