/**
 * @file
 * Fleet containment drill (DESIGN.md §15): when one session turns
 * poisonous, how fast does the circuit breaker isolate it, and does
 * the rest of the fleet notice?
 *
 * Three measurements over the same fleet:
 *   (a) golden — the fleet WITHOUT the poisoned spec, uninterrupted;
 *   (b) drill  — the full fleet with one session poisoned from a fixed
 *       round until the breaker trips it into PoisonQuarantined. The
 *       isolation invariant is checked byte-for-byte: every surviving
 *       curve must equal its golden twin, as if the poisoned session
 *       never enrolled;
 *   (c) doctor — the drill directory is damaged further (a torn
 *       checkpoint, stranded temp debris), audited, repaired with the
 *       artifact module, and re-audited clean.
 *
 * Emits BENCH_fleet_containment.json; exits nonzero on any isolation
 * or repair violation.
 */
#include <cstdio>
#include <filesystem>

#include "artifact/audit.h"
#include "bench/bench_common.h"

using namespace tlp;
using namespace tlp::bench;

int
main()
{
    const double scale = benchScale();
    const int sessions = std::max(6, static_cast<int>(6 * scale));
    const int rounds = std::max(4, static_cast<int>(4 * scale));
    const int poison_index = sessions / 2;
    const int breaker_limit = 4;
    const auto fleet = drillFleet(sessions, rounds, 0x70c51);
    const std::string poisoned = fleet[poison_index].name;

    std::printf("fleet containment drill: %d sessions x %d rounds, "
                "poisoning %s after round 1, breaker limit %d\n",
                sessions, rounds, poisoned.c_str(), breaker_limit);

    // (a) Golden: the world without the poisoned spec.
    auto golden_fleet = fleet;
    golden_fleet.erase(golden_fleet.begin() + poison_index);
    const std::string golden_dir = "/tmp/tlp_bench_containment_golden";
    std::filesystem::remove_all(golden_dir);
    const FleetRun golden =
        runFleet(drillServiceOptions(golden_dir, sessions), golden_fleet);
    std::printf("golden: %lld ticks, %.2fs wall\n",
                static_cast<long long>(golden.ticks), golden.wall_seconds);

    // (b) Drill: full fleet, one poisoned session, breaker armed.
    const std::string drill_dir = "/tmp/tlp_bench_containment_drill";
    std::filesystem::remove_all(drill_dir);
    serve::ServiceOptions options = drillServiceOptions(drill_dir, sessions);
    options.faults.poison_session = poisoned;
    options.faults.poison_after_round = 1;
    options.breaker_trip_limit = breaker_limit;
    options.backoff_cap_ticks = 4;
    const FleetRun drill = runFleet(options, fleet);
    const serve::ServiceStats &stats = drill.stats;
    const bool tripped =
        drill.status[static_cast<size_t>(poison_index)] ==
            serve::SessionStatus::PoisonQuarantined &&
        stats.breaker_trips == 1;
    std::printf("drill: %lld ticks, %.2fs wall, %lld faults injected, "
                "%lld breaker trips (%s %s)\n",
                static_cast<long long>(drill.ticks), drill.wall_seconds,
                static_cast<long long>(stats.faults_injected),
                static_cast<long long>(stats.breaker_trips),
                poisoned.c_str(),
                tripped ? "poison-quarantined" : "NOT CONTAINED (BUG)");

    // Isolation invariant: every survivor's curve file byte-identical
    // to golden; the poisoned session left no curve, only evidence.
    const bool isolated =
        curvesMatch(golden_dir, drill_dir, golden_fleet) && tripped &&
        !std::filesystem::exists(drill_dir + "/" + poisoned + ".curve");
    std::printf("survivor curves identical to golden: %s\n",
                isolated ? "yes" : "NO (BUG)");

    // (c) Doctor: damage the drill directory further, audit, repair,
    // re-audit. The evidence the breaker left must be preserved.
    plantFile(drill_dir + "/torn.ckpt", "definitely not a TLPS checkpoint");
    plantFile(drill_dir + "/torn.ckpt.tmp.424.2", "stranded");
    const artifact::AuditReport before =
        artifact::auditDirectory(drill_dir);
    const artifact::RepairReport repair =
        artifact::repairDirectory(drill_dir);
    const artifact::AuditReport after =
        artifact::auditDirectory(drill_dir);
    const bool repaired = before.damaged() && !after.damaged() &&
                          after.quarantine_evidence >= 2;
    std::printf("doctor: pre-repair %d corrupt / %d stale-temp, "
                "repaired %d quarantined + %d swept, post-repair %s "
                "(%d evidence files kept)\n",
                before.corrupt, before.stale_temps, repair.quarantined,
                repair.swept, after.damaged() ? "DAMAGED (BUG)" : "clean",
                after.quarantine_evidence);

    Report json("BENCH_fleet_containment.json", "fleet_containment");
    json.add("sessions", "%d", sessions)
        .add("rounds_per_session", "%d", rounds)
        .add("breaker_limit", "%d", breaker_limit)
        .add("breaker_trips", "%lld",
             static_cast<long long>(stats.breaker_trips))
        .add("faults_injected", "%lld",
             static_cast<long long>(stats.faults_injected))
        .add("golden_ticks", "%lld", static_cast<long long>(golden.ticks))
        .add("drill_ticks", "%lld", static_cast<long long>(drill.ticks))
        .add("golden_wall_seconds", "%.3f", golden.wall_seconds)
        .add("drill_wall_seconds", "%.3f", drill.wall_seconds)
        .flag("survivors_isolated", isolated)
        .add("pre_repair_corrupt", "%d", before.corrupt)
        .add("pre_repair_stale_temps", "%d", before.stale_temps)
        .add("repair_quarantined", "%d", repair.quarantined)
        .add("repair_swept", "%d", repair.swept)
        .flag("post_repair_clean", !after.damaged())
        .add("evidence_files_kept", "%d", after.quarantine_evidence);
    if (!json.write())
        return 1;
    return isolated && repaired ? 0 : 1;
}
