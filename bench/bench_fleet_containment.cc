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
#include <fstream>
#include <sstream>

#include "artifact/audit.h"
#include "bench/bench_common.h"
#include "support/clock.h"
#include "tuner/service/service.h"

using namespace tlp;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

std::vector<serve::SessionSpec>
buildFleet(int sessions, int rounds)
{
    const serve::ModelKind kinds[4] = {
        serve::ModelKind::Ansor, serve::ModelKind::Random,
        serve::ModelKind::GuardedAnsor, serve::ModelKind::Random};
    std::vector<serve::SessionSpec> fleet;
    for (int i = 0; i < sessions; ++i) {
        serve::SessionSpec spec;
        char name[16];
        std::snprintf(name, sizeof(name), "s%03d", i);
        spec.name = name;
        spec.network = "resnet-18";
        spec.platform = i % 2 == 0 ? "i7-10510u" : "platinum-8272";
        spec.model = kinds[i % 4];
        spec.max_subgraphs = 2;
        spec.tune.rounds = rounds;
        spec.tune.measures_per_round = 4;
        spec.tune.evolution.population = 24;
        spec.tune.evolution.iterations = 2;
        spec.tune.evolution.children_per_iter = 12;
        spec.tune.measure.seconds_per_measure = 0.25;
        spec.tune.seed = 0x70c51 + static_cast<uint64_t>(i);
        fleet.push_back(std::move(spec));
    }
    return fleet;
}

serve::ServiceOptions
serviceOptions(const std::string &dir, int fleet_size)
{
    serve::ServiceOptions options;
    options.dir = dir;
    options.max_active = fleet_size;
    options.max_queued = fleet_size;
    return options;
}

} // namespace

int
main()
{
    const double scale = benchScale();
    const int sessions = std::max(6, static_cast<int>(6 * scale));
    const int rounds = std::max(4, static_cast<int>(4 * scale));
    const int poison_index = sessions / 2;
    const int breaker_limit = 4;
    const auto fleet = buildFleet(sessions, rounds);
    const std::string poisoned = fleet[poison_index].name;

    std::printf("fleet containment drill: %d sessions x %d rounds, "
                "poisoning %s after round 1, breaker limit %d\n",
                sessions, rounds, poisoned.c_str(), breaker_limit);

    // (a) Golden: the world without the poisoned spec.
    auto golden_fleet = fleet;
    golden_fleet.erase(golden_fleet.begin() + poison_index);
    const std::string golden_dir = "/tmp/tlp_bench_containment_golden";
    std::filesystem::remove_all(golden_dir);
    double t0 = wallSeconds();
    serve::TuningService golden(
        serviceOptions(golden_dir, sessions));
    golden.recover(golden_fleet);
    const int64_t golden_ticks = golden.runUntilIdle();
    const double golden_seconds = wallSeconds() - t0;
    std::printf("golden: %lld ticks, %.2fs wall\n",
                static_cast<long long>(golden_ticks), golden_seconds);

    // (b) Drill: full fleet, one poisoned session, breaker armed.
    const std::string drill_dir = "/tmp/tlp_bench_containment_drill";
    std::filesystem::remove_all(drill_dir);
    serve::ServiceOptions options = serviceOptions(drill_dir, sessions);
    options.faults.poison_session = poisoned;
    options.faults.poison_after_round = 1;
    options.breaker_trip_limit = breaker_limit;
    options.backoff_base_ticks = 1;
    options.backoff_cap_ticks = 4;
    t0 = wallSeconds();
    serve::TuningService drill(options);
    drill.recover(fleet);
    const int64_t drill_ticks = drill.runUntilIdle();
    const double drill_seconds = wallSeconds() - t0;
    const auto &stats = drill.stats();
    const bool tripped =
        drill.status(poisoned) ==
            serve::SessionStatus::PoisonQuarantined &&
        stats.breaker_trips == 1;
    std::printf("drill: %lld ticks, %.2fs wall, %lld faults injected, "
                "%lld breaker trips (%s %s)\n",
                static_cast<long long>(drill_ticks), drill_seconds,
                static_cast<long long>(stats.faults_injected),
                static_cast<long long>(stats.breaker_trips),
                poisoned.c_str(),
                tripped ? "poison-quarantined" : "NOT CONTAINED (BUG)");

    // Isolation invariant: every survivor's curve file byte-identical
    // to golden; the poisoned session left no curve, only evidence.
    bool isolated = tripped &&
                    !std::filesystem::exists(drill_dir + "/" + poisoned +
                                             ".curve");
    for (const auto &spec : golden_fleet) {
        const std::string want =
            readFile(golden_dir + "/" + spec.name + ".curve");
        const std::string got =
            readFile(drill_dir + "/" + spec.name + ".curve");
        if (want.empty() || want != got) {
            isolated = false;
            std::printf("CURVE MISMATCH: %s\n", spec.name.c_str());
        }
    }
    std::printf("survivor curves identical to golden: %s\n",
                isolated ? "yes" : "NO (BUG)");

    // (c) Doctor: damage the drill directory further, audit, repair,
    // re-audit. The evidence the breaker left must be preserved.
    {
        const std::string torn = drill_dir + "/torn.ckpt";
        // tlp-lint: allow(raw-io) -- deliberately plants a torn checkpoint and debris; routing through the seam would defeat the drill
        std::ofstream os(torn, std::ios::binary);
        os << "definitely not a TLPS checkpoint";
    }
    {
        // tlp-lint: allow(raw-io) -- deliberately plants a torn checkpoint and debris; routing through the seam would defeat the drill
        std::ofstream os(drill_dir + "/torn.ckpt.tmp.424.2",
                         std::ios::binary);
        os << "stranded";
    }
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

    FILE *json = std::fopen("BENCH_fleet_containment.json", "w");
    if (!json) {
        std::fprintf(stderr,
                     "cannot write BENCH_fleet_containment.json\n");
        return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"fleet_containment\",\n");
    std::fprintf(json, "  \"scale\": %.3f,\n", scale);
    std::fprintf(json, "  \"sessions\": %d,\n", sessions);
    std::fprintf(json, "  \"rounds_per_session\": %d,\n", rounds);
    std::fprintf(json, "  \"breaker_limit\": %d,\n", breaker_limit);
    std::fprintf(json, "  \"breaker_trips\": %lld,\n",
                 static_cast<long long>(stats.breaker_trips));
    std::fprintf(json, "  \"faults_injected\": %lld,\n",
                 static_cast<long long>(stats.faults_injected));
    std::fprintf(json, "  \"golden_ticks\": %lld,\n",
                 static_cast<long long>(golden_ticks));
    std::fprintf(json, "  \"drill_ticks\": %lld,\n",
                 static_cast<long long>(drill_ticks));
    std::fprintf(json, "  \"golden_wall_seconds\": %.3f,\n",
                 golden_seconds);
    std::fprintf(json, "  \"drill_wall_seconds\": %.3f,\n",
                 drill_seconds);
    std::fprintf(json, "  \"survivors_isolated\": %s,\n",
                 isolated ? "true" : "false");
    std::fprintf(json, "  \"pre_repair_corrupt\": %d,\n", before.corrupt);
    std::fprintf(json, "  \"pre_repair_stale_temps\": %d,\n",
                 before.stale_temps);
    std::fprintf(json, "  \"repair_quarantined\": %d,\n",
                 repair.quarantined);
    std::fprintf(json, "  \"repair_swept\": %d,\n", repair.swept);
    std::fprintf(json, "  \"post_repair_clean\": %s,\n",
                 after.damaged() ? "false" : "true");
    std::fprintf(json, "  \"evidence_files_kept\": %d\n",
                 after.quarantine_evidence);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_fleet_containment.json\n");
    return isolated && repaired ? 0 : 1;
}
