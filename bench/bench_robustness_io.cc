/**
 * @file
 * I/O chaos drill (DESIGN.md §14): crash consistency of every artifact
 * format under injected disk faults, and service-level degradation.
 *
 * Part 1 enumerates every save fault point — open failure, torn write
 * truncated at each section boundary +/- 1 byte, flush failure, rename
 * failure, all leaving crash debris — for each of the three artifact
 * formats (dataset, model snapshot, tuning checkpoint) and counts
 * violations: a fault that was not reported, a previous-generation
 * artifact that changed on disk, or a loader observing torn bytes. The
 * paper's long-running search setting assumes checkpoints survive power
 * loss; this is that assumption, measured. Part 2 runs a tuning fleet
 * twice — golden, then under a nonzero keyed-hash fault rate with a
 * mid-run kill — and checks the recovered fleet's curve files stay
 * byte-identical while checkpoint persistence degrades gracefully
 * (retry, then checkpointless mode).
 *
 * Emits BENCH_io_chaos.json; exits nonzero on any violation.
 */
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <set>
#include <sstream>
#include <vector>

#include "bench/bench_common.h"
#include "dataset/collect.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "models/snapshot.h"
#include "support/clock.h"
#include "support/io_env.h"
#include "support/rng.h"
#include "tuner/session.h"

using namespace tlp;
using namespace tlp::bench;

namespace {

// --- artifact builders (two generations per format) ----------------------

data::Dataset
smallDataset(uint64_t seed, int programs)
{
    data::CollectOptions options;
    options.networks = {"resnet-18"};
    options.platforms = {"platinum-8272"};
    options.programs_per_subgraph = programs;
    options.seed = seed;
    return data::collectDataset(options);
}

std::string
datasetBytes(const data::Dataset &dataset)
{
    std::ostringstream os;
    dataset.save(os);
    return os.str();
}

std::string
snapshotBytes(uint64_t seed)
{
    Rng rng(seed);
    model::TlpNet net(model::TlpNetConfig{}, rng);
    std::ostringstream os;
    model::saveTlpSnapshot(os, net);
    return os.str();
}

std::string
checkpointBytes(uint64_t seed)
{
    const std::string path = "/tmp/tlp_bench_io_seed.ckpt";
    std::remove(path.c_str());
    ir::Workload full = ir::partitionGraph(ir::buildNetwork("resnet-18"));
    ir::Workload slim;
    slim.name = "resnet-18-slice";
    for (size_t i = 0; i < 2 && i < full.subgraphs.size(); ++i) {
        slim.subgraphs.push_back(full.subgraphs[i]);
        slim.weights.push_back(full.weights[i]);
    }
    tune::TuneOptions options;
    options.rounds = 2;
    options.measures_per_round = 4;
    options.evolution.population = 16;
    options.evolution.iterations = 1;
    options.evolution.children_per_iter = 8;
    options.checkpoint_path = path;
    options.checkpoint_every = 1;
    options.seed = seed;
    model::RandomCostModel cost_model(seed);
    tune::tuneWorkload(slim,
                       hw::HardwarePlatform::preset("platinum-8272"),
                       cost_model, options);
    std::string bytes = readFile(path);
    std::remove(path.c_str());
    return bytes;
}

// --- fault-point enumeration ---------------------------------------------

/** Every interesting truncation point: file edges plus each 16-byte
 *  section frame's tag / payload / end offsets, each +/- 1 byte. */
std::vector<size_t>
tornCuts(const std::string &bytes, size_t header)
{
    std::set<size_t> cuts{0, 1, header};
    size_t at = header;
    while (at + 16 <= bytes.size()) {
        uint64_t payload_size = 0;
        std::memcpy(&payload_size, bytes.data() + at + 4, 8);
        const size_t payload_offset = at + 16;
        if (payload_size > bytes.size() - payload_offset)
            break;
        for (const size_t mark :
             {at, payload_offset,
              payload_offset + static_cast<size_t>(payload_size)}) {
            if (mark > 0)
                cuts.insert(mark - 1);
            cuts.insert(mark);
            cuts.insert(mark + 1);
        }
        at = payload_offset + static_cast<size_t>(payload_size);
    }
    std::vector<size_t> out;
    for (const size_t cut : cuts)
        if (cut <= bytes.size())
            out.push_back(cut);
    return out;
}

struct DrillRow
{
    const char *format;
    int fault_points = 0;
    int violations = 0;   ///< unreported fault, mutated gen-1, torn load
    int debris_swept = 0;
};

DrillRow
runSaveDrill(const char *format, const std::string &gen1,
             const std::string &gen2, size_t header,
             const std::function<Status(const std::string &)> &load)
{
    DrillRow row;
    row.format = format;
    const std::string path =
        std::string("/tmp/tlp_bench_io_drill_") + format + ".bin";
    std::remove(path.c_str());
    sweepStaleTempsFor(path);

    IoEnv &env = IoEnv::global();
    const auto write = [&](const std::string &bytes) {
        return atomicWriteFile(path, [&](std::ostream &os) {
            os.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
        });
    };
    if (!write(gen1).ok() || readFile(path) != gen1) {
        row.violations += 1;   // cannot even establish generation 1
        return row;
    }

    std::vector<IoFaultDecision> points;
    for (const IoFaultKind kind :
         {IoFaultKind::OpenFail, IoFaultKind::FlushFail,
          IoFaultKind::RenameFail}) {
        IoFaultDecision decision;
        decision.kind = kind;
        decision.crash_debris = true;
        points.push_back(decision);
    }
    for (const size_t cut : tornCuts(gen2, header)) {
        IoFaultDecision decision;
        decision.kind = IoFaultKind::TornWrite;
        decision.torn_at = static_cast<int64_t>(cut);
        decision.crash_debris = true;
        points.push_back(decision);
    }

    for (const IoFaultDecision &decision : points) {
        env.armNextWrite(decision);
        row.fault_points += 1;
        bool bad = false;
        bad |= write(gen2).ok();          // the fault must be reported
        bad |= readFile(path) != gen1;    // gen-1 must be untouched
        bad |= !load(path).ok();          // and still load — never torn
        if (bad) {
            row.violations += 1;
            std::printf("  VIOLATION: %s under %s torn_at=%lld\n",
                        format, ioFaultKindName(decision.kind),
                        static_cast<long long>(decision.torn_at));
        }
    }

    row.debris_swept = sweepStaleTempsFor(path);
    if (!write(gen2).ok() || readFile(path) != gen2 || !load(path).ok())
        row.violations += 1;   // the fault-free overwrite must commit
    std::remove(path.c_str());
    return row;
}

} // namespace

int
main()
{
    const double scale = benchScale();
    const double t0 = wallSeconds();

    // --- Part 1: fault-point enumeration, three formats ------------------
    std::printf("save-fault enumeration (every fault point, crash "
                "debris on):\n");
    const data::Dataset tiny = smallDataset(12, 4);
    const data::Dataset small = smallDataset(11, 8);

    std::vector<DrillRow> rows;
    rows.push_back(runSaveDrill(
        "dataset", datasetBytes(tiny), datasetBytes(small), 8,
        [](const std::string &path) {
            return data::Dataset::tryLoad(path).status();
        }));
    rows.push_back(runSaveDrill(
        "snapshot", snapshotBytes(3), snapshotBytes(4), 8,
        [](const std::string &path) {
            return model::loadTlpSnapshot(path).status();
        }));
    rows.push_back(runSaveDrill(
        "checkpoint", checkpointBytes(5), checkpointBytes(6), 8,
        [](const std::string &path) {
            return tune::verifyCheckpoint(path);
        }));

    Report json("BENCH_io_chaos.json", "robustness_io");
    int fault_points = 0;
    int violations = 0;
    for (const DrillRow &row : rows) {
        std::printf("  %-10s %4d fault points, %d violations, %d debris "
                    "temps swept\n",
                    row.format, row.fault_points, row.violations,
                    row.debris_swept);
        json.row("formats")
            .text("format", row.format)
            .add("fault_points", "%d", row.fault_points)
            .add("violations", "%d", row.violations)
            .add("debris_swept", "%d", row.debris_swept);
        fault_points += row.fault_points;
        violations += row.violations;
    }
    const double drill_seconds = wallSeconds() - t0;
    std::printf("total: %d fault points, %d violations (%.2fs)\n",
                fault_points, violations, drill_seconds);

    // --- Part 2: fleet under chaos, curves must not drift ----------------
    const int sessions = std::max(4, static_cast<int>(4 * scale));
    const int rounds = std::max(3, static_cast<int>(3 * scale));
    const auto fleet = drillFleet(
        sessions, rounds, 0x10c4,
        {serve::ModelKind::Ansor, serve::ModelKind::Random});
    const int64_t kill_tick =
        static_cast<int64_t>(sessions) * rounds / 2;

    const std::string golden_dir = "/tmp/tlp_bench_io_golden";
    std::filesystem::remove_all(golden_dir);
    runFleet(drillServiceOptions(golden_dir, sessions), fleet);

    IoFaultProfile chaos;
    chaos.fault_rate = 0.6;
    chaos.seed = 0xd15c;
    chaos.crash_debris = true;

    // Killed at kill_tick with fault debris on disk, then recovered;
    // each incarnation under a fresh fault schedule.
    const std::string chaos_dir = "/tmp/tlp_bench_io_chaos";
    std::filesystem::remove_all(chaos_dir);
    const auto chaosRun = [&](int64_t max_ticks) {
        ScopedIoFaults scope(chaos);
        return runFleet(drillServiceOptions(chaos_dir, sessions), fleet,
                        max_ticks);
    };
    const FleetRun victim = chaosRun(kill_tick);
    const FleetRun recovered = chaosRun(0);
    const double chaos_seconds =
        victim.wall_seconds + recovered.wall_seconds;
    const serve::RecoveryReport &report = recovered.recovery;

    const bool curves_identical = curvesMatch(golden_dir, chaos_dir, fleet);
    const serve::ServiceStats &stats = recovered.stats;
    std::printf("fleet under chaos (rate %.2f): %d sessions x %d rounds, "
                "kill at tick %lld, %.2fs\n",
                chaos.fault_rate, sessions, rounds,
                static_cast<long long>(kill_tick), chaos_seconds);
    std::printf("  recovered %d / quarantined %d / fresh %d, %d stale "
                "temps swept\n",
                report.recovered, report.quarantined, report.fresh,
                report.stale_temps_swept);
    std::printf("  ckpt writes failed %lld, retries %lld (%lld ok), "
                "checkpointless %lld, curve retries %lld\n",
                static_cast<long long>(stats.ckpt_write_failures),
                static_cast<long long>(stats.ckpt_retries),
                static_cast<long long>(stats.ckpt_retry_successes),
                static_cast<long long>(stats.checkpointless_sessions),
                static_cast<long long>(stats.curve_write_retries));
    std::printf("  curves identical to golden: %s\n",
                curves_identical ? "yes" : "NO (BUG)");

    json.add("fault_points", "%d", fault_points)
        .add("violations", "%d", violations)
        .add("drill_seconds", "%.3f", drill_seconds)
        .add("fleet_sessions", "%d", sessions)
        .add("fleet_rounds", "%d", rounds)
        .add("fault_rate", "%.3f", chaos.fault_rate)
        .add("recovered", "%d", report.recovered)
        .add("quarantined", "%d", report.quarantined)
        .add("ckpt_write_failures", "%lld",
             static_cast<long long>(stats.ckpt_write_failures))
        .add("ckpt_retries", "%lld",
             static_cast<long long>(stats.ckpt_retries))
        .add("ckpt_retry_successes", "%lld",
             static_cast<long long>(stats.ckpt_retry_successes))
        .add("checkpointless_sessions", "%lld",
             static_cast<long long>(stats.checkpointless_sessions))
        .add("curve_write_retries", "%lld",
             static_cast<long long>(stats.curve_write_retries))
        .add("stale_temps_swept", "%d", report.stale_temps_swept)
        .add("chaos_seconds", "%.3f", chaos_seconds)
        .flag("curves_identical", curves_identical);
    if (!json.write())
        return 1;
    return violations == 0 && curves_identical ? 0 : 1;
}
