/**
 * @file
 * I/O chaos drill (DESIGN.md §14): crash consistency of every artifact
 * format under injected disk faults, and service-level degradation.
 *
 * Part 1 enumerates every save fault point — open failure, torn write
 * truncated at each section boundary +/- 1 byte, flush failure, rename
 * failure, all leaving crash debris — for each of the five artifact
 * formats (dataset, model snapshot, tuning checkpoint, training
 * checkpoint, bench memo) and counts violations: a fault that was not
 * reported, a previous-generation artifact that changed on disk, or a
 * loader observing torn bytes. The paper's long-running search setting
 * assumes checkpoints survive power loss; this is that assumption,
 * measured. Part 2 runs a tuning fleet twice — golden, then under a
 * nonzero keyed-hash fault rate with a mid-run kill — and checks the
 * recovered fleet's curve files stay byte-identical while checkpoint
 * persistence degrades gracefully (retry, then checkpointless mode).
 *
 * Emits BENCH_io_chaos.json; exits nonzero on any violation.
 */
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
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
#include "models/supervisor.h"
#include "support/clock.h"
#include "support/io_env.h"
#include "support/rng.h"
#include "tuner/service/service.h"
#include "tuner/session.h"

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

// --- artifact builders (two generations per format) ----------------------

constexpr uint64_t kMemoFingerprint = 0x10c4a05;

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

std::string
trainCheckpointBytes(uint64_t seed, int steps)
{
    Rng rng(seed);
    nn::Tensor w = nn::Tensor::randn({8}, rng, 1.0);
    nn::Adam adam({w}, {.lr = 0.01});
    model::SupervisorOptions options;
    options.enabled = true;
    model::TrainSupervisor supervisor({w}, adam, options);
    for (int i = 0; i < steps; ++i) {
        supervisor.step([&] {
            adam.zeroGrad();
            auto &grad = w.grad();
            for (size_t j = 0; j < grad.size(); ++j)
                grad[j] = 0.1f * static_cast<float>(j + 1);
            return 1.0 + 0.1 * i;
        });
    }
    std::ostringstream os(std::ios::binary);
    model::writeTrainCheckpoint(os, supervisor.makeCheckpoint(steps));
    return os.str();
}

std::string
memoBytes(const data::Dataset &dataset)
{
    std::ostringstream os;
    bench::writeBenchMemo(os, kMemoFingerprint, dataset);
    return os.str();
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

// --- service chaos fleet -------------------------------------------------

std::vector<serve::SessionSpec>
buildFleet(int sessions, int rounds)
{
    std::vector<serve::SessionSpec> fleet;
    for (int i = 0; i < sessions; ++i) {
        serve::SessionSpec spec;
        char name[16];
        std::snprintf(name, sizeof(name), "s%03d", i);
        spec.name = name;
        spec.network = "resnet-18";
        spec.platform = i % 2 == 0 ? "i7-10510u" : "platinum-8272";
        spec.model = i % 2 == 0 ? serve::ModelKind::Ansor
                                : serve::ModelKind::Random;
        spec.max_subgraphs = 2;
        spec.tune.rounds = rounds;
        spec.tune.measures_per_round = 4;
        spec.tune.evolution.population = 24;
        spec.tune.evolution.iterations = 2;
        spec.tune.evolution.children_per_iter = 12;
        spec.tune.measure.seconds_per_measure = 0.25;
        spec.tune.seed = 0x10c4 + static_cast<uint64_t>(i);
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
    const double t0 = wallSeconds();

    // --- Part 1: fault-point enumeration, five formats -------------------
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
    rows.push_back(runSaveDrill(
        "train_ckpt", trainCheckpointBytes(13, 2),
        trainCheckpointBytes(14, 3), 8, [](const std::string &path) {
            return model::loadTrainCheckpoint(path).status();
        }));
    rows.push_back(runSaveDrill(
        "bench_memo", memoBytes(tiny), memoBytes(small), 24,
        [](const std::string &path) {
            return bench::loadBenchMemo(path, kMemoFingerprint).status();
        }));

    int fault_points = 0;
    int violations = 0;
    for (const DrillRow &row : rows) {
        std::printf("  %-10s %4d fault points, %d violations, %d debris "
                    "temps swept\n",
                    row.format, row.fault_points, row.violations,
                    row.debris_swept);
        fault_points += row.fault_points;
        violations += row.violations;
    }
    const double drill_seconds = wallSeconds() - t0;
    std::printf("total: %d fault points, %d violations (%.2fs)\n",
                fault_points, violations, drill_seconds);

    // --- Part 2: fleet under chaos, curves must not drift ----------------
    const int sessions = std::max(4, static_cast<int>(4 * scale));
    const int rounds = std::max(3, static_cast<int>(3 * scale));
    const auto fleet = buildFleet(sessions, rounds);
    const int64_t kill_tick =
        static_cast<int64_t>(sessions) * rounds / 2;

    const std::string golden_dir = "/tmp/tlp_bench_io_golden";
    std::filesystem::remove_all(golden_dir);
    serve::TuningService golden(serviceOptions(golden_dir, sessions));
    golden.recover(fleet);
    golden.runUntilIdle();

    IoFaultProfile chaos;
    chaos.fault_rate = 0.6;
    chaos.seed = 0xd15c;
    chaos.crash_debris = true;

    const std::string chaos_dir = "/tmp/tlp_bench_io_chaos";
    std::filesystem::remove_all(chaos_dir);
    const double t1 = wallSeconds();
    serve::RecoveryReport report;
    {
        ScopedIoFaults scope(chaos);
        serve::TuningService victim(serviceOptions(chaos_dir, sessions));
        victim.recover(fleet);
        victim.runUntilIdle(kill_tick);
        // destroyed here: the "kill -9", with fault debris on disk
    }
    ScopedIoFaults scope(chaos);
    serve::TuningService recovered(serviceOptions(chaos_dir, sessions));
    report = recovered.recover(fleet);
    recovered.runUntilIdle();
    const double chaos_seconds = wallSeconds() - t1;

    bool curves_identical = true;
    for (const auto &spec : fleet) {
        const std::string golden_curve =
            readFile(golden.curvePath(spec.name));
        const std::string chaos_curve =
            readFile(recovered.curvePath(spec.name));
        if (golden_curve.empty() || golden_curve != chaos_curve) {
            curves_identical = false;
            std::printf("  CURVE MISMATCH: %s\n", spec.name.c_str());
        }
    }
    const auto &stats = recovered.stats();
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

    FILE *json = std::fopen("BENCH_io_chaos.json", "w");
    if (!json) {
        std::fprintf(stderr, "cannot write BENCH_io_chaos.json\n");
        return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"robustness_io\",\n");
    std::fprintf(json, "  \"scale\": %.3f,\n", scale);
    std::fprintf(json, "  \"formats\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        std::fprintf(json,
                     "    {\"format\": \"%s\", \"fault_points\": %d, "
                     "\"violations\": %d, \"debris_swept\": %d}%s\n",
                     rows[i].format, rows[i].fault_points,
                     rows[i].violations, rows[i].debris_swept,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"fault_points\": %d,\n", fault_points);
    std::fprintf(json, "  \"violations\": %d,\n", violations);
    std::fprintf(json, "  \"drill_seconds\": %.3f,\n", drill_seconds);
    std::fprintf(json, "  \"fleet_sessions\": %d,\n", sessions);
    std::fprintf(json, "  \"fleet_rounds\": %d,\n", rounds);
    std::fprintf(json, "  \"fault_rate\": %.3f,\n", chaos.fault_rate);
    std::fprintf(json, "  \"ckpt_write_failures\": %lld,\n",
                 static_cast<long long>(stats.ckpt_write_failures));
    std::fprintf(json, "  \"ckpt_retries\": %lld,\n",
                 static_cast<long long>(stats.ckpt_retries));
    std::fprintf(json, "  \"ckpt_retry_successes\": %lld,\n",
                 static_cast<long long>(stats.ckpt_retry_successes));
    std::fprintf(json, "  \"checkpointless_sessions\": %lld,\n",
                 static_cast<long long>(stats.checkpointless_sessions));
    std::fprintf(json, "  \"curve_write_retries\": %lld,\n",
                 static_cast<long long>(stats.curve_write_retries));
    std::fprintf(json, "  \"stale_temps_swept\": %d,\n",
                 report.stale_temps_swept);
    std::fprintf(json, "  \"chaos_seconds\": %.3f,\n", chaos_seconds);
    std::fprintf(json, "  \"curves_identical\": %s\n",
                 curves_identical ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_io_chaos.json\n");
    return violations == 0 && curves_identical ? 0 : 1;
}
