/**
 * @file
 * Crash-safe multi-session tuning service (DESIGN.md §12).
 *
 * Usage: tlp_serve --dir /tmp/tlp_serve --sessions 8
 *                  [--network resnet-18] [--platform i7-10510u]
 *                  [--model random|ansor|guarded-ansor|guarded-tlp]
 *                  [--rounds 4] [--subgraphs 2] [--seed 1]
 *                  [--max-active 8] [--max-queued 16]
 *                  [--deadline 0] [--fault-rate 0] [--ticks 0]
 *                  [--io-fault-rate 0] [--io-fault-seed N]
 *                  [--poison s002] [--poison-after 2]
 *                  [--breaker-limit 12]
 *                  [--swap-model tlp.snap] [--threads 4]
 *
 * Runs a fleet of tuning sessions to completion, one round per tick,
 * writing per-session checkpoints (<name>.ckpt, every round) and final
 * curves (<name>.curve) under --dir. Recovery is automatic: rerunning
 * the same command after a kill -9 verifies the checkpoints left
 * behind, sweeps stale atomic-write temps, resumes every intact
 * session, quarantines damaged ones (renamed *.ckpt.quarantined.N,
 * unique per generation), and converges to curve files bit-identical
 * to an uninterrupted run — the CI service-recovery step diffs exactly
 * that. --ticks > 0 stops after that many scheduler ticks (a
 * deterministic "kill"); --fault-rate injects seeded transient faults
 * that exercise the exponential-backoff path; --io-fault-rate injects
 * seeded disk faults (torn/failed checkpoint and curve writes, failed
 * artifact reads; DESIGN.md §14) that exercise checkpoint-write
 * retries and the checkpointless degraded mode — neither ever
 * perturbs a curve.
 */
#include <cstdio>

#include "support/argparse.h"
#include "support/io_env.h"
#include "support/thread_pool.h"
#include "tuner/service/service.h"

using namespace tlp;

int
main(int argc, char **argv)
{
    ArgParser args("run a crash-safe fleet of tuning sessions");
    args.addString("dir", "/tmp/tlp_serve",
                   "service directory for checkpoints and curves");
    args.addInt("sessions", 8, "fleet size (sessions named s000...)");
    args.addString("network", "resnet-18", "model-zoo network");
    args.addString("platform", "i7-10510u", "hardware preset");
    args.addString("model", "random",
                   "cost model: random|ansor|guarded-ansor|guarded-tlp");
    args.addInt("rounds", 4, "round budget per session");
    args.addInt("subgraphs", 2,
                "tune only the first N subgraphs (0 = all)");
    args.addInt("seed", 1, "base seed; session i uses seed + i");
    args.addInt("max-active", 8, "concurrent active sessions");
    args.addInt("max-queued", 16, "bounded admission queue");
    args.addDouble("deadline", 0.0,
                   "per-session simulated-seconds deadline (0 = none)");
    args.addDouble("fault-rate", 0.0,
                   "seeded transient-fault rate in [0, 1)");
    args.addString("poison", "",
                   "poisoned-session drill: this session faults on "
                   "every round until the circuit breaker trips "
                   "(DESIGN.md §15)");
    args.addInt("poison-after", 0,
                "with --poison: session runs clean until round N");
    args.addInt("breaker-limit", 12,
                "consecutive strikes before a session is "
                "poison-quarantined (0 = breaker disabled)");
    args.addDouble("io-fault-rate", 0.0,
                   "seeded artifact I/O fault rate in [0, 1): torn/"
                   "failed writes and failed reads (DESIGN.md §14; "
                   "overrides TLP_IO_FAULT_RATE)");
    args.addInt("io-fault-seed", 0xd15c,
                "seed for the I/O fault schedule");
    args.addInt("ticks", 0,
                "stop after N scheduler ticks (0 = run to idle)");
    args.addString("swap-model", "",
                   "hot-swap this TLP snapshot before serving "
                   "(rejected snapshots are reported, not fatal)");
    args.addInt("threads", 0,
                "worker threads for kernels/features "
                "(0 = TLP_NUM_THREADS env, default 1)");
    args.addBool("verbose", false, "per-tick service log");
    args.parse(argc, argv);

    const int threads = static_cast<int>(args.getInt("threads"));
    if (threads < 0)
        TLP_FATAL("--threads must be >= 0, got ", threads);
    if (threads > 0)
        ThreadPool::setGlobalThreads(threads);

    const int sessions = static_cast<int>(args.getInt("sessions"));
    if (sessions <= 0)
        TLP_FATAL("--sessions must be positive, got ", sessions);
    const double fault_rate = args.getDouble("fault-rate");
    if (fault_rate < 0.0 || fault_rate >= 1.0)
        TLP_FATAL("--fault-rate must be in [0, 1), got ", fault_rate);
    const double io_fault_rate = args.getDouble("io-fault-rate");
    if (io_fault_rate < 0.0 || io_fault_rate >= 1.0)
        TLP_FATAL("--io-fault-rate must be in [0, 1), got ",
                  io_fault_rate);
    if (io_fault_rate > 0.0) {
        IoFaultProfile chaos;
        chaos.fault_rate = io_fault_rate;
        chaos.seed =
            static_cast<uint64_t>(args.getInt("io-fault-seed"));
        // Crash debris makes the drill strict: faults strand temp
        // files exactly as a dying process would, and recover() must
        // sweep them.
        chaos.crash_debris = true;
        IoEnv::global().setProfile(chaos);
    }
    const auto kind = serve::parseModelKind(args.getString("model"));
    if (!kind.ok())
        TLP_FATAL(kind.status().message());

    serve::ServiceOptions options;
    options.dir = args.getString("dir");
    options.max_active = static_cast<int>(args.getInt("max-active"));
    options.max_queued = static_cast<int>(args.getInt("max-queued"));
    options.faults.transient_rate = fault_rate;
    options.faults.poison_session = args.getString("poison");
    options.faults.poison_after_round =
        static_cast<int>(args.getInt("poison-after"));
    options.breaker_trip_limit =
        static_cast<int>(args.getInt("breaker-limit"));
    options.verbose = args.getBool("verbose");
    serve::TuningService service(options);

    const std::string swap = args.getString("swap-model");
    if (!swap.empty()) {
        const Status status = service.swapModel(swap);
        if (status.ok()) {
            std::printf("installed TLP snapshot %s\n", swap.c_str());
        } else {
            // A bad snapshot must not take the service down: sessions
            // fail over through the guarded ladder instead.
            std::printf("snapshot rejected, serving without it: %s\n",
                        status.toString().c_str());
        }
    }

    std::vector<serve::SessionSpec> fleet;
    for (int i = 0; i < sessions; ++i) {
        serve::SessionSpec spec;
        char name[16];
        std::snprintf(name, sizeof(name), "s%03d", i);
        spec.name = name;
        spec.network = args.getString("network");
        spec.platform = args.getString("platform");
        spec.model = kind.value();
        spec.max_subgraphs = static_cast<int>(args.getInt("subgraphs"));
        spec.tune.rounds = static_cast<int>(args.getInt("rounds"));
        spec.tune.seed = static_cast<uint64_t>(args.getInt("seed") + i);
        if (args.getDouble("deadline") > 0.0)
            spec.deadline_simulated_seconds = args.getDouble("deadline");
        fleet.push_back(std::move(spec));
    }

    const auto report = service.recover(fleet);
    const int64_t ticks = service.runUntilIdle(args.getInt("ticks"));

    const auto &stats = service.stats();
    std::printf("served %d sessions in %lld ticks: %lld finished, %lld "
                "deadline-expired, %lld shed\n",
                sessions, static_cast<long long>(ticks),
                static_cast<long long>(stats.finished),
                static_cast<long long>(stats.deadline_expired),
                static_cast<long long>(stats.shed));
    std::printf("recovery: %d resumed (%lld rounds salvaged), %d fresh, "
                "%d quarantined\n",
                report.recovered,
                static_cast<long long>(report.rounds_salvaged),
                report.fresh, report.quarantined);
    if (stats.faults_injected > 0) {
        std::printf("faults: %lld injected, %lld backoff ticks slept\n",
                    static_cast<long long>(stats.faults_injected),
                    static_cast<long long>(stats.backoff_ticks_slept));
    }
    if (io_fault_rate > 0.0 || stats.ckpt_write_failures > 0 ||
        report.stale_temps_swept > 0) {
        std::printf("io-chaos: %lld ckpt write failures, %lld retries "
                    "(%lld ok), %lld checkpointless, %lld curve "
                    "retries, %d stale temps swept\n",
                    static_cast<long long>(stats.ckpt_write_failures),
                    static_cast<long long>(stats.ckpt_retries),
                    static_cast<long long>(stats.ckpt_retry_successes),
                    static_cast<long long>(
                        stats.checkpointless_sessions),
                    static_cast<long long>(stats.curve_write_retries),
                    report.stale_temps_swept);
    }
    if (stats.breaker_trips > 0) {
        std::printf("containment: %lld sessions poison-quarantined "
                    "(evidence *.ckpt.quarantined.N; no curve "
                    "written)\n",
                    static_cast<long long>(stats.breaker_trips));
    }
    if (!service.idle())
        std::printf("stopped by --ticks with work remaining\n");
    return 0;
}
