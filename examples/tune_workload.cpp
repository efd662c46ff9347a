/**
 * @file
 * End-to-end auto-tuning of a network on a simulated platform, with a
 * selectable cost model — the Sec. 6.3 experience at example scale.
 *
 * Usage: tune_workload [--network resnet-18] [--platform i7-10510u]
 *                      [--model ansor|random|tlp] [--rounds 20]
 *                      [--subgraphs 2] [--fault-rate 0.1] [--retries 2]
 *                      [--checkpoint tune.ckpt] [--checkpoint-every 5]
 *                      [--resume tune.ckpt]
 *                      [--verify-checkpoint any-artifact.bin]
 *                      [--save-model tlp.snap] [--load-model tlp.snap]
 *                      [--threads 4] [--supervise]
 *                      [--train-fault-rate 0.05] [--guarded]
 *                      [--collapse-after 3]
 *
 * The "tlp" model is pretrained on a freshly collected mini dataset
 * before tuning starts (a minute or so); "ansor" trains online.
 * --save-model persists the pretrained TLP net as a checksummed
 * snapshot and --load-model restores it (skipping pretraining); a
 * corrupt or mismatched snapshot is one clear fatal message.
 * --fault-rate injects deterministic measurement failures (compile
 * errors, timeouts, runtime errors, outliers in equal parts); --resume
 * continues a checkpointed campaign after a crash or kill and keeps
 * checkpointing to the same file (a different --checkpoint file is a
 * user error; a missing --resume file starts a fresh session there).
 */
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "artifact/audit.h"
#include "dataset/collect.h"
#include "dataset/splits.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "models/guarded_model.h"
#include "models/snapshot.h"
#include "support/argparse.h"
#include "support/thread_pool.h"
#include "tuner/session.h"

using namespace tlp;

int
main(int argc, char **argv)
{
    ArgParser args("auto-tune a network with a chosen cost model");
    args.addString("network", "resnet-18", "model-zoo network");
    args.addString("platform", "i7-10510u", "hardware preset");
    args.addString("model", "ansor", "cost model: ansor|random|tlp");
    args.addInt("rounds", 20, "tuning rounds");
    args.addInt("seed", 1, "search seed");
    args.addDouble("fault-rate", 0.0,
                   "injected measurement fault rate in [0, 1)");
    args.addInt("retries", 2, "retries for transient measurement faults");
    args.addString("checkpoint", "",
                   "checkpoint file written every few rounds");
    args.addInt("checkpoint-every", 5,
                "rounds between checkpoint writes");
    args.addString("resume", "",
                   "resume from this checkpoint and keep writing it "
                   "(implies --checkpoint; a missing file starts a "
                   "fresh session that checkpoints there)");
    args.addString("verify-checkpoint", "",
                   "integrity-check this artifact (any of the four "
                   "formats, auto-detected by magic) and exit "
                   "(0 = intact, 3 = damaged)");
    args.addInt("subgraphs", 0,
                "tune only the first N subgraphs (0 = all)");
    args.addString("save-model", "",
                   "save the pretrained TLP model snapshot here");
    args.addString("load-model", "",
                   "load a TLP model snapshot instead of pretraining");
    args.addInt("threads", 0,
                "worker threads for kernels/features "
                "(0 = TLP_NUM_THREADS env, default 1)");
    args.addBool("supervise", false,
                 "wrap pretraining in the TrainSupervisor "
                 "(rollback-retry on numeric anomalies)");
    args.addDouble("train-fault-rate", 0.0,
                   "injected training fault rate in [0, 1) "
                   "(implies --supervise)");
    args.addBool("guarded", false,
                 "run the search behind the cost-model fallback ladder "
                 "(model > ansor-online > random)");
    args.addInt("collapse-after", 0,
                "inject cost-model score collapse after N online "
                "updates (needs --guarded)");
    args.parse(argc, argv);

    // Artifact triage mode: no tuning, just the §8 integrity check with
    // the standard exit-code contract (0 intact, 3 damaged). The audit
    // module auto-detects the format by magic, so any of the four
    // artifacts (or a curve file) can be handed to the same flag.
    const std::string verify = args.getString("verify-checkpoint");
    if (!verify.empty()) {
        const artifact::VerifyOutcome outcome =
            artifact::verifyArtifactFile(verify);
        const char *kind = artifact::artifactKindName(outcome.kind);
        if (!outcome.status.ok()) {
            if (outcome.kind == artifact::ArtifactKind::Unknown)
                artifactFatal(outcome.status, "cannot verify ", verify);
            artifactFatal(outcome.status, "damaged ", kind,
                          " artifact ", verify);
        }
        std::printf("%s: intact (%s)\n", verify.c_str(), kind);
        return 0;
    }

    const int threads = static_cast<int>(args.getInt("threads"));
    if (threads < 0)
        TLP_FATAL("--threads must be >= 0, got ", threads);
    const std::string checkpoint = args.getString("checkpoint");
    const std::string resume = args.getString("resume");
    if (!checkpoint.empty() && !resume.empty() && checkpoint != resume)
        TLP_FATAL("--checkpoint ", checkpoint, " and --resume ", resume,
                  " name different files; --resume keeps checkpointing "
                  "to the file it resumes from");
    if (threads > 0)
        ThreadPool::setGlobalThreads(threads);
    std::printf("threads: %d\n", ThreadPool::global().numThreads());

    const auto platform =
        hw::HardwarePlatform::preset(args.getString("platform"));
    ir::Workload workload =
        ir::partitionGraph(ir::buildNetwork(args.getString("network")));
    const int subgraphs = static_cast<int>(args.getInt("subgraphs"));
    if (subgraphs < 0)
        TLP_FATAL("--subgraphs must be >= 0, got ", subgraphs);
    if (subgraphs > 0 &&
        static_cast<size_t>(subgraphs) < workload.subgraphs.size()) {
        workload.name += "-slice" + std::to_string(subgraphs);
        workload.subgraphs.resize(static_cast<size_t>(subgraphs));
        workload.weights.resize(static_cast<size_t>(subgraphs));
    }
    std::printf("tuning %s on %s: %zu tasks\n",
                args.getString("network").c_str(), platform.name.c_str(),
                workload.subgraphs.size());

    std::unique_ptr<model::CostModel> cost_model;
    const std::string which = args.getString("model");
    const std::string save_model = args.getString("save-model");
    const std::string load_model = args.getString("load-model");
    if ((!save_model.empty() || !load_model.empty()) && which != "tlp")
        TLP_FATAL("--save-model/--load-model require --model tlp");
    if (which == "ansor") {
        cost_model = std::make_unique<model::AnsorOnlineCostModel>();
    } else if (which == "random") {
        cost_model = std::make_unique<model::RandomCostModel>();
    } else if (which == "tlp") {
        std::shared_ptr<model::TlpNet> net;
        if (!load_model.empty()) {
            auto loaded = model::loadTlpSnapshot(load_model);
            if (!loaded.ok()) {
                artifactFatal(loaded.status(),
                              "cannot load model snapshot ", load_model);
            }
            net = loaded.take();
            std::printf("loaded pretrained TLP snapshot from %s\n",
                        load_model.c_str());
        } else {
            std::printf("pretraining TLP on a mini offline dataset...\n");
            data::CollectOptions collect;
            collect.networks = {"resnet-34", "vgg-16", "bert-small"};
            collect.platforms = {platform.name};
            collect.is_gpu = platform.is_gpu;
            collect.programs_per_subgraph = 64;
            const auto dataset = data::collectDataset(collect);
            std::vector<int> all_records;
            for (size_t r = 0; r < dataset.records.size(); ++r)
                all_records.push_back(static_cast<int>(r));
            auto set = data::buildTlpSet(dataset, all_records, {0});
            Rng rng(7);
            net = std::make_shared<model::TlpNet>(model::TlpNetConfig{},
                                                  rng);
            model::TrainOptions options;
            options.epochs = 4;
            options.verbose = true;
            const double train_fault_rate =
                args.getDouble("train-fault-rate");
            if (train_fault_rate < 0.0 || train_fault_rate >= 1.0) {
                TLP_FATAL("--train-fault-rate must be in [0, 1), got ",
                          train_fault_rate);
            }
            if (args.getBool("supervise") || train_fault_rate > 0.0) {
                options.supervisor.enabled = true;
                options.supervisor.faults =
                    model::TrainFaultProfile::uniform(train_fault_rate);
            }
            model::HealthCounters train_health;
            options.supervisor.health_out = &train_health;
            trainTlpNet(*net, set, options);
            if (options.supervisor.enabled) {
                std::printf("training health: %s\n",
                            train_health.toString().c_str());
            }
        }
        if (!save_model.empty()) {
            const Status status = model::saveTlpSnapshot(save_model, *net);
            if (!status.ok()) {
                TLP_FATAL("cannot save model snapshot ", save_model, ": ",
                          status.toString());
            }
            std::printf("saved TLP snapshot to %s\n", save_model.c_str());
        }
        cost_model = std::make_unique<model::TlpCostModel>(net);
    } else {
        TLP_FATAL("unknown --model: ", which);
    }

    // Degraded-mode search: the chosen model becomes the top rung of a
    // fallback ladder that survives NaN scores / output collapse / lost
    // rank correlation by quarantining the sick rung.
    std::shared_ptr<model::GuardedCostModel> guarded;
    const int collapse_after =
        static_cast<int>(args.getInt("collapse-after"));
    if (collapse_after > 0 && !args.getBool("guarded"))
        TLP_FATAL("--collapse-after needs --guarded");
    if (args.getBool("guarded")) {
        std::shared_ptr<model::CostModel> top = std::move(cost_model);
        if (collapse_after > 0) {
            top = std::make_shared<model::FaultInjectedCostModel>(
                std::move(top), collapse_after);
        }
        guarded = model::makeGuardedLadder(std::move(top));
    }

    tune::TuneOptions options;
    // Every task needs at least one round before the workload latency
    // (sum over tasks) becomes finite.
    options.rounds =
        std::max(static_cast<int>(args.getInt("rounds")),
                 static_cast<int>(workload.subgraphs.size()));
    options.seed = static_cast<uint64_t>(args.getInt("seed"));
    options.verbose = true;
    const double fault_rate = args.getDouble("fault-rate");
    if (fault_rate < 0.0 || fault_rate >= 1.0)
        TLP_FATAL("--fault-rate must be in [0, 1), got ", fault_rate);
    if (fault_rate > 0.0)
        options.measure.faults = hw::FaultProfile::uniform(fault_rate);
    options.measure.max_retries = static_cast<int>(args.getInt("retries"));
    options.checkpoint_path = checkpoint;
    options.checkpoint_every =
        static_cast<int>(args.getInt("checkpoint-every"));
    if (options.checkpoint_every <= 0)
        TLP_FATAL("--checkpoint-every must be positive");
    if (!resume.empty()) {
        options.checkpoint_path = resume;
        options.resume = true;
        // Damaged checkpoints are an artifact problem (exit 3), not a
        // usage problem: verify up front instead of dying mid-resume.
        std::ifstream probe(options.checkpoint_path, std::ios::binary);
        if (probe) {
            const Status status = tune::verifyCheckpoint(probe);
            if (!status.ok()) {
                artifactFatal(status, "cannot resume from checkpoint ",
                              options.checkpoint_path);
            }
        }
    }
    model::CostModel &search_model =
        guarded ? static_cast<model::CostModel &>(*guarded) : *cost_model;
    const auto result =
        tune::tuneWorkload(workload, platform, search_model, options);

    std::printf("\nbest workload latency: %.4f ms after %lld "
                "measurements\n",
                result.best_workload_latency_ms,
                static_cast<long long>(result.total_measurements));
    std::printf("search time: %.1f s simulated measurement + %.2f s "
                "model/features\n",
                result.measure_seconds, result.model_seconds);
    if (result.failed_measurements > 0) {
        std::printf("measurement failures: %lld (%.1f s wasted, %lld "
                    "candidates quarantined)\n",
                    static_cast<long long>(result.failed_measurements),
                    result.wasted_measure_seconds,
                    static_cast<long long>(result.quarantined_candidates));
    }
    if (guarded) {
        std::printf("cost model: %s (active: %s); search health: %s\n",
                    result.cost_model_name.c_str(),
                    guarded->activeName().c_str(),
                    guarded->health().toString().c_str());
    }
    return 0;
}
