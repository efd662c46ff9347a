#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "dataset/collect.h"
#include "dataset/splits.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/guarded_model.h"
#include "models/snapshot.h"
#include "trace.h"
#include "tuner/service/service.h"

namespace perfbench {

using namespace tlp;
namespace fs = std::filesystem;

namespace {

constexpr const char *kPlatform = "i7-10510u";
/** Set-ups per run at least; setup_s is their median, which then has
 *  ten samples beyond it. */
constexpr int kSetups = 20;
/** pretrain: epochs of one training run, and its nominal seconds. */
constexpr int kPretrainEpochs = 2;
constexpr double kPretrainUnitSeconds = 7.5;
/** tune: rounds of one session (>= 200 so p95 has ten rounds beyond). */
constexpr int kTuneRounds = 200;
constexpr double kTuneUnitSeconds = 10.0;
/** tune: which scored batch the output check re-scores (mid-run, with a
 *  warm cache). */
constexpr int64_t kTuneCaptureCall = 500;
/** fleet: 8 sessions x 25 rounds = 200 ticks. */
constexpr int kFleetSessions = 8;
constexpr int kFleetRounds = 25;
constexpr int kFleetSubgraphs = 4;
constexpr double kFleetUnitSeconds = 20.0;

std::string
format(const char *fmt, ...)
{
    char buffer[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buffer, sizeof(buffer), fmt, args);
    va_end(args);
    return buffer;
}

/** Round-trip exact text of a double. */
std::string
exact(double value)
{
    return format("%.17g", value);
}

std::vector<int>
allRecords(const data::Dataset &dataset)
{
    std::vector<int> records(dataset.records.size());
    for (size_t r = 0; r < records.size(); ++r)
        records[r] = static_cast<int>(r);
    return records;
}

bool
bitEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/**
 * Output check shared by all workloads: the fused, cached scoring path
 * must match the interpreted path (the independent oracle) bit for bit
 * on @p states, and so must @p observed, the scores the run itself
 * returned for them (when known). @return an error, or "" when clean.
 */
std::string
checkFusedScores(const std::shared_ptr<model::TlpNet> &net, int task,
                 const std::vector<sched::State> &states,
                 const std::vector<double> *observed)
{
    if (states.empty())
        return "no scored batch was captured for the fused-score check";
    model::TlpCostModel fused(net, {}, 0, model::TlpInferOptions{});
    model::TlpCostModel oracle(net, {}, 0,
                               model::TlpInferOptions::legacy());
    const auto expect = oracle.predictBatch(task, states);
    if (!bitEqual(fused.predictBatch(task, states), expect))
        return "fused scores differ from the interpreted path";
    if (observed && !bitEqual(*observed, expect))
        return "scores returned during the run differ from the "
               "interpreted path";
    return "";
}

/**
 * Save the TLP snapshot tune and fleet load: a seeded, freshly
 * initialised TlpNet. Scoring costs the same whatever the weights, so an
 * untrained net exercises the same layers at the same cost while keeping
 * set-up to what a user with a ready snapshot pays (save, load, build).
 * Deterministic, so it costs the same and has the same bytes every run.
 */
void
saveSnapshot(const std::string &path)
{
    Rng rng(7);
    model::TlpNet net(model::TlpNetConfig{}, rng);
    const Status status = model::saveTlpSnapshot(path, net);
    if (!status.ok())
        throw std::runtime_error("cannot save snapshot: " + status.toString());
}

std::shared_ptr<model::TlpNet>
loadSnapshot(const std::string &path)
{
    auto loaded = model::loadTlpSnapshot(path);
    if (!loaded.ok()) {
        throw std::runtime_error("cannot load snapshot: " +
                                 loaded.status().toString());
    }
    return loaded.take();
}

/** Adds the nearest-rank p50/p95 of @p ms under @p prefix. */
void
addPercentiles(LayerTrace &trace, const std::string &prefix,
               const std::vector<double> &ms)
{
    trace.add(prefix + "_p50_ms", percentile(ms, 0.50));
    trace.add(prefix + "_p95_ms", percentile(ms, 0.95));
}

/**
 * The run skeleton every workload shares: kSetups - 1 extra set-ups,
 * then the units, each on a fresh set-up (all set-ups are timed). The
 * number of units is fixed by config.seconds and the unit's nominal
 * length on the reference machine, never by the clock, so every run of
 * a workload does the same work. A traced run does two untraced units,
 * then one traced unit; each unit returns the seconds it measured, and
 * the last two give the tracing overhead.
 */
template <typename Env>
void
runUnits(const RunConfig &config, double nominal_unit_s, RunResult &result,
         const std::function<std::unique_ptr<Env>(LayerTrace *)> &setup,
         const std::function<double(Env &, LayerTrace *)> &unit)
{
    std::unique_ptr<Env> env;
    auto timedSetup = [&](LayerTrace *trace) {
        env.reset();   // release the previous unit first
        const double t0 = now();
        env = setup(trace);
        result.setup_s.push_back(now() - t0);
    };
    for (int k = 0; k + 1 < kSetups; ++k)
        timedSetup(nullptr);
    if (!config.trace) {
        const long units =
            std::max(1L, std::lround(config.seconds / nominal_unit_s));
        for (long u = 0; u < units; ++u) {
            timedSetup(nullptr);
            unit(*env, nullptr);
        }
        return;
    }
    // The first unit of a process pays one-off costs (the allocator's
    // first large frees, page faults), so the baseline is the second.
    timedSetup(nullptr);
    unit(*env, nullptr);
    timedSetup(nullptr);
    const double untraced_s = unit(*env, nullptr);
    LayerTrace trace;
    timedSetup(&trace);
    const double traced_s = unit(*env, &trace);
    env.reset();
    trace.add("trace.untraced_s", untraced_s);
    trace.add("trace.traced_s", traced_s);
    trace.add("trace.overhead_ratio", traced_s / untraced_s - 1.0);
    result.layers = trace.sums;
}

// ---------------------------------------------------------------- pretrain

struct PretrainEnv
{
    data::Dataset dataset;
    data::LabeledSet set;
};

} // namespace

RunResult
runPretrain(const RunConfig &config)
{
    RunResult result;
    const uint64_t variant = config.variant();
    auto setup = [&](LayerTrace *trace) {
        auto env = std::make_unique<PretrainEnv>();
        data::CollectOptions collect;
        collect.networks = {"resnet-34", "vgg-16", "bert-small"};
        collect.platforms = {kPlatform};
        collect.programs_per_subgraph = 64;
        collect.seed += variant;
        const double t0 = now();
        env->dataset = data::collectDataset(collect);
        if (trace) {
            trace->add("dataset.collect_s", now() - t0);
            trace->add("dataset.records",
                       static_cast<double>(env->dataset.records.size()));
        }
        env->set =
            data::buildTlpSet(env->dataset, allRecords(env->dataset), {0});
        return env;
    };
    auto unit = [&](PretrainEnv &env, LayerTrace *trace) {
        Rng rng(7 + variant);
        auto net = std::make_shared<model::TlpNet>(model::TlpNetConfig{},
                                                   rng);
        model::TrainOptions options;
        options.epochs = kPretrainEpochs;
        options.seed += variant;
        const double sys0 = sysSeconds();
        const double cpu0 = cpuSeconds();
        const uint64_t allocs0 = heapAllocs();
        const double t0 = now();
        const double loss = model::trainTlpNet(*net, env.set, options);
        const double seconds = now() - t0;
        const double cpu_s = cpuSeconds() - cpu0;
        const int64_t samples =
            static_cast<int64_t>(env.set.rows) * kPretrainEpochs;
        if (trace) {
            trace->add("nn.train_s", seconds);
            trace->add("nn.train_samples", static_cast<double>(samples));
            trace->add("nn.train_sys_s", sysSeconds() - sys0);
            trace->add("nn.train_allocs",
                       static_cast<double>(heapAllocs() - allocs0));
        } else {
            result.addUnit(samples, {seconds * 1e3});
        }
        result.attempted += 1;
        result.failed += std::isfinite(loss) ? 0 : 1;
        result.output("final_loss", exact(loss));
        result.notes.push_back(format(
            "train run: %d epochs x %d samples in %.3f s (%.1f samples/s, "
            "%.3f cpu s), final loss %.6f",
            kPretrainEpochs, env.set.rows, seconds,
            static_cast<double>(samples) / seconds, cpu_s,
            loss));

        // Fused-vs-interpreted check on the first training programs.
        std::vector<sched::State> states;
        for (size_t r = 0; r < env.dataset.records.size() && r < 128; ++r) {
            const auto &record = env.dataset.records[r];
            states.push_back(sched::replaySteps(
                env.dataset.groups[record.group].subgraph,
                env.dataset.is_gpu, record.seq));
        }
        const std::string error = checkFusedScores(net, 0, states, nullptr);
        if (!error.empty())
            result.errors.push_back(error);
        return seconds;
    };
    runUnits<PretrainEnv>(config, kPretrainUnitSeconds, result, setup, unit);
    result.notes.push_back(format("failure base: %lld of %lld training runs "
                                  "ended with a non-finite loss",
                                  static_cast<long long>(result.failed),
                                  static_cast<long long>(result.attempted)));
    return result;
}

// -------------------------------------------------------------------- tune

namespace {

struct TuneEnv
{
    ir::Workload workload;
    std::shared_ptr<model::TlpNet> net;
    std::unique_ptr<Replayer> replayer;
    std::shared_ptr<TracingCostModel> model;
    std::unique_ptr<tune::TuningSession> session;
};

} // namespace

RunResult
runTune(const RunConfig &config)
{
    RunResult result;
    const auto platform = hw::HardwarePlatform::preset(kPlatform);
    const std::string snapshot = config.dir + "/tlp.snap";
    auto setup = [&](LayerTrace *trace) {
        auto env = std::make_unique<TuneEnv>();
        saveSnapshot(snapshot);
        const double t0 = now();
        env->net = loadSnapshot(snapshot);
        if (trace)
            trace->add("artifact.snapshot_load_s", now() - t0);
        env->workload = ir::partitionGraph(ir::buildNetwork("resnet-18"));
        auto tlp = std::make_shared<model::TlpCostModel>(
            env->net, feat::TlpFeatureOptions{}, 0, model::TlpInferOptions{});
        if (trace)
            env->replayer = std::make_unique<Replayer>(*trace, env->net,
                                                       platform);
        env->model = std::make_shared<TracingCostModel>(
            tlp, trace, env->replayer.get(), true, ReplayKind::Tlp,
            tlp.get());
        env->model->captureBatchAt(kTuneCaptureCall);
        tune::TuneOptions options;
        options.rounds = kTuneRounds;
        options.seed = 1 + config.variant();
        env->session = std::make_unique<tune::TuningSession>(
            env->workload, platform, *env->model, options);
        return env;
    };
    int64_t rounds_run = 0;
    int64_t round_budget = 0;
    auto unit = [&](TuneEnv &env, LayerTrace *trace) {
        std::vector<double> rounds_ms;
        double seconds = 0.0;
        const double cpu0 = cpuSeconds();
        while (!env.session->done()) {
            const Span span(trace);
            env.session->step();
            const double round_s = span.seconds();
            seconds += round_s;
            rounds_ms.push_back(round_s * 1e3);
        }
        rounds_run += env.session->roundsDone();
        round_budget += env.session->roundBudget();
        const tune::TuneResult &tuned = env.session->finish();
        if (env.session->roundsDone() != kTuneRounds) {
            result.errors.push_back(format("session ran %d of %d rounds",
                                           env.session->roundsDone(),
                                           kTuneRounds));
        }
        result.attempted += tuned.total_measurements;
        result.failed += tuned.failed_measurements;
        result.output("best_latency_ms", exact(tuned.best_workload_latency_ms));
        result.output("measurements",
                      std::to_string(tuned.total_measurements));
        const std::string error = checkFusedScores(
            env.net, env.model->capturedTask(), env.model->capturedStates(),
            &env.model->capturedScores());
        if (!error.empty())
            result.errors.push_back(error);
        if (trace) {
            trace->add("tuner.round_s", seconds);
            trace->add("tuner.rounds", static_cast<double>(rounds_ms.size()));
            addPercentiles(*trace, "tuner.round", rounds_ms);
        } else {
            result.addUnit(static_cast<int64_t>(rounds_ms.size()), rounds_ms);
        }
        result.notes.push_back(format(
            "session: %zu rounds in %.3f s (%.2f rounds/s, %.3f cpu s), "
            "best %.6f ms after %lld measurements",
            rounds_ms.size(), seconds,
            static_cast<double>(rounds_ms.size()) / seconds,
            cpuSeconds() - cpu0,
            tuned.best_workload_latency_ms,
            static_cast<long long>(tuned.total_measurements)));
        return seconds;
    };
    runUnits<TuneEnv>(config, kTuneUnitSeconds, result, setup, unit);
    result.notes.push_back(format(
        "failure base: %lld of %lld measurements failed; %lld of %lld "
        "budgeted rounds run",
        static_cast<long long>(result.failed),
        static_cast<long long>(result.attempted),
        static_cast<long long>(rounds_run),
        static_cast<long long>(round_budget)));
    return result;
}

// ------------------------------------------------------------------- fleet

namespace {

struct FleetEnv
{
    std::string dir;
    std::string snapshot;
    std::vector<serve::SessionSpec> specs;
    std::unique_ptr<serve::TuningService> service;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * The traced half of a fleet unit. The service builds its cost models
 * internally, so each session is replayed as a shadow TuningSession from
 * its spec, behind the same guard ladder with every rung wrapped in a
 * TracingCostModel. Trajectories depend only on the spec, so each
 * shadow must reproduce its session's curve file byte for byte; a
 * mismatch fails the run. Checkpoint writes are timed one by one.
 * @return the instrumented seconds (rounds plus checkpoint writes).
 */
double
shadowFleet(const FleetEnv &env, LayerTrace &trace, RunResult &result)
{
    const auto platform = hw::HardwarePlatform::preset(kPlatform);
    const auto net = loadSnapshot(env.snapshot);
    Replayer replayer(trace, net, platform);
    const std::string dir = env.dir + "/shadow";
    fs::create_directories(dir);
    std::vector<double> rounds_ms;
    double round_s = 0.0;
    double ckpt_s = 0.0;
    for (const serve::SessionSpec &spec : env.specs) {
        ir::Workload workload =
            ir::partitionGraph(ir::buildNetwork(spec.network));
        workload.subgraphs.resize(static_cast<size_t>(spec.max_subgraphs));
        workload.weights.resize(static_cast<size_t>(spec.max_subgraphs));

        std::vector<std::shared_ptr<model::CostModel>> ladder;
        std::shared_ptr<TracingCostModel> tlp_rung;
        if (spec.model == serve::ModelKind::GuardedTlp) {
            auto tlp = std::make_shared<model::TlpCostModel>(
                net, feat::TlpFeatureOptions{}, 0, model::TlpInferOptions{});
            tlp_rung = std::make_shared<TracingCostModel>(
                tlp, &trace, &replayer, false, ReplayKind::Tlp, tlp.get());
            ladder.push_back(tlp_rung);
        }
        ladder.push_back(std::make_shared<TracingCostModel>(
            std::make_shared<model::AnsorOnlineCostModel>(), &trace,
            &replayer, false, ReplayKind::Ansor));
        ladder.push_back(std::make_shared<model::RandomCostModel>());
        auto guarded =
            std::make_shared<model::GuardedCostModel>(std::move(ladder));
        TracingCostModel outer(guarded, &trace, &replayer, true,
                               ReplayKind::None);
        if (tlp_rung && spec.name == env.specs.front().name)
            tlp_rung->captureBatchAt(1);

        tune::TuneOptions options = spec.tune;
        options.rounds = std::max(options.rounds,
                                  static_cast<int>(workload.subgraphs.size()));
        options.checkpoint_path = dir + "/" + spec.name + ".ckpt";
        tune::TuningSession session(workload, platform, outer, options);
        session.setCheckpointingEnabled(false);
        while (!session.done()) {
            const Span span(&trace);
            session.step();
            const double seconds = span.seconds();
            round_s += seconds;
            rounds_ms.push_back(seconds * 1e3);
            const double t0 = now();
            const Status status = session.saveCheckpoint();
            ckpt_s += now() - t0;
            if (!status.ok()) {
                result.errors.push_back("shadow checkpoint write failed: " +
                                        status.toString());
            }
            trace.add("service.ckpt_bytes", static_cast<double>(
                                                fs::file_size(
                                                    options.checkpoint_path)));
        }
        const std::string curve = serve::formatCurveFile(
            spec.name, serve::SessionStatus::Finished, session.finish());
        if (curve != readFile(env.service->curvePath(spec.name))) {
            result.errors.push_back("shadow of " + spec.name +
                                    " does not reproduce its curve file");
        }
        trace.add("models.guard_failovers",
                  static_cast<double>(
                      guarded->health()[model::HealthEvent::Failover]));
        if (tlp_rung && !tlp_rung->capturedStates().empty()) {
            const std::string error = checkFusedScores(
                net, tlp_rung->capturedTask(), tlp_rung->capturedStates(),
                &tlp_rung->capturedScores());
            if (!error.empty())
                result.errors.push_back(error);
        }
    }
    trace.add("tuner.round_s", round_s);
    trace.add("tuner.rounds", static_cast<double>(rounds_ms.size()));
    addPercentiles(trace, "tuner.round", rounds_ms);
    trace.add("service.ckpt_write_s", ckpt_s);
    return round_s + ckpt_s;
}

} // namespace

RunResult
runFleet(const RunConfig &config)
{
    RunResult result;
    const uint64_t variant = config.variant();
    int fleets = 0;
    auto setup = [&](LayerTrace *trace) {
        auto env = std::make_unique<FleetEnv>();
        env->snapshot = config.dir + "/tlp.snap";
        saveSnapshot(env->snapshot);
        // A fresh directory per fleet: recover() would re-adopt a
        // finished fleet's checkpoints and run no rounds at all.
        env->dir = config.dir + "/fleet-" + std::to_string(fleets++);
        fs::remove_all(env->dir);
        serve::ServiceOptions options;
        options.dir = env->dir;
        options.max_active = kFleetSessions;
        options.tlp_infer = model::TlpInferOptions{};
        env->service = std::make_unique<serve::TuningService>(options);
        const double t0 = now();
        const Status status = env->service->swapModel(env->snapshot);
        if (!status.ok())
            throw std::runtime_error("snapshot rejected: " + status.toString());
        if (trace)
            trace->add("artifact.snapshot_load_s", now() - t0);
        for (int i = 0; i < kFleetSessions; ++i) {
            serve::SessionSpec spec;
            spec.name = format("s%03d", i);
            spec.platform = kPlatform;
            spec.model = i % 2 == 0 ? serve::ModelKind::GuardedTlp
                                    : serve::ModelKind::GuardedAnsor;
            spec.max_subgraphs = kFleetSubgraphs;
            spec.tune.rounds = kFleetRounds;
            spec.tune.seed = 1 + variant * kFleetSessions +
                             static_cast<uint64_t>(i);
            env->specs.push_back(std::move(spec));
        }
        const auto report = env->service->recover(env->specs);
        if (report.fresh != kFleetSessions)
            throw std::runtime_error("fleet directory was not fresh");
        return env;
    };
    int64_t measurements = 0;
    int64_t failed_measurements = 0;
    auto unit = [&](FleetEnv &env, LayerTrace *trace) {
        serve::TuningService &service = *env.service;
        std::vector<double> ticks_ms;
        double seconds = 0.0;
        const double cpu0 = cpuSeconds();
        bool more = true;
        while (more) {
            const Span span(nullptr);
            more = service.tick();
            const double tick_s = span.seconds();
            seconds += tick_s;
            ticks_ms.push_back(tick_s * 1e3);
        }
        const double cpu_s = cpuSeconds() - cpu0;
        const serve::ServiceStats &stats = service.stats();
        result.attempted += stats.submitted;
        result.failed += stats.submitted - stats.finished;

        // Output check: every curve file is what the service reports for
        // the session, and their digest is pinned.
        uint64_t digest = 0;
        for (const serve::SessionSpec &spec : env.specs) {
            if (service.status(spec.name) != serve::SessionStatus::Finished) {
                result.errors.push_back(spec.name + " did not finish");
                continue;
            }
            const tune::TuneResult &tuned = service.result(spec.name);
            measurements += tuned.total_measurements;
            failed_measurements += tuned.failed_measurements;
            const std::string curve = readFile(service.curvePath(spec.name));
            if (curve != serve::formatCurveFile(spec.name,
                                                serve::SessionStatus::Finished,
                                                tuned)) {
                result.errors.push_back("curve file of " + spec.name +
                                        " differs from its result");
            }
            digest = hashCombine(digest, fnv1a(curve.data(), curve.size()));
        }
        result.output("curve_digest", format("%016llx",
                                             static_cast<unsigned long long>(
                                                 digest)));

        // Fused-vs-interpreted check on a population of the fleet's first
        // subgraph, scored with the installed snapshot.
        const auto net = loadSnapshot(env.snapshot);
        const auto workload = ir::partitionGraph(ir::buildNetwork("resnet-18"));
        const sketch::SchedulePolicy policy(workload.subgraphs.front(), false);
        Rng rng(variant);
        const std::string error = checkFusedScores(
            net, 0, policy.sampleInitPopulation(128, rng), nullptr);
        if (!error.empty())
            result.errors.push_back(error);

        result.notes.push_back(format(
            "fleet: %zu ticks, %lld rounds in %.3f s (%.2f rounds/s, %.3f "
            "cpu s)",
            ticks_ms.size(), static_cast<long long>(stats.rounds_run),
            seconds, static_cast<double>(stats.rounds_run) / seconds,
            cpu_s));
        if (!trace) {
            result.addUnit(stats.rounds_run, ticks_ms);
            return seconds;
        }
        trace->add("service.tick_s", seconds);
        trace->add("service.ticks", static_cast<double>(ticks_ms.size()));
        addPercentiles(*trace, "service.tick", ticks_ms);
        trace->add("service.rounds", static_cast<double>(stats.rounds_run));
        trace->add("service.idle_ticks", static_cast<double>(stats.idle_ticks));
        trace->add("service.ckpt_writes",
                   static_cast<double>(stats.rounds_run + stats.ckpt_retries));
        return shadowFleet(env, *trace, result);
    };
    runUnits<FleetEnv>(config, kFleetUnitSeconds, result, setup, unit);
    result.notes.push_back(format(
        "failure base: %lld of %lld sessions did not finish; %lld of %lld "
        "measurements failed",
        static_cast<long long>(result.failed),
        static_cast<long long>(result.attempted),
        static_cast<long long>(failed_measurements),
        static_cast<long long>(measurements)));
    return result;
}

void
RunResult::output(const std::string &key, const std::string &value)
{
    const auto [it, inserted] = outputs.emplace(key, value);
    if (!inserted && it->second != value) {
        errors.push_back(key + " differs between units: " + it->second +
                         " vs " + value);
    }
}

void
RunResult::addUnit(int64_t work, const std::vector<double> &step_ms)
{
    if (!unit_step_ms.empty() &&
        (work != unit_work || step_ms.size() != unit_step_ms[0].size())) {
        errors.push_back("units did different work");
    }
    unit_work = work;
    unit_step_ms.push_back(step_ms);
}

double
RunResult::throughput() const
{
    if (unit_step_ms.empty())
        return 0.0;
    double best_ms = 0.0;
    for (size_t i = 0; i < unit_step_ms[0].size(); ++i) {
        double step = unit_step_ms[0][i];
        for (const auto &unit : unit_step_ms)
            step = std::min(step, unit[i]);
        best_ms += step;
    }
    return best_ms > 0.0 ? static_cast<double>(unit_work) / (best_ms * 1e-3)
                         : 0.0;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    const auto rank = static_cast<size_t>(std::ceil(q * n));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

} // namespace perfbench
