/**
 * @file
 * Throughput of the performance substrate: training samples/sec and
 * inference candidates/sec at 1, 2, and 4 worker threads, plus a
 * bit-identity check that the parallel kernels change nothing but the
 * wall clock. Results go to stdout and to BENCH_perf.json (machine
 * readable, written in the working directory — run from the repo root).
 *
 * Inference runs the same population through both the legacy path
 * (interpreted autograd forward, no cache) and the fast path (fused
 * forward + score cache, DESIGN.md §13) in the same binary:
 * the headline infer_candidates_per_sec is the fast path, the
 * fast_vs_legacy_speedup column is measured, not inferred, and the
 * bench exits nonzero if the two paths ever disagree on a single bit.
 *
 * The GBDT refit (the Ansor online model, retrained every round) fits a
 * seeded 1000 x 164 matrix at each thread count; its predictions must
 * be the same bits at every count, or the bench exits nonzero.
 *
 * The three GEMM forms a linear layer runs (forward C = A * B, dA =
 * dC * B^T, dB = A^T * dC) are timed at the TLP training shape: the
 * batch's rows x hidden x hidden. Their GFLOP/s show the register-tiled
 * kernels (nn/kernels.h) directly, apart from the rest of the step.
 *
 * Training also reports its kernel CPU time (a getrusage delta around
 * trainTlpNet: page faults and mmap/munmap of tape buffers land there)
 * and the tape pool's hit ratio, the share of tape buffer hand-outs
 * served by storage parked from the previous step (DESIGN.md §7).
 *
 * A global operator-new hook counts heap allocations so the JSON also
 * reports the fast path's steady-state allocations per candidate — the
 * §13 contract is that after warm-up the hot path performs zero
 * per-candidate heap allocations (only a constant handful per
 * scoreStates call for the returned score vector and the pool's task
 * bookkeeping).
 *
 * The schedule section times the search's State churn over resnet-18's
 * subgraphs on one thread: replaySteps of a sampled schedule, mutate,
 * a State copy and lower, each in microseconds and heap allocations per
 * call. A replay that records a sequence other than its input exits
 * nonzero.
 *
 * Speedups track the machine: on a single-core container every thread
 * count times out to ~1x; the JSON records hardware_concurrency so
 * readers can interpret the numbers.
 */
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include <sys/resource.h>

// GCC's new/delete pairing analysis can't see that the replaced
// operator new below is malloc-backed when it inlines the matching
// free()-based delete into container code, and reports a mismatch that
// isn't one. The replacement is a matched malloc/free pair by
// construction.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include "bench/bench_common.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/gbdt.h"
#include "nn/kernels.h"
#include "schedule/lower.h"
#include "sketch/policy.h"
#include "nn/tensor.h"
#include "sketch/policy.h"
#include "support/clock.h"
#include "support/thread_pool.h"

/** Every heap allocation in the process, from any thread. */
std::atomic<uint64_t> g_heap_allocs{0};

void *
operator new(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *ptr = std::malloc(size ? size : 1))
        return ptr;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto alignment = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + alignment - 1) / alignment *
                                alignment;
    if (void *ptr = std::aligned_alloc(alignment,
                                       rounded ? rounded : alignment))
        return ptr;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

// The matching deletes: both malloc and aligned_alloc storage is
// released with free, so all variants funnel here.
void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

using namespace tlp;

namespace {

struct ThreadResult
{
    int threads;
    double train_seconds;
    double train_samples_per_sec;
    double train_sys_seconds;           ///< kernel CPU time of training
    double pool_hit_ratio;              ///< tape buffers served by the pool
    double infer_seconds;               ///< fast path
    double infer_candidates_per_sec;    ///< fast path (the headline)
    double legacy_seconds;
    double legacy_candidates_per_sec;
    uint64_t warmup_allocs;             ///< construction + first rep
    uint64_t steady_state_allocs;       ///< reps after warm-up
    uint64_t steady_state_candidates;
    bool match_legacy;
    double final_loss;
    std::vector<double> predictions;
    double gbdt_fit_seconds;            ///< per fit
    std::vector<double> gbdt_predictions;
    double gemm_forward_gflops;         ///< C = A * B
    double gemm_nt_gflops;              ///< dA += dC * B^T
    double gemm_tn_gflops;              ///< dB += A^T * dC
};

/** Rows and width of the GBDT refit matrix (Ansor feature width). */
constexpr int kGbdtRows = 1000;
constexpr int kGbdtDim = 164;

/** A seeded refit matrix: quantized features, so values tie often. */
void
gbdtRefitSet(std::vector<float> &features, std::vector<float> &targets)
{
    Rng rng(35);
    features.resize(static_cast<size_t>(kGbdtRows) * kGbdtDim);
    for (auto &f : features)
        f = static_cast<float>(std::round(rng.uniform(0, 32)) / 32.0);
    targets.resize(kGbdtRows);
    for (int r = 0; r < kGbdtRows; ++r) {
        const float *row = features.data() + static_cast<size_t>(r) *
                                                 kGbdtDim;
        targets[static_cast<size_t>(r)] = static_cast<float>(
            row[0] + 2.0 * row[7] * row[11] + 0.1 * rng.uniform());
    }
}

/** Uniform random floats in [-1, 1). */
std::vector<float>
randomFloats(int64_t count, Rng &rng)
{
    std::vector<float> values(static_cast<size_t>(count));
    for (float &v : values)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return values;
}

/**
 * GFLOP/s of the forward, NT and TN GEMM kernels at shape (m, k, n),
 * each over @p reps calls after one warm-up call.
 */
void
measureGemm(int64_t m, int64_t k, int64_t n, int reps, ThreadResult &result)
{
    Rng rng(36);
    const std::vector<float> a = randomFloats(m * k, rng);
    const std::vector<float> b = randomFloats(k * n, rng);
    const std::vector<float> gc = randomFloats(m * n, rng);
    std::vector<float> c(static_cast<size_t>(m * n));
    std::vector<float> ga(static_cast<size_t>(m * k));
    std::vector<float> gb(static_cast<size_t>(k * n));
    const double flops = 2.0 * static_cast<double>(m * k * n) * reps;
    const auto gflops = [&](const auto &call) {
        call();
        const double t0 = wallSeconds();
        for (int rep = 0; rep < reps; ++rep)
            call();
        return flops / (wallSeconds() - t0) * 1e-9;
    };
    result.gemm_forward_gflops = gflops(
        [&] { nn::kern::gemm(a.data(), b.data(), c.data(), m, k, n); });
    result.gemm_nt_gflops = gflops([&] {
        nn::kern::gemmNT(gc.data(), b.data(), ga.data(), m, k, n);
    });
    result.gemm_tn_gflops = gflops([&] {
        nn::kern::gemmTN(a.data(), gc.data(), gb.data(), m, k, n);
    });
}

/** Per-call cost of one schedule operation. */
struct OpCost
{
    double us = 0.0;
    double allocs = 0.0;
};

/** State churn of the search, per call, over resnet-18's subgraphs. */
struct ScheduleCost
{
    int64_t states = 0;
    int reps = 0;
    OpCost replay, mutate, copy, lower;
    bool replay_exact = true;
};

/** Run @p body(state) over every sampled state, @p reps times. */
template <typename Body>
OpCost
timeOp(const std::vector<sched::State> &states, int reps, const Body &body)
{
    const uint64_t allocs0 = g_heap_allocs.load();
    const double t0 = wallSeconds();
    for (int rep = 0; rep < reps; ++rep)
        for (const sched::State &state : states)
            body(state);
    const double calls = static_cast<double>(states.size()) * reps;
    return {(wallSeconds() - t0) * 1e6 / calls,
            static_cast<double>(g_heap_allocs.load() - allocs0) / calls};
}

ScheduleCost
measureSchedule()
{
    const ir::Workload workload =
        ir::partitionGraph(ir::buildNetwork("resnet-18"));
    Rng rng(37);
    std::vector<sketch::SchedulePolicy> policies;
    std::vector<sched::State> states;
    std::vector<size_t> policy_of;
    for (const ir::SubgraphPtr &sg : workload.subgraphs)
        policies.emplace_back(sg, false);
    for (size_t p = 0; p < policies.size(); ++p) {
        for (sched::State &state : policies[p].sampleInitPopulation(
                 static_cast<int>(scaledCount(32, 8)), rng)) {
            states.push_back(std::move(state));
            policy_of.push_back(p);
        }
    }

    ScheduleCost cost;
    cost.states = static_cast<int64_t>(states.size());
    cost.reps = static_cast<int>(scaledCount(20, 4));
    cost.replay = timeOp(states, cost.reps, [&](const sched::State &s) {
        const sched::State replayed =
            sched::replaySteps(s.subgraph(), s.isGpu(), s.steps());
        cost.replay_exact &= replayed.steps() == s.steps();
    });
    cost.mutate = timeOp(states, cost.reps, [&](const sched::State &s) {
        const auto i = static_cast<size_t>(&s - states.data());
        const auto child = policies[policy_of[i]].mutate(s, rng);
        (void)child;
    });
    cost.copy = timeOp(states, cost.reps, [](const sched::State &s) {
        const sched::State copy = s;
        (void)copy;
    });
    cost.lower = timeOp(states, cost.reps, [](const sched::State &s) {
        const sched::LoweredNest nest = sched::lower(s);
        (void)nest;
    });
    return cost;
}

/** Kernel CPU seconds the process has used so far (all threads). */
double
systemCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_stime.tv_usec);
}

} // namespace

int
main()
{
    std::printf("=== Perf: training / inference throughput vs threads "
                "===\n");

    ThreadPool::setGlobalThreads(1);
    const ScheduleCost schedule = measureSchedule();
    std::printf("schedule (resnet-18 cpu, %lld states x %d reps, 1 thread): "
                "per call us / allocs: replay %.2f / %.1f, mutate "
                "%.2f / %.1f, copy %.2f / %.1f, lower %.2f / %.1f; "
                "replay exact %s\n",
                static_cast<long long>(schedule.states), schedule.reps,
                schedule.replay.us, schedule.replay.allocs,
                schedule.mutate.us, schedule.mutate.allocs,
                schedule.copy.us, schedule.copy.allocs, schedule.lower.us,
                schedule.lower.allocs,
                schedule.replay_exact ? "yes" : "NO (BUG)");

    data::CollectOptions collect;
    collect.networks = {"resnet-18"};
    collect.platforms = {"platinum-8272"};
    collect.programs_per_subgraph =
        static_cast<int>(scaledCount(64, 16));
    collect.seed = 33;
    const auto dataset = data::collectDataset(collect);

    std::vector<int> all_records;
    for (size_t r = 0; r < dataset.records.size(); ++r)
        all_records.push_back(static_cast<int>(r));
    const auto set = data::buildTlpSet(dataset, all_records, {0});
    std::printf("training set: %d rows\n", set.rows);

    model::TrainOptions train_options;
    train_options.epochs = static_cast<int>(scaledCount(2, 1));
    train_options.batch_size = 64;

    Rng pop_rng(34);
    sketch::SchedulePolicy policy(dataset.groups[0].subgraph,
                                  dataset.is_gpu);
    const auto population = policy.sampleInitPopulation(
        static_cast<int>(scaledCount(512, 64)), pop_rng);
    const int infer_reps = 3;

    model::TlpNetConfig config;
    config.hidden = 64;

    std::vector<float> gbdt_features, gbdt_targets;
    gbdtRefitSet(gbdt_features, gbdt_targets);
    const int gbdt_reps = 3;

    // A linear layer of the training step: batch_size sequences of
    // seq_len rows each, hidden -> hidden.
    const int64_t gemm_rows =
        static_cast<int64_t>(train_options.batch_size) * config.seq_len;
    const int64_t gemm_width = config.hidden;
    const int gemm_reps = static_cast<int>(scaledCount(200, 20));

    bool predictions_match_legacy = true;
    std::vector<ThreadResult> results;
    for (int threads : {1, 2, 4}) {
        ThreadPool::setGlobalThreads(threads);
        ThreadResult result;
        result.threads = threads;

        Rng net_rng(7);
        auto net = std::make_shared<model::TlpNet>(config, net_rng);
        const nn::TapePool::Totals pool_before = nn::TapePool::totals();
        const double sys0 = systemCpuSeconds();
        double t0 = wallSeconds();
        result.final_loss = trainTlpNet(*net, set, train_options);
        result.train_seconds = wallSeconds() - t0;
        result.train_sys_seconds = systemCpuSeconds() - sys0;
        const nn::TapePool::Totals pool_after = nn::TapePool::totals();
        const auto pool_hits =
            static_cast<double>(pool_after.hits - pool_before.hits);
        const auto pool_misses =
            static_cast<double>(pool_after.misses - pool_before.misses);
        result.pool_hit_ratio = pool_hits / (pool_hits + pool_misses);
        result.train_samples_per_sec =
            static_cast<double>(set.rows) * train_options.epochs /
            result.train_seconds;

        // Legacy path: interpreted forward, no cache (the pre-§13
        // hot path, kept in-binary as the measured baseline).
        model::TlpCostModel legacy_model(
            net, {}, 0, model::TlpInferOptions::legacy());
        std::vector<double> legacy_predictions;
        t0 = wallSeconds();
        for (int rep = 0; rep < infer_reps; ++rep)
            legacy_predictions = legacy_model.scoreStates(0, population);
        result.legacy_seconds = wallSeconds() - t0;
        result.legacy_candidates_per_sec =
            static_cast<double>(population.size()) * infer_reps /
            result.legacy_seconds;

        // Fast path: fused forward + score cache. The first rep is
        // the warm-up (arena growth, score memos); the remaining
        // reps are the steady state whose allocations we account.
        const uint64_t allocs_before = g_heap_allocs.load();
        model::TlpCostModel fast_model(
            net, {}, 0, model::TlpInferOptions{true, 4096});
        t0 = wallSeconds();
        result.predictions = fast_model.scoreStates(0, population);
        const uint64_t allocs_warm = g_heap_allocs.load();
        for (int rep = 1; rep < infer_reps; ++rep)
            result.predictions = fast_model.scoreStates(0, population);
        result.infer_seconds = wallSeconds() - t0;
        const uint64_t allocs_after = g_heap_allocs.load();
        result.infer_candidates_per_sec =
            static_cast<double>(population.size()) * infer_reps /
            result.infer_seconds;
        result.warmup_allocs = allocs_warm - allocs_before;
        result.steady_state_allocs = allocs_after - allocs_warm;
        result.steady_state_candidates =
            population.size() * static_cast<uint64_t>(infer_reps - 1);
        result.match_legacy = result.predictions == legacy_predictions;
        predictions_match_legacy &= result.match_legacy;

        t0 = wallSeconds();
        for (int rep = 0; rep < gbdt_reps; ++rep) {
            model::Gbdt gbdt;
            gbdt.fit(gbdt_features, kGbdtRows, kGbdtDim, gbdt_targets);
            result.gbdt_predictions =
                gbdt.predict(gbdt_features, kGbdtRows, kGbdtDim);
        }
        result.gbdt_fit_seconds = (wallSeconds() - t0) / gbdt_reps;

        measureGemm(gemm_rows, gemm_width, gemm_width, gemm_reps, result);

        std::printf(
            "threads %d: train %7.1f samples/s (%.2fs, sys %.2fs, "
            "pool hits %.3f), "
            "infer %8.1f candidates/s fast / %8.1f legacy "
            "(%.2fx), steady-state allocs/candidate %.4f, "
            "fast==legacy %s, loss %.6f, gbdt fit %.4fs, "
            "gemm GFLOP/s fwd %.1f / NT %.1f / TN %.1f\n",
            threads, result.train_samples_per_sec, result.train_seconds,
            result.train_sys_seconds, result.pool_hit_ratio,
            result.infer_candidates_per_sec,
            result.legacy_candidates_per_sec,
            result.infer_candidates_per_sec /
                result.legacy_candidates_per_sec,
            static_cast<double>(result.steady_state_allocs) /
                static_cast<double>(result.steady_state_candidates),
            result.match_legacy ? "yes" : "NO (BUG)",
            result.final_loss, result.gbdt_fit_seconds,
            result.gemm_forward_gflops, result.gemm_nt_gflops,
            result.gemm_tn_gflops);
        results.push_back(std::move(result));
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());

    bool bit_identical = true;
    bool gbdt_bit_identical = true;
    for (const auto &result : results) {
        if (result.final_loss != results[0].final_loss ||
            result.predictions != results[0].predictions)
            bit_identical = false;
        if (result.gbdt_predictions != results[0].gbdt_predictions)
            gbdt_bit_identical = false;
    }
    std::printf("bit-identical across thread counts: %s\n",
                bit_identical ? "yes" : "NO (BUG)");
    std::printf("gbdt refit bit-identical across thread counts: %s\n",
                gbdt_bit_identical ? "yes" : "NO (BUG)");
    std::printf("fast path matches legacy everywhere: %s\n",
                predictions_match_legacy ? "yes" : "NO (BUG)");

    const unsigned cores = std::thread::hardware_concurrency();
    std::printf("hardware_concurrency: %u (speedups need real cores)\n",
                cores);

    FILE *json = bench::openReport("BENCH_perf.json");
    if (!json)
        return 1;
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"perf_throughput\",\n");
    std::fprintf(json, "  \"scale\": %.3f,\n", benchScale());
    std::fprintf(json, "  \"hardware_concurrency\": %u,\n", cores);
    std::fprintf(json, "  \"train_rows\": %d,\n", set.rows);
    std::fprintf(json, "  \"train_epochs\": %d,\n", train_options.epochs);
    std::fprintf(json, "  \"infer_candidates\": %zu,\n",
                 population.size());
    std::fprintf(json, "  \"infer_reps\": %d,\n", infer_reps);
    std::fprintf(json, "  \"bit_identical\": %s,\n",
                 bit_identical ? "true" : "false");
    std::fprintf(json, "  \"predictions_match_legacy\": %s,\n",
                 predictions_match_legacy ? "true" : "false");
    std::fprintf(json, "  \"gbdt_rows\": %d,\n", kGbdtRows);
    std::fprintf(json, "  \"gbdt_dim\": %d,\n", kGbdtDim);
    std::fprintf(json, "  \"gbdt_reps\": %d,\n", gbdt_reps);
    std::fprintf(json, "  \"gbdt_bit_identical\": %s,\n",
                 gbdt_bit_identical ? "true" : "false");
    std::fprintf(json, "  \"gemm_shape\": [%lld, %lld, %lld],\n",
                 static_cast<long long>(gemm_rows),
                 static_cast<long long>(gemm_width),
                 static_cast<long long>(gemm_width));
    std::fprintf(json, "  \"gemm_reps\": %d,\n", gemm_reps);
    std::fprintf(
        json,
        "  \"schedule\": {\"network\": \"resnet-18\", \"threads\": 1, "
        "\"states\": %lld, \"reps\": %d, \"replay_exact\": %s,\n"
        "    \"replay_us\": %.3f, \"replay_allocs\": %.2f, "
        "\"mutate_us\": %.3f, \"mutate_allocs\": %.2f,\n"
        "    \"copy_us\": %.3f, \"copy_allocs\": %.2f, "
        "\"lower_us\": %.3f, \"lower_allocs\": %.2f},\n",
        static_cast<long long>(schedule.states), schedule.reps,
        schedule.replay_exact ? "true" : "false", schedule.replay.us,
        schedule.replay.allocs, schedule.mutate.us, schedule.mutate.allocs,
        schedule.copy.us, schedule.copy.allocs, schedule.lower.us,
        schedule.lower.allocs);
    std::fprintf(json, "  \"results\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &result = results[i];
        std::fprintf(
            json,
            "    {\"threads\": %d, \"train_seconds\": %.4f, "
            "\"train_samples_per_sec\": %.2f, \"train_speedup\": %.3f, "
            "\"train_sys_seconds\": %.4f, \"pool_hit_ratio\": %.4f, "
            "\"infer_seconds\": %.4f, "
            "\"infer_candidates_per_sec\": %.2f, "
            "\"infer_speedup\": %.3f, "
            "\"infer_legacy_candidates_per_sec\": %.2f, "
            "\"fast_vs_legacy_speedup\": %.3f, "
            "\"warmup_allocs\": %llu, "
            "\"steady_state_allocs\": %llu, "
            "\"steady_state_allocs_per_candidate\": %.4f, "
            "\"gbdt_fit_seconds\": %.4f, \"gbdt_fit_speedup\": %.3f, "
            "\"gemm_forward_gflops\": %.2f, \"gemm_nt_gflops\": %.2f, "
            "\"gemm_tn_gflops\": %.2f}%s\n",
            result.threads, result.train_seconds,
            result.train_samples_per_sec,
            results[0].train_seconds / result.train_seconds,
            result.train_sys_seconds, result.pool_hit_ratio,
            result.infer_seconds, result.infer_candidates_per_sec,
            results[0].infer_seconds / result.infer_seconds,
            result.legacy_candidates_per_sec,
            result.infer_candidates_per_sec /
                result.legacy_candidates_per_sec,
            static_cast<unsigned long long>(result.warmup_allocs),
            static_cast<unsigned long long>(result.steady_state_allocs),
            static_cast<double>(result.steady_state_allocs) /
                static_cast<double>(result.steady_state_candidates),
            result.gbdt_fit_seconds,
            results[0].gbdt_fit_seconds / result.gbdt_fit_seconds,
            result.gemm_forward_gflops, result.gemm_nt_gflops,
            result.gemm_tn_gflops, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    if (!bench::closeReport(json, "BENCH_perf.json"))
        return 1;
    std::printf("wrote BENCH_perf.json\n");
    return bit_identical && predictions_match_legacy &&
                   gbdt_bit_identical && schedule.replay_exact
               ? 0
               : 1;
}
