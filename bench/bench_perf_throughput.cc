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
 * forward + feature/score cache, DESIGN.md §13) in the same binary:
 * the headline infer_candidates_per_sec is the fast path, the
 * fast_vs_legacy_speedup column is measured, not inferred, and the
 * bench exits nonzero if the two paths ever disagree on a single bit.
 *
 * A global operator-new hook counts heap allocations so the JSON also
 * reports the fast path's steady-state allocations per candidate — the
 * §13 contract is that after warm-up the hot path performs zero
 * per-candidate heap allocations (only a constant handful per
 * scoreStates call for the returned score vector and the pool's task
 * bookkeeping).
 *
 * Speedups track the machine: on a single-core container every thread
 * count times out to ~1x; the JSON records hardware_concurrency so
 * readers can interpret the numbers.
 */
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

// GCC's new/delete pairing analysis can't see that the replaced
// operator new below is malloc-backed when it inlines the matching
// free()-based delete into container code, and reports a mismatch that
// isn't one. The replacement is a matched malloc/free pair by
// construction.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include "bench/bench_common.h"
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
};

} // namespace

int
main()
{
    std::printf("=== Perf: training / inference throughput vs threads "
                "===\n");

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

    bool predictions_match_legacy = true;
    std::vector<ThreadResult> results;
    for (int threads : {1, 2, 4}) {
        ThreadPool::setGlobalThreads(threads);
        ThreadResult result;
        result.threads = threads;

        Rng net_rng(7);
        auto net = std::make_shared<model::TlpNet>(config, net_rng);
        double t0 = wallSeconds();
        result.final_loss = trainTlpNet(*net, set, train_options);
        result.train_seconds = wallSeconds() - t0;
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

        // Fast path: fused forward + feature/score cache. The first
        // rep is the warm-up (arena growth, cache fills); the remaining
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

        std::printf(
            "threads %d: train %7.1f samples/s (%.2fs), "
            "infer %8.1f candidates/s fast / %8.1f legacy "
            "(%.2fx), steady-state allocs/candidate %.4f, "
            "fast==legacy %s, loss %.6f\n",
            threads, result.train_samples_per_sec, result.train_seconds,
            result.infer_candidates_per_sec,
            result.legacy_candidates_per_sec,
            result.infer_candidates_per_sec /
                result.legacy_candidates_per_sec,
            static_cast<double>(result.steady_state_allocs) /
                static_cast<double>(result.steady_state_candidates),
            result.match_legacy ? "yes" : "NO (BUG)",
            result.final_loss);
        results.push_back(std::move(result));
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());

    bool bit_identical = true;
    for (const auto &result : results) {
        if (result.final_loss != results[0].final_loss ||
            result.predictions != results[0].predictions)
            bit_identical = false;
    }
    std::printf("bit-identical across thread counts: %s\n",
                bit_identical ? "yes" : "NO (BUG)");
    std::printf("fast path matches legacy everywhere: %s\n",
                predictions_match_legacy ? "yes" : "NO (BUG)");

    const unsigned cores = std::thread::hardware_concurrency();
    std::printf("hardware_concurrency: %u (speedups need real cores)\n",
                cores);

    FILE *json = std::fopen("BENCH_perf.json", "w");
    if (!json) {
        std::fprintf(stderr, "cannot write BENCH_perf.json\n");
        return 1;
    }
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
    std::fprintf(json, "  \"results\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &result = results[i];
        std::fprintf(
            json,
            "    {\"threads\": %d, \"train_seconds\": %.4f, "
            "\"train_samples_per_sec\": %.2f, \"train_speedup\": %.3f, "
            "\"infer_seconds\": %.4f, "
            "\"infer_candidates_per_sec\": %.2f, "
            "\"infer_speedup\": %.3f, "
            "\"infer_legacy_candidates_per_sec\": %.2f, "
            "\"fast_vs_legacy_speedup\": %.3f, "
            "\"warmup_allocs\": %llu, "
            "\"steady_state_allocs\": %llu, "
            "\"steady_state_allocs_per_candidate\": %.4f}%s\n",
            result.threads, result.train_seconds,
            result.train_samples_per_sec,
            results[0].train_seconds / result.train_seconds,
            result.infer_seconds, result.infer_candidates_per_sec,
            results[0].infer_seconds / result.infer_seconds,
            result.legacy_candidates_per_sec,
            result.infer_candidates_per_sec /
                result.legacy_candidates_per_sec,
            static_cast<unsigned long long>(result.warmup_allocs),
            static_cast<unsigned long long>(result.steady_state_allocs),
            static_cast<double>(result.steady_state_allocs) /
                static_cast<double>(result.steady_state_candidates),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_perf.json\n");
    return bit_identical && predictions_match_legacy ? 0 : 1;
}
