/**
 * @file
 * Paper Fig. 10 (google-benchmark): per-candidate scoring cost of TLP vs
 * the TenSet MLP. TLP extracts features straight from the schedule
 * primitives; the MLP must lower every candidate to a tensor program
 * first. Paper: TLP makes end-to-end tuning 1.7x (CPU) / 1.8x (GPU)
 * faster; here we measure the feature+prediction path that produces that
 * gap.
 *
 * TLP scoring is timed twice. The cold variant scores the batch with a
 * fresh cost model each iteration, so every candidate misses the
 * score cache: feature extraction plus the fused forward, the
 * cost a search round pays for new candidates. The warm variant
 * re-scores the same batch on one model, so it times score-cache hits.
 */
#include <benchmark/benchmark.h>

#include <optional>

#include "bench/bench_common.h"
#include "features/ansor_features.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "schedule/lower.h"
#include "sketch/policy.h"

namespace {

using namespace tlp;

struct Fixture
{
    std::vector<sched::State> states;
    /** States outside the batch: a fresh model scores these untimed, so
     *  weight packing and scratch growth are done before the timed call. */
    std::vector<sched::State> probe;
    std::shared_ptr<model::TlpNet> tlp_net;
    std::unique_ptr<model::CostModel> tlp;
    std::unique_ptr<model::CostModel> mlp;

    Fixture()
    {
        const auto workload =
            ir::partitionGraph(ir::buildNetwork("resnet-50"));
        Rng rng(0xf16);
        // A mixed candidate batch as one GA round would score.
        for (size_t i = 0; i < 4 && i < workload.subgraphs.size(); ++i) {
            sketch::SchedulePolicy policy(workload.subgraphs[i], false);
            for (auto &state : policy.sampleInitPopulation(16, rng))
                states.push_back(std::move(state));
        }
        model::TlpNetConfig config;
        tlp_net = std::make_shared<model::TlpNet>(config, rng);
        tlp = std::make_unique<model::TlpCostModel>(tlp_net);
        auto mlp_net =
            std::make_shared<model::TensetMlpNet>(model::MlpConfig{}, rng);
        mlp = std::make_unique<model::TensetMlpCostModel>(mlp_net);
        sketch::SchedulePolicy probe_policy(workload.subgraphs[4], false);
        probe = probe_policy.sampleInitPopulation(
            static_cast<int>(states.size()), rng);
    }
};

Fixture &
fixture()
{
    static Fixture instance;
    return instance;
}

void
BM_TlpScoringCold(benchmark::State &state)
{
    auto &f = fixture();
    std::optional<model::TlpCostModel> fresh;
    for (auto _ : state) {
        state.PauseTiming();
        fresh.emplace(f.tlp_net);   // drops the last one, untimed
        fresh->scoreStates(0, f.probe);
        state.ResumeTiming();
        auto scores = fresh->scoreStates(0, f.states);
        benchmark::DoNotOptimize(scores);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(f.states.size()));
}

void
BM_TlpScoringWarm(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        auto scores = f.tlp->scoreStates(0, f.states);
        benchmark::DoNotOptimize(scores);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(f.states.size()));
}

void
BM_TensetMlpScoring(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        auto scores = f.mlp->scoreStates(0, f.states);
        benchmark::DoNotOptimize(scores);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(f.states.size()));
}

void
BM_TlpFeatureExtractionOnly(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        for (const auto &candidate : f.states) {
            auto features = feat::extractTlpFeatures(candidate.steps());
            benchmark::DoNotOptimize(features);
        }
    }
}

void
BM_AnsorFeatureExtractionWithLowering(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        for (const auto &candidate : f.states) {
            auto features =
                feat::extractAnsorFeatures(sched::lower(candidate));
            benchmark::DoNotOptimize(features);
        }
    }
}

BENCHMARK(BM_TlpScoringCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TlpScoringWarm)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TensetMlpScoring)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TlpFeatureExtractionOnly)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AnsorFeatureExtractionWithLowering)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
