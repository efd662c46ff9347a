/**
 * @file
 * Tests for the thread pool and for the bit-identical-parallelism
 * contract: every kernel, loss, and model prediction must produce the
 * same bits at any thread count (the static-partitioning invariant the
 * performance substrate is built on).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "models/tenset_mlp.h"
#include "models/tlp_model.h"
#include "nn/ops.h"
#include "sketch/policy.h"
#include "support/thread_pool.h"

namespace tlp {
namespace {

/** Restores the TLP_NUM_THREADS-configured global pool on scope exit. */
struct GlobalThreadsGuard
{
    ~GlobalThreadsGuard()
    {
        ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
    }
};

TEST(ThreadPool, CoversRangeExactlyOnceAndIsReusable)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4);
    for (int round = 0; round < 3; ++round) {
        std::vector<std::atomic<int>> hits(257);
        for (auto &h : hits)
            h = 0;
        pool.parallelFor(0, 257, 1, [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i)
                hits[static_cast<size_t>(i)]++;
        });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
    pool.parallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, GrainKeepsSmallRangesInOneChunk)
{
    ThreadPool pool(8);
    std::atomic<int> chunks{0};
    pool.parallelFor(0, 100, 1000, [&](int64_t begin, int64_t end) {
        ++chunks;
        EXPECT_EQ(begin, 0);
        EXPECT_EQ(end, 100);
    });
    EXPECT_EQ(chunks.load(), 1);
}

TEST(ThreadPool, PropagatesExceptionsAndStaysUsable)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 64, 1,
                         [&](int64_t begin, int64_t) {
                             if (begin == 0)
                                 throw std::runtime_error("chunk failed");
                         }),
        std::runtime_error);

    // The pool must be fully drained and reusable after a throw.
    std::atomic<int64_t> sum{0};
    pool.parallelFor(0, 64, 1, [&](int64_t begin, int64_t end) {
        int64_t local = 0;
        for (int64_t i = begin; i < end; ++i)
            local += i;
        sum += local;
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST(ThreadPoolDeathTest, NestedSubmitIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            ThreadPool pool(2);
            pool.parallelFor(0, 1, 1, [&](int64_t, int64_t) {
                pool.parallelFor(0, 1, 1, [](int64_t, int64_t) {});
            });
        },
        ::testing::ExitedWithCode(kExitUserError),
        "nested ThreadPool::parallelFor");
}

/**
 * Run @p body under thread counts 1, 2, and 8 and return one result
 * vector-of-vectors per run for bitwise comparison.
 */
std::vector<std::vector<std::vector<float>>>
runAtThreadCounts(const std::function<std::vector<std::vector<float>>()>
                      &body)
{
    GlobalThreadsGuard guard;
    std::vector<std::vector<std::vector<float>>> runs;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        runs.push_back(body());
    }
    return runs;
}

TEST(BitIdentical, MatmulForwardAndBackward)
{
    const auto runs = runAtThreadCounts([] {
        Rng rng(101);
        nn::Tensor a = nn::Tensor::randn({37, 53}, rng, 1.0, true);
        nn::Tensor b = nn::Tensor::randn({53, 29}, rng, 1.0, true);
        nn::Tensor w = nn::Tensor::randn({37, 29}, rng, 1.0, false);
        nn::Tensor c = nn::matmul(a, b);
        nn::sumAll(nn::mul(c, w)).backward();
        return std::vector<std::vector<float>>{c.value(), a.grad(),
                                               b.grad()};
    });
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(BitIdentical, BmmForwardAndBackward)
{
    const auto runs = runAtThreadCounts([] {
        Rng rng(102);
        nn::Tensor a = nn::Tensor::randn({5, 13, 17}, rng, 1.0, true);
        nn::Tensor b = nn::Tensor::randn({5, 17, 11}, rng, 1.0, true);
        nn::Tensor w = nn::Tensor::randn({5, 13, 11}, rng, 1.0, false);
        nn::Tensor c = nn::bmm(a, b);
        nn::sumAll(nn::mul(c, w)).backward();
        return std::vector<std::vector<float>>{c.value(), a.grad(),
                                               b.grad()};
    });
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(BitIdentical, RowwiseOpsForwardAndBackward)
{
    // softmax + layerNorm + addBias: the column-partitioned backward
    // paths must match the serial accumulation bit for bit.
    const auto runs = runAtThreadCounts([] {
        Rng rng(103);
        nn::Tensor x = nn::Tensor::randn({19, 23}, rng, 1.0, true);
        nn::Tensor gamma = nn::Tensor::randn({23}, rng, 0.1, true);
        nn::Tensor beta = nn::Tensor::randn({23}, rng, 0.1, true);
        nn::Tensor bias = nn::Tensor::randn({23}, rng, 0.1, true);
        nn::Tensor w = nn::Tensor::randn({19, 23}, rng, 1.0, false);
        nn::Tensor y = nn::softmaxLastDim(
            nn::addBias(nn::layerNorm(x, gamma, beta), bias));
        nn::sumAll(nn::mul(y, w)).backward();
        return std::vector<std::vector<float>>{y.value(), x.grad(),
                                               gamma.grad(), beta.grad(),
                                               bias.grad()};
    });
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

/** A small synthetic LabeledSet with two comparable groups. */
data::LabeledSet
syntheticTlpSet(const model::TlpNetConfig &config, int rows)
{
    Rng rng(104);
    data::LabeledSet set;
    set.rows = rows;
    set.feature_dim = config.seq_len * config.emb_size;
    set.num_tasks = 1;
    set.features.resize(static_cast<size_t>(rows) *
                        static_cast<size_t>(set.feature_dim));
    for (auto &f : set.features)
        f = static_cast<float>(rng.uniform(-1, 1));
    for (int r = 0; r < rows; ++r) {
        set.labels.push_back(static_cast<float>(rng.uniform(0.1, 2.0)));
        set.groups.push_back(r < rows / 2 ? 0 : 1);
    }
    return set;
}

TEST(BitIdentical, TlpTrainingAndPrediction)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    const auto set = syntheticTlpSet(config, 24);

    const auto runs = runAtThreadCounts([&] {
        Rng rng(105);
        model::TlpNet net(config, rng);
        model::TrainOptions options;
        options.epochs = 2;
        options.batch_size = 8;
        const double loss = trainTlpNet(net, set, options);
        const auto scores = predictTlpNet(net, set);
        std::vector<float> out{static_cast<float>(loss)};
        for (double s : scores)
            out.push_back(static_cast<float>(s));
        return std::vector<std::vector<float>>{out};
    });
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(BitIdentical, MlpTrainingAndPrediction)
{
    Rng data_rng(106);
    data::LabeledSet set;
    set.rows = 32;
    set.feature_dim = 164;
    set.num_tasks = 1;
    set.features.resize(static_cast<size_t>(set.rows) * 164);
    for (auto &f : set.features)
        f = static_cast<float>(data_rng.uniform(0, 1));
    for (int r = 0; r < set.rows; ++r) {
        set.labels.push_back(
            static_cast<float>(data_rng.uniform(0.1, 2.0)));
        set.groups.push_back(r % 2);
    }

    const auto runs = runAtThreadCounts([&] {
        Rng rng(107);
        model::MlpConfig config;
        config.hidden = 64;
        model::TensetMlpNet net(config, rng);
        model::TrainOptions options;
        options.epochs = 2;
        options.batch_size = 8;
        const double loss = trainMlp(net, set, options);
        const auto scores = predictMlp(net, set);
        std::vector<float> out{static_cast<float>(loss)};
        for (double s : scores)
            out.push_back(static_cast<float>(s));
        return std::vector<std::vector<float>>{out};
    });
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(BitIdentical, PredictBatchMatchesScoreStatesAtAnyThreadCount)
{
    // predictBatch is CostModel's forwarding default, kept for the
    // perfbench harness; it must stay the same function as scoreStates.
    const ir::Workload workload =
        ir::partitionGraph(ir::buildNetwork("mlp-mixer"));
    Rng rng(108);
    sketch::SchedulePolicy policy(workload.subgraphs[0], false);
    const auto states = policy.sampleInitPopulation(16, rng);
    ASSERT_FALSE(states.empty());

    Rng net_rng(109);
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    auto net = std::make_shared<model::TlpNet>(config, net_rng);
    model::TlpCostModel cost_model(net);

    const auto runs = runAtThreadCounts([&] {
        const auto batch = cost_model.predictBatch(0, states);
        const auto single = cost_model.scoreStates(0, states);
        EXPECT_EQ(batch, single);
        std::vector<float> out;
        for (double s : batch)
            out.push_back(static_cast<float>(s));
        return std::vector<std::vector<float>>{out};
    });
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(BitIdentical, FusedAndCachedInferenceAtAnyThreadCount)
{
    // The §13 hot path: every (fused, cache) combination must predict
    // the interpreted single-thread bits at any thread count — with the
    // cache warm (second call) as well as cold.
    const ir::Workload workload =
        ir::partitionGraph(ir::buildNetwork("mlp-mixer"));
    Rng rng(110);
    sketch::SchedulePolicy policy(workload.subgraphs[0], false);
    const auto states = policy.sampleInitPopulation(48, rng);
    ASSERT_FALSE(states.empty());

    Rng net_rng(111);
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    auto net = std::make_shared<model::TlpNet>(config, net_rng);

    const auto runs = runAtThreadCounts([&] {
        std::vector<std::vector<float>> out;
        for (const auto &options :
             {model::TlpInferOptions::legacy(),
              model::TlpInferOptions{true, 0},
              model::TlpInferOptions{false, 256},
              model::TlpInferOptions{true, 256}}) {
            model::TlpCostModel cost_model(net, {}, 0, options);
            const auto cold = cost_model.scoreStates(0, states);
            const auto warm = cost_model.scoreStates(0, states);
            EXPECT_EQ(cold, warm);
            std::vector<float> row;
            for (double s : cold)
                row.push_back(static_cast<float>(s));
            out.push_back(std::move(row));
        }
        // All four option combinations agree with each other...
        EXPECT_EQ(out[0], out[1]);
        EXPECT_EQ(out[0], out[2]);
        EXPECT_EQ(out[0], out[3]);
        return out;
    });
    // ...and with themselves across thread counts.
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

} // namespace
} // namespace tlp
