/**
 * @file
 * Contract tests for nn::TapePool, the step-scoped storage of tape
 * buffers: reuse across same-shape steps (read from the deterministic
 * hit/miss counters), bounded holdings, safe escape of tensors past
 * their step and pool, no parking outside a scope, bit-transparency,
 * and independence of training loops on different threads.
 */
#include <gtest/gtest.h>

#include <thread>

#include "models/tlp_model.h"
#include "nn/losses.h"
#include "nn/modules.h"
#include "nn/ops.h"
#include "support/thread_pool.h"

namespace tlp::nn {
namespace {

constexpr int kIn = 48;

/** A two-layer MLP whose tape buffers are a few KB each. */
struct TinyNet
{
    explicit TinyNet(Rng &rng) : l1(kIn, 64, rng), l2(64, 1, rng) {}

    Tensor forward(const Tensor &x) { return l2.forward(relu(l1.forward(x))); }

    std::vector<Tensor>
    parameters()
    {
        auto params = l1.parameters();
        for (Tensor &param : l2.parameters())
            params.push_back(param);
        return params;
    }

    Linear l1, l2;
};

Tensor
batchOf(int rows, uint64_t seed)
{
    Rng rng(seed);
    return Tensor::randn({rows, kIn}, rng, 1.0, false);
}

/** One training step's tape: forward, MSE loss, backward. */
void
tapeStep(TinyNet &net, const Tensor &x)
{
    for (Tensor &param : net.parameters())
        std::fill(param.grad().begin(), param.grad().end(), 0.0f);
    const std::vector<float> targets(static_cast<size_t>(x.dim(0)), 0.5f);
    Tensor pred = reshape(net.forward(x), {x.dim(0)});
    mseLoss(pred, targets).backward();
}

std::vector<std::vector<float>>
gradsOf(TinyNet &net)
{
    std::vector<std::vector<float>> grads;
    for (Tensor &param : net.parameters())
        grads.push_back(param.grad());
    return grads;
}

TEST(TapePool, SecondStepWithSameShapesHasNoMisses)
{
    Rng rng(1);
    TinyNet net(rng);
    const Tensor x = batchOf(32, 2);
    TapePool pool;
    {
        TapePool::Scope scope(pool);
        tapeStep(net, x);
    }
    EXPECT_GT(pool.misses(), 0);
    const int64_t first_misses = pool.misses();
    const int64_t first_hits = pool.hits();
    {
        TapePool::Scope scope(pool);
        tapeStep(net, x);
    }
    EXPECT_EQ(pool.misses(), first_misses);
    EXPECT_EQ(pool.hits() - first_hits, first_misses);
}

TEST(TapePool, OutgrownSlotReleasesEveryLaterSlot)
{
    Rng rng(19);
    const Tensor w = Tensor::randn({16, 16}, rng, 1.0, false);
    TapePool pool;
    auto step = [&](int rows) {
        const Tensor x = batchOf(rows, 20);
        TapePool::Scope scope(pool);
        Tensor grows = relu(x);   // slot 0: scales with the batch
        Tensor fixed = relu(w);   // slot 1: the same every step
    };
    step(8);
    step(8);
    EXPECT_EQ(pool.misses(), 2);
    EXPECT_EQ(pool.hits(), 2);
    // Slot 0 outgrows its buffer, so slot 1 is laid out afresh too.
    step(64);
    EXPECT_EQ(pool.misses(), 4);
    EXPECT_EQ(pool.hits(), 2);
    // Smaller steps fit the grown buffers.
    step(8);
    EXPECT_EQ(pool.misses(), 4);
    EXPECT_EQ(pool.hits(), 4);
}

TEST(TapePool, HoldsAtMostOneStepOfTape)
{
    Rng rng(3);
    TinyNet net(rng);
    TapePool pool;
    // Ragged steps: slots regrow for the larger batch and keep their
    // capacity for the smaller one.
    for (int rows : {40, 8, 64, 8}) {
        {
            TapePool::Scope scope(pool);
            tapeStep(net, batchOf(rows, 4));
        }
        EXPECT_GT(pool.heldBytes(), 0) << rows;
        EXPECT_LE(pool.heldBytes(), pool.stepBytes()) << rows;
    }
}

TEST(TapePool, PooledStepsAreBitIdenticalToUnpooled)
{
    // Reused buffers hold the previous step's values; zero-fill on
    // hand-out must make every step match a fresh, unpooled tape.
    auto run = [](bool pooled) {
        Rng rng(5);
        TinyNet net(rng);
        TapePool pool;
        std::vector<std::vector<std::vector<float>>> grads;
        for (int rows : {40, 8, 64, 8}) {
            const Tensor x = batchOf(rows, 6 + static_cast<uint64_t>(rows));
            if (pooled) {
                TapePool::Scope scope(pool);
                tapeStep(net, x);
            } else {
                tapeStep(net, x);
            }
            grads.push_back(gradsOf(net));
        }
        EXPECT_EQ(pool.hits() > 0, pooled);
        return grads;
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(TapePool, EscapedTensorOutlivesStepAndPool)
{
    Rng rng(7);
    TinyNet net(rng);
    const Tensor x = batchOf(16, 8);
    const std::vector<float> expect = net.forward(x).value();

    Tensor escaped;
    {
        TapePool pool;
        {
            TapePool::Scope scope(pool);
            escaped = net.forward(x);
        }
        // The next step cannot take the escaped node's slot: it is
        // still in use, so that hand-out allocates afresh.
        const int64_t misses = pool.misses();
        {
            TapePool::Scope scope(pool);
            tapeStep(net, batchOf(16, 9));
        }
        EXPECT_GT(pool.misses(), misses);
        EXPECT_EQ(escaped.value(), expect);
        // Dies inside a later scope of its own pool while that step's
        // nodes hold its slots: its buffers park, theirs then free.
        {
            TapePool::Scope scope(pool);
            Tensor y = net.forward(batchOf(16, 10));
            escaped = Tensor();
            EXPECT_GT(pool.heldBytes(), 0);
        }
        // Escapes again, then outlives the pool.
        {
            TapePool::Scope scope(pool);
            escaped = net.forward(x);
        }
    }
    // Outlived its pool: still readable, and freed by the heap.
    EXPECT_EQ(escaped.value(), expect);
    escaped = Tensor();
}

TEST(TapePool, NoScopeNoParking)
{
    ASSERT_EQ(TapePool::current(), nullptr);
    Rng rng(10);
    TinyNet net(rng);
    TapePool pool;   // alive, but no scope is open
    for (int step = 0; step < 3; ++step)
        tapeStep(net, batchOf(24, 11));
    Tensor y = net.forward(batchOf(24, 12));
    EXPECT_EQ(y.node()->pool_id, 0u);
    EXPECT_EQ(pool.hits(), 0);
    EXPECT_EQ(pool.misses(), 0);
    EXPECT_EQ(pool.heldBytes(), 0);
}

TEST(TapePool, ParameterGradsStayHeapOwned)
{
    Rng rng(13);
    TinyNet net(rng);
    TapePool pool;
    {
        TapePool::Scope scope(pool);
        EXPECT_EQ(TapePool::current(), &pool);
        tapeStep(net, batchOf(8, 14));
    }
    EXPECT_EQ(TapePool::current(), nullptr);
    for (Tensor &param : net.parameters()) {
        EXPECT_EQ(param.node()->pool_id, 0u);
        EXPECT_EQ(param.node()->grad_slot, -1);
    }
}

TEST(TapePool, TrainingLoopReusesItsPool)
{
    model::TlpNetConfig config;
    config.hidden = 16;
    config.heads = 4;
    Rng data_rng(15);
    data::LabeledSet set;
    set.rows = 48;
    set.feature_dim = config.seq_len * config.emb_size;
    set.num_tasks = 1;
    set.features.resize(static_cast<size_t>(set.rows) *
                        static_cast<size_t>(set.feature_dim));
    for (float &f : set.features)
        f = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    for (int r = 0; r < set.rows; ++r) {
        set.labels.push_back(static_cast<float>(data_rng.uniform(0.1, 2.0)));
        set.groups.push_back(0);
    }

    Rng rng(16);
    model::TlpNet net(config, rng);
    model::TrainOptions options;
    options.epochs = 3;
    // trainTlpNet's trainer on three 16-row batches: 9 same-shape steps.
    std::vector<std::vector<int>> batches(3);
    for (int r = 0; r < set.rows; ++r)
        batches[static_cast<size_t>(r / 16)].push_back(r);
    // The training pool and its counters as each step's forward starts.
    struct Seen
    {
        const TapePool *pool;
        int64_t hits, misses;
    };
    std::vector<Seen> seen;
    model::trainLabeled(
        net.parameters(), set, options, "tlp", [&] { return batches; },
        [&](const Tensor &x, int task) {
            const TapePool *pool = TapePool::current();
            seen.push_back({pool, pool ? pool->hits() : -1,
                            pool ? pool->misses() : -1});
            return net.forwardTask(x, task);
        });
    ASSERT_EQ(seen.size(), 9u);
    ASSERT_NE(seen[0].pool, nullptr);
    EXPECT_EQ(seen[0].hits, 0);
    EXPECT_EQ(seen[0].misses, 0);
    // Only the first step allocates; every later step reuses each
    // buffer it allocated.
    const int64_t step_buffers = seen[1].misses;
    EXPECT_GT(step_buffers, 0);
    for (size_t k = 1; k < seen.size(); ++k) {
        EXPECT_EQ(seen[k].pool, seen[0].pool) << k;
        EXPECT_EQ(seen[k].misses, step_buffers) << k;
        EXPECT_EQ(seen[k].hits, static_cast<int64_t>(k - 1) * step_buffers)
            << k;
    }
}

TEST(TapePool, TwoTrainingLoopsOnTwoThreads)
{
    // parallelFor takes one caller at a time; run the loops' kernels on
    // their own threads.
    const int saved_threads = ThreadPool::global().numThreads();
    ThreadPool::setGlobalThreads(1);

    auto train = [](int steps, uint64_t seed) {
        Rng rng(seed);
        TinyNet net(rng);
        TapePool pool;
        for (int step = 0; step < steps; ++step) {
            TapePool::Scope scope(pool);
            tapeStep(net, batchOf(8 + 8 * (step % 3), seed + step));
            for (Tensor &param : net.parameters()) {
                auto &value = param.value();
                const auto &grad = param.grad();
                for (size_t i = 0; i < value.size(); ++i)
                    value[i] -= 0.01f * grad[i];
            }
        }
        EXPECT_GT(pool.hits(), 0);
        std::vector<std::vector<float>> values;
        for (Tensor &param : net.parameters())
            values.push_back(param.value());
        return values;
    };

    const auto serial_a = train(40, 17);
    const auto serial_b = train(30, 18);
    std::vector<std::vector<float>> parallel_a, parallel_b;
    std::thread thread_a([&] { parallel_a = train(40, 17); });
    std::thread thread_b([&] { parallel_b = train(30, 18); });
    thread_a.join();
    thread_b.join();
    ThreadPool::setGlobalThreads(saved_threads);

    EXPECT_EQ(parallel_a, serial_a);
    EXPECT_EQ(parallel_b, serial_b);
}

} // namespace
} // namespace tlp::nn
