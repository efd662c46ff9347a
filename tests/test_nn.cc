/**
 * @file
 * Unit tests for the autograd NN library: op forward values, numeric
 * gradient checks, module training behaviour, and the optimizer.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>

#include "models/tlp_model.h"
#include "nn/losses.h"
#include "nn/modules.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace tlp::nn {
namespace {

/**
 * Numeric gradient check: f builds a scalar loss from the given leaf.
 * Compares autograd gradients against central differences.
 */
void
checkGradient(Tensor leaf, const std::function<Tensor(const Tensor &)> &f,
              double tol = 2e-2)
{
    Tensor loss = f(leaf);
    loss.backward();
    const std::vector<float> analytic = leaf.grad();

    const float eps = 1e-3f;
    for (size_t i = 0; i < leaf.value().size();
         i += std::max<size_t>(1, leaf.value().size() / 7)) {
        const float saved = leaf.value()[i];
        leaf.value()[i] = saved + eps;
        const float up = f(leaf).value()[0];
        leaf.value()[i] = saved - eps;
        const float down = f(leaf).value()[0];
        leaf.value()[i] = saved;
        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(analytic[i], numeric,
                    tol * std::max(1.0, std::abs(numeric)))
            << "index " << i;
    }
}

TEST(Tensor, ConstructorsAndShape)
{
    Tensor z = Tensor::zeros({2, 3});
    EXPECT_EQ(z.numel(), 6);
    EXPECT_EQ(z.dim(1), 3);
    Tensor d = Tensor::fromData({2}, {1.0f, 2.0f});
    EXPECT_FLOAT_EQ(d.value()[1], 2.0f);
    Rng rng(1);
    Tensor r = Tensor::randn({16, 16}, rng, 0.1);
    EXPECT_TRUE(r.requiresGrad());
}

TEST(Ops, AddAndMulForward)
{
    Tensor a = Tensor::fromData({2}, {1.0f, 2.0f});
    Tensor b = Tensor::fromData({2}, {3.0f, 4.0f});
    EXPECT_FLOAT_EQ(add(a, b).value()[1], 6.0f);
    EXPECT_FLOAT_EQ(mul(a, b).value()[1], 8.0f);
}

TEST(Ops, MatmulForward)
{
    Tensor a = Tensor::fromData({2, 2}, {1, 2, 3, 4});
    Tensor b = Tensor::fromData({2, 2}, {5, 6, 7, 8});
    const Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.value()[0], 19.0f);
    EXPECT_FLOAT_EQ(c.value()[3], 50.0f);
}

TEST(Ops, BmmForwardMatchesMatmulPerBatch)
{
    Rng rng(2);
    Tensor a = Tensor::randn({3, 4, 5}, rng, 1.0, false);
    Tensor b = Tensor::randn({3, 5, 2}, rng, 1.0, false);
    const Tensor c = bmm(a, b);
    for (int s = 0; s < 3; ++s) {
        Tensor as = Tensor::fromData(
            {4, 5}, std::vector<float>(a.value().begin() + s * 20,
                                       a.value().begin() + (s + 1) * 20));
        Tensor bs = Tensor::fromData(
            {5, 2}, std::vector<float>(b.value().begin() + s * 10,
                                       b.value().begin() + (s + 1) * 10));
        const Tensor cs = matmul(as, bs);
        for (int i = 0; i < 8; ++i)
            EXPECT_NEAR(c.value()[static_cast<size_t>(s * 8 + i)],
                        cs.value()[static_cast<size_t>(i)], 1e-4);
    }
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(3);
    Tensor x = Tensor::randn({4, 7}, rng, 2.0, false);
    const Tensor y = softmaxLastDim(x);
    for (int r = 0; r < 4; ++r) {
        float sum = 0.0f;
        for (int c = 0; c < 7; ++c)
            sum += y.value()[static_cast<size_t>(r * 7 + c)];
        EXPECT_NEAR(sum, 1.0f, 1e-5);
    }
}

TEST(Ops, TransposeAndPermuteAreInverses)
{
    Rng rng(4);
    Tensor x = Tensor::randn({2, 3, 4, 5}, rng, 1.0, false);
    const Tensor p = permute0213(permute0213(x));
    EXPECT_EQ(p.value(), x.value());
    Tensor m = Tensor::randn({3, 4}, rng, 1.0, false);
    const Tensor t = transposeLast2(transposeLast2(m));
    EXPECT_EQ(t.value(), m.value());
}

TEST(Ops, GradMatmul)
{
    Rng rng(5);
    Tensor a = Tensor::randn({3, 4}, rng, 1.0);
    Tensor b = Tensor::randn({4, 2}, rng, 1.0, false);
    checkGradient(a, [&](const Tensor &leaf) {
        return sumAll(matmul(leaf, b));
    });
}

TEST(Ops, GradBmm)
{
    Rng rng(6);
    Tensor a = Tensor::randn({2, 3, 4}, rng, 1.0);
    Tensor b = Tensor::randn({2, 4, 3}, rng, 1.0, false);
    checkGradient(a, [&](const Tensor &leaf) {
        return sumAll(tanhT(bmm(leaf, b)));
    });
}

TEST(Ops, GradSoftmaxChain)
{
    Rng rng(7);
    Tensor x = Tensor::randn({3, 5}, rng, 1.0);
    Tensor w = Tensor::randn({5, 5}, rng, 0.5, false);
    checkGradient(x, [&](const Tensor &leaf) {
        return sumAll(mul(softmaxLastDim(matmul(leaf, w)),
                          softmaxLastDim(leaf)));
    });
}

TEST(Ops, CausalSoftmaxMasksStrictUpperTriangle)
{
    Rng rng(23);
    Tensor x = Tensor::randn({2, 4, 4}, rng, 1.0, false);
    const Tensor y = softmaxLastDimCausal(x);
    for (int b = 0; b < 2; ++b) {
        for (int r = 0; r < 4; ++r) {
            float sum = 0.0f;
            for (int c = 0; c < 4; ++c) {
                const float v =
                    y.value()[static_cast<size_t>((b * 4 + r) * 4 + c)];
                if (c > r) {
                    EXPECT_FLOAT_EQ(v, 0.0f);
                }
                sum += v;
            }
            EXPECT_NEAR(sum, 1.0f, 1e-5);
        }
    }
}

TEST(Ops, GradCausalSoftmax)
{
    Rng rng(24);
    Tensor x = Tensor::randn({1, 4, 4}, rng, 1.0);
    Tensor w = Tensor::randn({1, 4, 4}, rng, 0.5, false);
    checkGradient(x, [&](const Tensor &leaf) {
        return sumAll(mul(softmaxLastDimCausal(leaf), w));
    });
}

TEST(Ops, GradPermute0213)
{
    Rng rng(25);
    Tensor x = Tensor::randn({2, 3, 2, 4}, rng, 1.0);
    checkGradient(x, [&](const Tensor &leaf) {
        Tensor p = permute0213(leaf);
        return sumAll(mul(p, p));
    });
}

TEST(Ops, GradTransposeLast2)
{
    Rng rng(26);
    Tensor x = Tensor::randn({2, 3, 4}, rng, 1.0);
    Tensor w = Tensor::randn({2, 4, 3}, rng, 0.5, false);
    checkGradient(x, [&](const Tensor &leaf) {
        return sumAll(mul(transposeLast2(leaf), w));
    });
}

TEST(Ops, GradActivations)
{
    Rng rng(8);
    Tensor x = Tensor::randn({4, 4}, rng, 1.0);
    checkGradient(x, [&](const Tensor &leaf) {
        return sumAll(add(relu(leaf), add(tanhT(leaf), sigmoidT(leaf))));
    });
}

TEST(Ops, GradLayerNorm)
{
    Rng rng(9);
    Tensor x = Tensor::randn({3, 8}, rng, 1.0);
    Tensor gamma = Tensor::fromData({8}, std::vector<float>(8, 1.5f));
    Tensor beta = Tensor::fromData({8}, std::vector<float>(8, 0.2f));
    checkGradient(x, [&](const Tensor &leaf) {
        return sumAll(mul(layerNorm(leaf, gamma, beta), leaf));
    }, 5e-2);
}

TEST(Ops, GradSliceStackSelect)
{
    Rng rng(10);
    Tensor x = Tensor::randn({2, 3, 4}, rng, 1.0);
    checkGradient(x, [&](const Tensor &leaf) {
        Tensor t0 = selectAxis1(leaf, 0);
        Tensor t2 = selectAxis1(leaf, 2);
        Tensor stacked = stackAxis1({t0, t2, t0});
        return sumAll(mul(stacked, stacked));
    });
}

TEST(Ops, GradSliceCols)
{
    Rng rng(11);
    Tensor x = Tensor::randn({3, 8}, rng, 1.0);
    checkGradient(x, [&](const Tensor &leaf) {
        return sumAll(mul(sliceCols(leaf, 2, 4), sliceCols(leaf, 0, 4)));
    });
}

TEST(Ops, GradAddBiasAndReshape)
{
    Rng rng(12);
    Tensor x = Tensor::randn({2, 3, 4}, rng, 1.0);
    Tensor b = Tensor::fromData({4}, {0.1f, 0.2f, 0.3f, 0.4f});
    checkGradient(x, [&](const Tensor &leaf) {
        Tensor y = addBias(leaf, b);
        y = reshape(y, {6, 4});
        return sumAll(mul(y, y));
    });
}

TEST(Losses, MseValueAndGrad)
{
    Tensor pred = Tensor::fromData({2}, {1.0f, 3.0f}, true);
    Tensor loss = mseLoss(pred, {0.0f, 1.0f});
    EXPECT_NEAR(loss.value()[0], (1.0 + 4.0) / 2.0, 1e-6);
    loss.backward();
    EXPECT_NEAR(pred.grad()[0], 1.0f, 1e-5);
    EXPECT_NEAR(pred.grad()[1], 2.0f, 1e-5);
}

TEST(Losses, RankLossOrderingSignal)
{
    // Element 0 has a higher label but a lower score: the gradient must
    // push score 0 up (negative grad) and score 1 down.
    Tensor pred = Tensor::fromData({2}, {0.0f, 1.0f}, true);
    Tensor loss = rankLoss(pred, {1.0f, 0.2f}, {0, 0});
    EXPECT_GT(loss.value()[0], 0.0f);
    loss.backward();
    EXPECT_LT(pred.grad()[0], 0.0f);
    EXPECT_GT(pred.grad()[1], 0.0f);
}

TEST(Losses, RankLossRespectsGroups)
{
    // Cross-group pairs contribute nothing.
    Tensor pred = Tensor::fromData({2}, {0.0f, 1.0f}, true);
    Tensor loss = rankLoss(pred, {1.0f, 0.0f}, {0, 1});
    EXPECT_FLOAT_EQ(loss.value()[0], 0.0f);
}

TEST(Losses, NanTargetsContributeNoLossOrGradient)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();

    // MSE: the NaN element must affect neither value nor gradient, and
    // the mean must be over the valid elements only.
    Tensor pred = Tensor::fromData({3}, {1.0f, 3.0f, 2.0f}, true);
    Tensor loss = mseLoss(pred, {0.0f, nan, 1.0f});
    EXPECT_NEAR(loss.value()[0], (1.0 + 1.0) / 2.0, 1e-6);
    loss.backward();
    EXPECT_NEAR(pred.grad()[0], 1.0f, 1e-5);
    EXPECT_FLOAT_EQ(pred.grad()[1], 0.0f);
    EXPECT_NEAR(pred.grad()[2], 1.0f, 1e-5);

    // Rank: pairs touching a NaN label are dropped.
    Tensor scores = Tensor::fromData({2}, {0.0f, 1.0f}, true);
    Tensor rank = rankLoss(scores, {nan, 0.2f}, {0, 0});
    EXPECT_FLOAT_EQ(rank.value()[0], 0.0f);
    rank.backward();
    EXPECT_FLOAT_EQ(scores.grad()[0], 0.0f);
    EXPECT_FLOAT_EQ(scores.grad()[1], 0.0f);
}

TEST(Losses, AllNanTargetsGiveZeroFiniteLoss)
{
    // A record labeled on no platform (every measurement failed) must be
    // a clean no-op: zero loss, zero gradients, nothing non-finite.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Tensor pred = Tensor::fromData({3}, {1.0f, -2.0f, 0.5f}, true);
    Tensor loss = mseLoss(pred, {nan, nan, nan});
    EXPECT_FLOAT_EQ(loss.value()[0], 0.0f);
    loss.backward();
    for (float g : pred.grad()) {
        EXPECT_TRUE(std::isfinite(g));
        EXPECT_FLOAT_EQ(g, 0.0f);
    }

    Tensor scores = Tensor::fromData({3}, {1.0f, -2.0f, 0.5f}, true);
    Tensor rank = rankLoss(scores, {nan, nan, nan}, {0, 0, 0});
    EXPECT_FLOAT_EQ(rank.value()[0], 0.0f);
    rank.backward();
    for (float g : scores.grad())
        EXPECT_FLOAT_EQ(g, 0.0f);
}

TEST(Modules, LinearShapes)
{
    Rng rng(15);
    Linear linear(8, 3, rng);
    Tensor x = Tensor::randn({5, 8}, rng, 1.0, false);
    EXPECT_EQ(linear.forward(x).shape(), (std::vector<int>{5, 3}));
    Tensor x3 = Tensor::randn({2, 5, 8}, rng, 1.0, false);
    EXPECT_EQ(linear.forward(x3).shape(), (std::vector<int>{2, 5, 3}));
    EXPECT_EQ(linear.numParameters(), 8 * 3 + 3);
}

TEST(Modules, AttentionPreservesShape)
{
    Rng rng(16);
    MultiHeadSelfAttention attn(16, 4, rng);
    Tensor x = Tensor::randn({3, 6, 16}, rng, 1.0, false);
    EXPECT_EQ(attn.forward(x).shape(), (std::vector<int>{3, 6, 16}));
}

TEST(Modules, LstmShapes)
{
    Rng rng(17);
    Lstm lstm(8, 12, rng);
    Tensor x = Tensor::randn({4, 5, 8}, rng, 1.0, false);
    EXPECT_EQ(lstm.forward(x).shape(), (std::vector<int>{4, 5, 12}));
}

TEST(Modules, SaveLoadRoundTrip)
{
    Rng rng(18);
    Linear a(6, 6, rng), b(6, 6, rng);
    std::stringstream ss;
    BinaryWriter writer(ss);
    a.saveParameters(writer);
    BinaryReader reader(ss);
    b.loadParameters(reader);
    Tensor x = Tensor::randn({2, 6}, rng, 1.0, false);
    EXPECT_EQ(a.forward(x).value(), b.forward(x).value());
}

TEST(Training, LinearRegressionConverges)
{
    Rng rng(19);
    Linear model(4, 1, rng);
    Adam adam(model.parameters(), {.lr = 0.05});
    // Ground truth: y = 2x0 - x1 + 0.5x2 + 3.
    auto target = [](const float *x) {
        return 2 * x[0] - x[1] + 0.5f * x[2] + 3.0f;
    };
    double last_loss = 0.0;
    for (int step = 0; step < 300; ++step) {
        Tensor x = Tensor::randn({16, 4}, rng, 1.0, false);
        std::vector<float> labels(16);
        for (int i = 0; i < 16; ++i)
            labels[static_cast<size_t>(i)] =
                target(x.value().data() + i * 4);
        Tensor pred = reshape(model.forward(x), {16});
        Tensor loss = mseLoss(pred, labels);
        adam.zeroGrad();
        loss.backward();
        adam.step(adam.gradNorm());
        last_loss = loss.value()[0];
    }
    EXPECT_LT(last_loss, 0.05);
}

TEST(Training, AttentionLearnsPositionSum)
{
    // Learn to score sequences by a weighted sum of one feature — sanity
    // that gradients flow through the full attention stack.
    Rng rng(20);
    Linear up(4, 16, rng);
    MultiHeadSelfAttention attn(16, 4, rng);
    Linear head(16, 1, rng);
    std::vector<Tensor> params;
    for (Module *m :
         std::initializer_list<Module *>{&up, &attn, &head})
        for (Tensor &p : m->parameters())
            params.push_back(p);
    Adam adam(params, {.lr = 0.01});

    double last_loss = 1e9;
    for (int step = 0; step < 150; ++step) {
        Tensor x = Tensor::randn({8, 5, 4}, rng, 1.0, false);
        std::vector<float> labels(8, 0.0f);
        for (int i = 0; i < 8; ++i)
            for (int t = 0; t < 5; ++t)
                labels[static_cast<size_t>(i)] +=
                    0.2f * x.value()[static_cast<size_t>((i * 5 + t) * 4)];
        Tensor h = attn.forward(up.forward(x));
        Tensor scores = head.forward(h);              // [8, 5, 1]
        Tensor pred = sumAxis1(reshape(scores, {8, 5}));
        Tensor loss = mseLoss(pred, labels);
        adam.zeroGrad();
        loss.backward();
        adam.step(adam.gradNorm());
        last_loss = loss.value()[0];
    }
    EXPECT_LT(last_loss, 0.4);
}

TEST(Optim, WeightDecayShrinksWeights)
{
    Rng rng(21);
    Tensor w = Tensor::randn({4}, rng, 1.0);
    Adam adam({w}, {.lr = 0.1, .weight_decay = 0.5});
    const float before = std::abs(w.value()[0]);
    // Zero gradient step: only decay acts.
    w.grad();
    adam.step(adam.gradNorm());
    EXPECT_LT(std::abs(w.value()[0]), before);
}

/** The bit patterns of @p values, so -0.0f != 0.0f and NaN == NaN. */
std::vector<uint32_t>
bitsOf(const std::vector<float> &values)
{
    std::vector<uint32_t> bits;
    for (float v : values)
        bits.push_back(std::bit_cast<uint32_t>(v));
    return bits;
}

/** Parameter grads of one training step of a small TlpNet on @p x. */
std::vector<std::vector<uint32_t>>
tlpStepGrads(const Tensor &x)
{
    model::TlpNetConfig config;
    config.seq_len = 5;
    config.emb_size = 6;
    config.hidden = 16;
    config.heads = 4;
    config.residual_blocks = 1;
    config.head_hidden = 8;
    Rng rng(31);
    model::TlpNet net(config, rng);
    Tensor loss = mseLoss(net.forwardTask(x), {0.5f, -1.0f, 2.0f});
    loss.backward();
    std::vector<std::vector<uint32_t>> grads;
    for (Tensor &param : net.parameters())
        grads.push_back(bitsOf(param.grad()));
    return grads;
}

TEST(GradPruning, InputWithoutGradLeavesParameterGradsUnchanged)
{
    Rng rng(30);
    const Tensor data = Tensor::randn({3, 30}, rng, 1.0, false);
    Tensor frozen = Tensor::fromData({3, 30}, data.value(), false);
    Tensor leaf = Tensor::fromData({3, 30}, data.value(), true);
    const auto frozen_grads = tlpStepGrads(frozen);
    const auto leaf_grads = tlpStepGrads(leaf);
    EXPECT_EQ(frozen_grads, leaf_grads);
    // Backward never reached the frozen input: its grad was never even
    // allocated, where the leaf's was written.
    EXPECT_TRUE(frozen.node()->grad.empty());
    EXPECT_EQ(leaf.node()->grad.size(), leaf.value().size());
}

TEST(GradPruning, NoGradBranchClosureNeverRuns)
{
    Tensor x = Tensor::fromData({2}, {1.0f, 2.0f});
    Tensor y = scale(x, 2.0f);
    ASSERT_FALSE(y.requiresGrad());
    bool ran = false;
    y.node()->backward_fn = [&ran](Node &) { ran = true; };
    Tensor w = Tensor::fromData({2}, {3.0f, 4.0f}, true);
    sumAll(mul(y, w)).backward();
    EXPECT_FALSE(ran);
    EXPECT_EQ(w.grad(), (std::vector<float>{2.0f, 4.0f}));
    EXPECT_TRUE(x.node()->grad.empty());
}

TEST(GradPruning, MatmulComputesOnlyTheGradsItsParentsNeed)
{
    Rng rng(32);
    Tensor a = Tensor::randn({5, 4}, rng, 1.0, false);
    Tensor b = Tensor::randn({4, 3}, rng, 1.0, true);
    sumAll(matmul(a, b)).backward();
    // The matmul node ensures both parents' grads; dA is never added.
    EXPECT_EQ(a.node()->grad, std::vector<float>(20, 0.0f));
    EXPECT_NE(b.grad(), std::vector<float>(12, 0.0f));
}

TEST(RankNMatmul, LinearMatchesTheFlattenedCallBitForBit)
{
    Rng data_rng(33);
    const Tensor x3 = Tensor::randn({3, 7, 6}, data_rng, 1.0, true);
    const Tensor x2 = Tensor::fromData({21, 6}, x3.value(), true);
    const Tensor weights = Tensor::randn({21 * 5}, data_rng, 1.0, false);
    Rng rng3(34), rng2(34);
    Linear linear3(6, 5, rng3), linear2(6, 5, rng2);

    const Tensor y3 = linear3.forward(x3);
    const Tensor y2 = linear2.forward(x2);
    EXPECT_EQ(y3.shape(), (std::vector<int>{3, 7, 5}));
    EXPECT_EQ(y2.shape(), (std::vector<int>{21, 5}));
    EXPECT_EQ(bitsOf(y3.value()), bitsOf(y2.value()));

    sumAll(mul(y3, Tensor::fromData({3, 7, 5}, weights.value())))
        .backward();
    sumAll(mul(y2, Tensor::fromData({21, 5}, weights.value())))
        .backward();
    Tensor gx3 = x3, gx2 = x2;
    EXPECT_EQ(bitsOf(gx3.grad()), bitsOf(gx2.grad()));
    auto params3 = linear3.parameters(), params2 = linear2.parameters();
    ASSERT_EQ(params3.size(), 2u);
    for (size_t p = 0; p < params3.size(); ++p)
        EXPECT_EQ(bitsOf(params3[p].grad()), bitsOf(params2[p].grad()))
            << "parameter " << p;
}

TEST(RankNMatmulDeathTest, ContractionMismatchIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(35);
    const Tensor a = Tensor::randn({2, 3, 4}, rng, 1.0, false);
    const Tensor b = Tensor::randn({5, 2}, rng, 1.0, false);
    EXPECT_DEATH(matmul(a, b), "contraction mismatch");
    const Tensor row = Tensor::randn({4}, rng, 1.0, false);
    EXPECT_DEATH(matmul(row, b), "rank");
}

TEST(ReluBackward, MatchesTheScalarSelectBitForBit)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm = std::numeric_limits<float>::denorm_min();
    const std::vector<float> xs = {nan,     0.0f, -0.0f, denorm, -denorm,
                                   inf,     -inf, 1.0f,  -1.0f};
    const std::vector<float> gs = {nan, inf, -inf, 0.0f, -0.0f, 1.0f};
    // Starting grads with no NaN, so a NaN result has one NaN operand and
    // its payload does not depend on the order of the add's operands.
    const std::vector<float> starts = {0.0f, -0.0f, 1.25f, -inf};
    std::vector<float> x, g, start;
    for (float xv : xs)
        for (float gv : gs)
            for (float sv : starts) {
                x.push_back(xv);
                g.push_back(gv);
                start.push_back(sv);
            }
    const int count = static_cast<int>(x.size());
    Tensor leaf = Tensor::fromData({count}, x, true);
    Tensor y = relu(leaf);
    leaf.grad() = start;
    y.grad() = g;
    y.node()->backward_fn(*y.node());

    std::vector<float> expected = start;
    for (size_t i = 0; i < expected.size(); ++i)
        expected[i] += x[i] > 0.0f ? g[i] : 0.0f;
    EXPECT_EQ(bitsOf(leaf.grad()), bitsOf(expected));
}

} // namespace
} // namespace tlp::nn
