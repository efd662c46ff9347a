/**
 * @file
 * Unit and integration tests for the cost models: TLP net, MTL-TLP,
 * TenSet MLP, GBDT, self-supervised pretraining, and the search-facing
 * wrappers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>

#include "dataset/collect.h"
#include "dataset/metrics.h"
#include "dataset/splits.h"
#include "models/cost_model.h"
#include "hwmodel/simulator.h"
#include "models/pretrain.h"
#include "schedule/lower.h"
#include "sketch/policy.h"
#include "support/stats.h"
#include "gbdt_stress.h"

namespace tlp::model {
namespace {

const data::Dataset &
sharedDataset()
{
    static const data::Dataset ds = [] {
        data::CollectOptions options;
        options.networks = {"resnet-18", "mlp-mixer", "bert-tiny"};
        options.platforms = {"platinum-8272", "graviton2"};
        options.programs_per_subgraph = 80;
        options.seed = 21;
        return data::collectDataset(options);
    }();
    return ds;
}

/** Median of @p values (the upper one for an even count). */
double
median(std::vector<double> values)
{
    std::nth_element(values.begin(), values.begin() + values.size() / 2,
                     values.end());
    return values[values.size() / 2];
}

TEST(TlpNet, ForwardShapesAndParams)
{
    Rng rng(1);
    TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    TlpNet net(config, rng);
    EXPECT_GT(net.numParameters(), 1000);

    nn::Tensor x = nn::Tensor::randn({3, 25 * 22}, rng, 1.0, false);
    const nn::Tensor scores = net.forwardTask(x, 0);
    EXPECT_EQ(scores.shape(), (std::vector<int>{3}));
}

TEST(TlpNet, LstmBackboneVariant)
{
    Rng rng(2);
    TlpNetConfig config;
    config.hidden = 32;
    config.lstm_backbone = true;
    TlpNet net(config, rng);
    nn::Tensor x = nn::Tensor::randn({2, 25 * 22}, rng, 1.0, false);
    EXPECT_EQ(net.forwardTask(x, 0).shape(), (std::vector<int>{2}));
}

TEST(TlpNet, MultiTaskHeadsAreIndependent)
{
    Rng rng(3);
    TlpNetConfig config;
    config.hidden = 32;
    config.num_tasks = 3;
    TlpNet net(config, rng);
    nn::Tensor x = nn::Tensor::randn({2, 25 * 22}, rng, 1.0, false);
    const auto s0 = net.forwardTask(x, 0).value();
    const auto s1 = net.forwardTask(x, 1).value();
    EXPECT_NE(s0, s1);
    EXPECT_EQ(net.headParameters(0).size(), net.headParameters(1).size());
    EXPECT_GT(net.backboneParameters().size(), 0u);
}

// One training draw is not the method: across net/shuffle seeds the same
// recipe's held-out top-5 scatters around 0.85 (0.80-0.89), and which side
// a single seed lands on moves with the build's FMA contraction. So the
// bounds hold for the median over five seeds.
TEST(TlpNet, TrainingImprovesTopK)
{
    const auto &ds = sharedDataset();
    const auto split = data::makeSplit(ds, {"bert-tiny"});
    auto train = data::buildTlpSet(ds, split.train_records, {0});
    auto test = data::buildTlpSet(ds, split.test_records, {0});

    // Random-score reference.
    Rng score_rng(40);
    std::vector<double> random_scores(split.test_records.size());
    for (auto &s : random_scores)
        s = score_rng.uniform();
    const auto tk_random = data::topKScores(ds, {"bert-tiny"}, 0,
                                            split.test_records,
                                            random_scores);

    constexpr int kSeeds = 5;
    std::vector<double> top1, top5;
    std::string spread = "random top1 " + std::to_string(tk_random.top1);
    for (int s = 0; s < kSeeds; ++s) {
        Rng rng(4 + s);
        TlpNetConfig config;
        config.hidden = 48;
        TlpNet net(config, rng);

        TrainOptions options;
        options.epochs = 6;
        options.seed = 0x7ea1 + s;
        trainTlpNet(net, train, options);
        const auto after = predictTlpNet(net, test);
        const auto tk = data::topKScores(ds, {"bert-tiny"}, 0,
                                         split.test_records, after);
        top1.push_back(tk.top1);
        top5.push_back(tk.top5);
        spread += "; s=" + std::to_string(s) + " top1 " +
                  std::to_string(tk.top1) + " top5 " +
                  std::to_string(tk.top5);
    }
    SCOPED_TRACE(spread);

    const double top1_median = median(top1);
    const double top5_median = median(top5);
    EXPECT_GT(top1_median, tk_random.top1);
    EXPECT_GT(top1_median, 0.6);
    EXPECT_GT(top5_median, 0.85);
}

// Like TrainingImprovesTopK, the bounds hold for the median over five
// net/shuffle seeds, not for one draw.
TEST(TlpNet, MtlMaskedLabelsTrain)
{
    const auto &ds = sharedDataset();
    const auto split = data::makeSplit(ds, {"bert-tiny"});
    auto train = data::buildTlpSet(ds, split.train_records, {0, 1});
    // Mask 70% of task-0 labels (the scarce target platform).
    Rng mask_rng(5);
    for (int r = 0; r < train.rows; ++r) {
        if (mask_rng.bernoulli(0.7))
            train.labels[static_cast<size_t>(r) * 2] =
                std::numeric_limits<float>::quiet_NaN();
    }
    auto test = data::buildTlpSet(ds, split.test_records, {0, 1});

    constexpr int kSeeds = 5;
    std::vector<double> top1, top5;
    std::string spread;
    for (int s = 0; s < kSeeds; ++s) {
        SCOPED_TRACE("s=" + std::to_string(s));
        Rng rng(6 + s);
        TlpNetConfig config;
        config.hidden = 48;
        config.num_tasks = 2;
        TlpNet net(config, rng);
        TrainOptions options;
        options.epochs = 4;
        options.seed += s;
        const double loss = trainTlpNet(net, train, options);
        EXPECT_TRUE(std::isfinite(loss));

        const auto scores = predictTlpNet(net, test, 0);
        const auto tk = data::topKScores(ds, {"bert-tiny"}, 0,
                                         split.test_records, scores);
        top1.push_back(tk.top1);
        top5.push_back(tk.top5);
        spread += "s=" + std::to_string(s) + " top1 " +
                  std::to_string(tk.top1) + " top5 " +
                  std::to_string(tk.top5) + "; ";
    }
    SCOPED_TRACE(spread);
    EXPECT_GT(median(top1), 0.45);
    EXPECT_GT(median(top5), 0.8);
}

TEST(TlpNet, SaveLoadPreservesPredictions)
{
    Rng rng(7);
    TlpNetConfig config;
    config.hidden = 32;
    TlpNet a(config, rng), b(config, rng);
    std::stringstream ss;
    BinaryWriter writer(ss);
    a.saveParameters(writer);
    BinaryReader reader(ss);
    b.loadParameters(reader);
    nn::Tensor x = nn::Tensor::randn({4, 25 * 22}, rng, 1.0, false);
    EXPECT_EQ(a.forwardTask(x, 0).value(), b.forwardTask(x, 0).value());
}

TEST(Mlp, TrainsOnAnsorFeatures)
{
    const auto &ds = sharedDataset();
    const auto split = data::makeSplit(ds, {"bert-tiny"});
    std::vector<int> train_subset(
        split.train_records.begin(),
        split.train_records.begin() +
            std::min<size_t>(600, split.train_records.size()));
    auto train = data::buildAnsorSet(ds, train_subset, 0);
    auto test = data::buildAnsorSet(ds, split.test_records, 0);

    Rng rng(8);
    MlpConfig config;
    config.hidden = 64;
    TensetMlpNet net(config, rng);
    TrainOptions options;
    options.epochs = 4;
    trainMlp(net, train, options);
    const auto scores = predictMlp(net, test);
    const auto tk = data::topKScores(ds, {"bert-tiny"}, 0,
                                     split.test_records, scores);
    EXPECT_GT(tk.top1, 0.6);
}

TEST(GbdtModel, FitsSimpleFunction)
{
    // y = 2*x0 + step(x1): trees should capture both.
    Rng rng(9);
    const int rows = 400, dim = 5;
    std::vector<float> features(static_cast<size_t>(rows * dim));
    std::vector<float> targets(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i) {
        for (int f = 0; f < dim; ++f)
            features[static_cast<size_t>(i * dim + f)] =
                static_cast<float>(rng.uniform(-1, 1));
        targets[static_cast<size_t>(i)] =
            2.0f * features[static_cast<size_t>(i * dim)] +
            (features[static_cast<size_t>(i * dim + 1)] > 0 ? 1.0f : 0.0f);
    }
    Gbdt gbdt;
    gbdt.fit(features, rows, dim, targets);
    EXPECT_TRUE(gbdt.fitted());
    double sse = 0.0;
    const auto preds = gbdt.predict(features, rows, dim);
    for (int i = 0; i < rows; ++i) {
        const double d = preds[static_cast<size_t>(i)] -
                         targets[static_cast<size_t>(i)];
        sse += d * d;
    }
    EXPECT_LT(sse / rows, 0.05);
}

TEST(GbdtModel, PredictBeforeFitIsSafe)
{
    Gbdt gbdt;
    EXPECT_FALSE(gbdt.fitted());
}

TEST(GbdtModel, FitIsBitIdenticalAcrossBuilders)
{
    // Pins the exact trees of the exact-greedy builder: any change to
    // split search, tie-breaking, leaf sums or partition order moves
    // this digest. The larger fits are big enough that split search
    // runs in parallel when the pool has workers.
    struct Case
    {
        int rows, dim, min_samples_leaf, max_depth;
    };
    const Case cases[] = {{37, 7, 1, 3},     {200, 12, 2, 6},
                          {600, 20, 5, 4},   {1000, 41, 3, 5},
                          {1493, 48, 1, 6}};
    uint64_t digest = 1469598103934665603ull;
    uint64_t seed = 61;
    for (const Case &c : cases) {
        const auto train = test::gbdtStressSet(c.rows, c.dim, seed++);
        const auto query = test::gbdtStressSet(c.rows, c.dim, seed++);
        GbdtOptions options;
        options.min_samples_leaf = c.min_samples_leaf;
        options.max_depth = c.max_depth;
        Gbdt gbdt(options);
        gbdt.fit(train.features, train.rows, train.dim, train.targets);
        ASSERT_TRUE(gbdt.fitted());
        for (const auto *set : {&train, &query}) {
            const auto preds =
                gbdt.predict(set->features, set->rows, set->dim);
            digest = fnv1a(preds.data(), preds.size() * sizeof(double),
                           digest);
        }
    }
    EXPECT_EQ(digest, 0xfd0073141426f93cull) << std::hex << digest;
}

TEST(GbdtModel, ConstantColumnsDoNotChangeTheFit)
{
    // Constant columns inserted at the front, in the middle, at the end,
    // plus one of only 0.0f / -0.0f: none can split, so the fit on the
    // widened matrix must predict the same bits as on the original.
    const auto train = test::gbdtStressSet(600, 12, 91);
    const auto query = test::gbdtStressSet(300, 12, 92);
    struct Insert
    {
        int before;          ///< original column it precedes
        float value;
        bool flip_odd_rows;  ///< odd rows hold -value
    };
    const Insert inserts[] = {{0, 7.0f, false},
                              {5, -1.5f, false},
                              {8, 0.0f, true},
                              {12, 0.25f, false}};
    auto widen = [&](const test::GbdtStressSet &set) {
        std::vector<float> wide;
        for (int r = 0; r < set.rows; ++r) {
            for (int f = 0; f <= set.dim; ++f) {
                for (const Insert &insert : inserts) {
                    if (insert.before == f)
                        wide.push_back(insert.flip_odd_rows && r % 2
                                           ? -insert.value
                                           : insert.value);
                }
                if (f < set.dim)
                    wide.push_back(set.features[static_cast<size_t>(
                        r * set.dim + f)]);
            }
        }
        return wide;
    };
    const int wide_dim = train.dim + static_cast<int>(std::size(inserts));
    GbdtOptions options;
    options.min_samples_leaf = 2;
    options.max_depth = 6;
    Gbdt narrow(options), wide(options);
    narrow.fit(train.features, train.rows, train.dim, train.targets);
    wide.fit(widen(train), train.rows, wide_dim, train.targets);
    for (const auto *set : {&train, &query}) {
        const auto expected =
            narrow.predict(set->features, set->rows, set->dim);
        const auto got = wide.predict(widen(*set), set->rows, wide_dim);
        ASSERT_EQ(got.size(), expected.size());
        EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                              got.size() * sizeof(double)),
                  0);
    }

    // All columns constant: the first tree is one leaf and the fit
    // stops there, predicting the target mean plus that shrunk leaf.
    const int rows = 40;
    std::vector<float> constant;
    for (int r = 0; r < rows; ++r) {
        for (const float value : {3.0f, r % 2 ? -0.0f : 0.0f, -2.5f})
            constant.push_back(value);
    }
    Gbdt flat;
    std::vector<float> targets(train.targets.begin(),
                               train.targets.begin() + rows);
    flat.fit(constant, rows, 3, targets);
    const double base =
        std::accumulate(targets.begin(), targets.end(), 0.0) / rows;
    double residual_sum = 0.0;
    for (const float target : targets)
        residual_sum += target - static_cast<float>(base);
    const float leaf = static_cast<float>(residual_sum / rows) *
                       static_cast<float>(kGbdtLearningRate);
    for (const double prediction : flat.predict(constant, rows, 3))
        EXPECT_EQ(prediction, base + leaf);
}

TEST(GbdtModelDeathTest, NonFiniteInputIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto set = test::gbdtStressSet(40, 6, 71);
    auto features = set.features;
    features[17] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_DEATH(Gbdt().fit(features, set.rows, set.dim, set.targets),
                 "finite");
    auto targets = set.targets;
    targets[3] = std::numeric_limits<float>::infinity();
    EXPECT_DEATH(Gbdt().fit(set.features, set.rows, set.dim, targets),
                 "finite");
}

TEST(Pretrain, GptAndBertLossesDecrease)
{
    const auto &ds = sharedDataset();
    const auto split = data::makeSplit(ds, {"bert-tiny"});
    std::vector<int> subset(
        split.train_records.begin(),
        split.train_records.begin() +
            std::min<size_t>(400, split.train_records.size()));
    auto set = data::buildTlpSet(ds, subset, {0});

    for (bool gpt : {true, false}) {
        Rng rng(10);
        TlpNetConfig config;
        config.hidden = 32;
        TlpNet net(config, rng);
        PretrainOptions options;
        options.epochs = 1;
        const double first = gpt ? gptPretrain(net, set, options)
                                 : bertPretrain(net, set, options);
        options.epochs = 3;
        Rng rng2(10);
        TlpNet net2(config, rng2);
        const double later = gpt ? gptPretrain(net2, set, options)
                                 : bertPretrain(net2, set, options);
        EXPECT_LT(later, first * 1.05) << (gpt ? "gpt" : "bert");
        EXPECT_TRUE(std::isfinite(later));
    }
}

TEST(CostModels, TlpScoresWithoutLowering)
{
    const auto &ds = sharedDataset();
    Rng rng(11);
    TlpNetConfig config;
    config.hidden = 32;
    auto net = std::make_shared<TlpNet>(config, rng);
    TlpCostModel cost_model(net);
    EXPECT_FALSE(cost_model.needsLowering());

    sketch::SchedulePolicy policy(ds.groups[0].subgraph, false);
    auto states = policy.sampleInitPopulation(8, rng);
    const auto scores = cost_model.scoreStates(0, states);
    EXPECT_EQ(scores.size(), states.size());
}

TEST(CostModels, AnsorOnlineLearnsFromMeasurements)
{
    const auto &ds = sharedDataset();
    Rng rng(12);
    sketch::SchedulePolicy policy(ds.groups[0].subgraph, false);
    auto states = policy.sampleInitPopulation(32, rng);

    hw::LatencySimulator sim(hw::HardwarePlatform::preset("e5-2673"));
    std::vector<const sched::State *> pointers;
    std::vector<double> latencies;
    for (const auto &state : states) {
        pointers.push_back(&state);
        latencies.push_back(sim.latencyMs(sched::lower(state)));
    }

    AnsorOnlineCostModel model;
    auto before = model.scoreStates(0, states);
    EXPECT_EQ(before, std::vector<double>(states.size(), 0.0));
    model.update(0, pointers, latencies);
    auto after = model.scoreStates(0, states);

    // Scores should correlate with the (inverse) latencies after update.
    std::vector<double> inv;
    for (double latency : latencies)
        inv.push_back(-latency);
    EXPECT_GT(spearman(after, inv), 0.5);
}

TEST(CostModels, RandomModelInRange)
{
    const auto &ds = sharedDataset();
    Rng rng(13);
    sketch::SchedulePolicy policy(ds.groups[0].subgraph, false);
    auto states = policy.sampleInitPopulation(8, rng);
    RandomCostModel model;
    const auto scores = model.scoreStates(0, states);
    for (double s : scores) {
        EXPECT_GE(s, 0.0);
        EXPECT_LT(s, 1.0);
    }
}

} // namespace
} // namespace tlp::model
