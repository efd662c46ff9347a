/**
 * @file
 * Golden digests of the bits that small training runs leave in their
 * parameters. Each case pins an FNV-1a digest over every parameter's
 * final float bits (and the returned loss), so any change to tape
 * storage, op arithmetic, accumulation order, batching or the optimizer
 * moves a digest. The cases cover every tape training loop: trainTlpNet
 * (attention and LSTM backbones, rank and MSE loss, a masked 2-task MTL
 * run, a supervised run with a forced retry), GPT and BERT pretraining
 * (BERT also with a forced retry, which must reuse the batch's masks)
 * and the TenSet-MLP fit (also stopped mid-epoch by the abort policy).
 * Batch sizes are ragged within each epoch, so per-step tape shapes both
 * grow and shrink.
 *
 * The digests hold for the uninstrumented x86-64-v3 builds
 * (RelWithDebInfo and Release; see golden.h). Any other build trains
 * to other, equally deterministic bits and skips these cases;
 * TapePool.PooledStepsAreBitIdenticalToUnpooled checks
 * bit-transparency inside any build.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "models/pretrain.h"
#include "models/supervisor.h"
#include "models/tenset_mlp.h"
#include "models/tlp_model.h"
#include "golden.h"

namespace tlp::model {
namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

class TrainingDigest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!test::kGoldenBits)
            GTEST_SKIP() << "digests are pinned for the uninstrumented "
                            "x86-64-v3 build";
    }
};

/**
 * A synthetic set of @p rows rows with three groups of different sizes,
 * so group-aware batching yields batches of several sizes.
 */
data::LabeledSet
raggedSet(int rows, int dim, int num_tasks, uint64_t seed)
{
    Rng rng(seed);
    data::LabeledSet set;
    set.rows = rows;
    set.feature_dim = dim;
    set.num_tasks = num_tasks;
    set.features.resize(static_cast<size_t>(rows) *
                        static_cast<size_t>(dim));
    for (float &f : set.features)
        f = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (int r = 0; r < rows; ++r) {
        set.groups.push_back(r < rows / 2 ? 0 : (r < 3 * rows / 4 ? 1 : 2));
        for (int task = 0; task < num_tasks; ++task)
            set.labels.push_back(
                static_cast<float>(rng.uniform(0.1, 2.0) + task));
    }
    return set;
}

/** Fold @p net's parameter bits and @p loss's bits into a digest. */
uint64_t
trainingDigest(nn::Module &net, double loss)
{
    uint64_t digest = fnv1a(&loss, sizeof(loss), kFnvBasis);
    for (nn::Tensor &param : net.parameters()) {
        const auto &value = param.value();
        digest = fnv1a(value.data(), value.size() * sizeof(float), digest);
    }
    return digest;
}

TlpNetConfig
smallTlpConfig()
{
    TlpNetConfig config;
    config.hidden = 16;
    config.heads = 4;
    config.head_hidden = 16;
    return config;
}

TrainOptions
smallTrainOptions()
{
    TrainOptions options;
    options.epochs = 3;
    options.batch_size = 16;
    return options;
}

uint64_t
tlpDigest(const TlpNetConfig &config, const data::LabeledSet &set,
          const TrainOptions &options, HealthCounters *health = nullptr)
{
    Rng rng(0xd1);
    TlpNet net(config, rng);
    TrainOptions run_options = options;
    run_options.supervisor.health_out = health;
    const double loss = trainTlpNet(net, set, run_options);
    EXPECT_TRUE(std::isfinite(loss));
    return trainingDigest(net, loss);
}

TEST_F(TrainingDigest, TlpAttentionRankLoss)
{
    const TlpNetConfig config = smallTlpConfig();
    const auto set =
        raggedSet(45, config.seq_len * config.emb_size, 1, 0xa1);
    const uint64_t digest = tlpDigest(config, set, smallTrainOptions());
    EXPECT_EQ(digest, 0x466013c0afc5dfbeull) << std::hex << digest;
}

TEST_F(TrainingDigest, TlpLstmMseLoss)
{
    TlpNetConfig config = smallTlpConfig();
    config.lstm_backbone = true;
    const auto set =
        raggedSet(45, config.seq_len * config.emb_size, 1, 0xa2);
    TrainOptions options = smallTrainOptions();
    options.use_rank_loss = false;
    const uint64_t digest = tlpDigest(config, set, options);
    EXPECT_EQ(digest, 0x288a24e64b35c6edull) << std::hex << digest;
}

TEST_F(TrainingDigest, TlpMtlMaskedLabels)
{
    TlpNetConfig config = smallTlpConfig();
    config.num_tasks = 2;
    auto set = raggedSet(45, config.seq_len * config.emb_size, 2, 0xa3);
    // Task 0 keeps a third of its labels; task 1 loses group 2 entirely,
    // so some batches train one head and others both.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (int r = 0; r < set.rows; ++r) {
        if (r % 3 != 0)
            set.labels[static_cast<size_t>(r) * 2] = nan;
        if (set.groups[static_cast<size_t>(r)] == 2)
            set.labels[static_cast<size_t>(r) * 2 + 1] = nan;
    }
    const uint64_t digest = tlpDigest(config, set, smallTrainOptions());
    EXPECT_EQ(digest, 0x27cc380bdaf181c8ull) << std::hex << digest;
}

TEST_F(TrainingDigest, TlpSupervisedRetry)
{
    const TlpNetConfig config = smallTlpConfig();
    const auto set =
        raggedSet(45, config.seq_len * config.emb_size, 1, 0xa4);
    TrainOptions options = smallTrainOptions();
    options.supervisor.enabled = true;
    options.supervisor.faults = TrainFaultProfile::uniform(0.3, 0xa4);
    HealthCounters health;
    const uint64_t digest = tlpDigest(config, set, options, &health);
    // At least one step attempt was rolled back and retried.
    EXPECT_GT(health[HealthEvent::Rollback], 0);
    EXPECT_EQ(digest, 0xab92fa9ec178c19dull) << std::hex << digest;
}

TEST_F(TrainingDigest, GptPretrain)
{
    const TlpNetConfig config = smallTlpConfig();
    const auto set =
        raggedSet(37, config.seq_len * config.emb_size, 1, 0xa5);
    Rng rng(0xd2);
    TlpNet net(config, rng);
    PretrainOptions options;
    options.epochs = 2;
    options.batch_size = 16;
    const double loss = gptPretrain(net, set, options);
    EXPECT_TRUE(std::isfinite(loss));
    const uint64_t digest = trainingDigest(net, loss);
    EXPECT_EQ(digest, 0xc7d4f38c8738dfd7ull) << std::hex << digest;
}

TEST_F(TrainingDigest, BertPretrain)
{
    const TlpNetConfig config = smallTlpConfig();
    const auto set =
        raggedSet(37, config.seq_len * config.emb_size, 1, 0xa7);
    Rng rng(0xd4);
    TlpNet net(config, rng);
    PretrainOptions options;
    options.epochs = 2;
    options.batch_size = 16;
    const double loss = bertPretrain(net, set, options);
    EXPECT_TRUE(std::isfinite(loss));
    const uint64_t digest = trainingDigest(net, loss);
    EXPECT_EQ(digest, 0x166c02b6e06ab757ull) << std::hex << digest;
}

TEST_F(TrainingDigest, BertSupervisedRetry)
{
    const TlpNetConfig config = smallTlpConfig();
    const auto set =
        raggedSet(37, config.seq_len * config.emb_size, 1, 0xa8);
    Rng rng(0xd5);
    TlpNet net(config, rng);
    PretrainOptions options;
    options.epochs = 2;
    options.batch_size = 16;
    options.supervisor.enabled = true;
    options.supervisor.faults = TrainFaultProfile::uniform(0.3, 0xa8);
    HealthCounters health;
    options.supervisor.health_out = &health;
    const double loss = bertPretrain(net, set, options);
    EXPECT_TRUE(std::isfinite(loss));
    // A retried attempt reuses the batch's masks: the mask draws come
    // from the pretraining stream once per batch, never per attempt.
    EXPECT_GT(health[HealthEvent::Rollback], 0);
    const uint64_t digest = trainingDigest(net, loss);
    EXPECT_EQ(digest, 0x1e9febd459dfbaf7ull) << std::hex << digest;
}

TEST_F(TrainingDigest, TensetMlpFit)
{
    const auto set = raggedSet(45, 164, 1, 0xa6);
    Rng rng(0xd3);
    MlpConfig config;
    config.hidden = 32;
    TensetMlpNet net(config, rng);
    TrainOptions options = smallTrainOptions();
    const double loss = trainMlp(net, set, options);
    EXPECT_TRUE(std::isfinite(loss));
    const uint64_t digest = trainingDigest(net, loss);
    EXPECT_EQ(digest, 0x949e366afafe8d0bull) << std::hex << digest;
}

TEST_F(TrainingDigest, MlpAbortOnFault)
{
    const auto set = raggedSet(45, 164, 1, 0xa9);
    Rng rng(0xd6);
    MlpConfig config;
    config.hidden = 32;
    TensetMlpNet net(config, rng);
    TrainOptions options = smallTrainOptions();
    options.supervisor.enabled = true;
    options.supervisor.policy = RecoveryPolicy::AbortOnFault;
    options.supervisor.faults = TrainFaultProfile::uniform(0.3, 0xa9);
    HealthCounters health;
    options.supervisor.health_out = &health;
    const double loss = trainMlp(net, set, options);
    EXPECT_TRUE(std::isfinite(loss));
    // The first faulty attempt stops the run mid-epoch: the weights are
    // the last-good ones, and the loss is the mean of that epoch's
    // steps before the stop.
    EXPECT_EQ(health[HealthEvent::AbortPolicy], 1);
    EXPECT_GT(loss, 0.0);
    const uint64_t digest = trainingDigest(net, loss);
    EXPECT_EQ(digest, 0x63bcb8fccc31304dull) << std::hex << digest;
}

} // namespace
} // namespace tlp::model
