#include "models/tlp_model.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "support/logging.h"

namespace tlp::model {

using nn::Tensor;

TlpNet::TlpNet(TlpNetConfig config, Rng &rng)
    : config_(config),
      up1_(config.emb_size, config.hidden, rng),
      up2_(config.hidden, config.hidden, rng)
{
    if (config_.lstm_backbone) {
        lstm_ = std::make_unique<nn::Lstm>(config_.hidden, config_.hidden,
                                           rng);
    } else {
        attention_ = std::make_unique<nn::MultiHeadSelfAttention>(
            config_.hidden, config_.heads, rng);
    }
    for (int i = 0; i < config_.residual_blocks; ++i)
        residuals_.push_back(
            std::make_unique<nn::ResidualBlock>(config_.hidden, rng));
    TLP_CHECK(config_.num_tasks >= 1, "need at least one task head");
    for (int t = 0; t < config_.num_tasks; ++t) {
        Head head;
        head.fc1 = std::make_unique<nn::Linear>(config_.hidden,
                                                config_.head_hidden, rng);
        head.fc2 = std::make_unique<nn::Linear>(config_.head_hidden, 1,
                                                rng);
        heads_.push_back(std::move(head));
    }
}

Tensor
TlpNet::backbone(const Tensor &x, bool causal)
{
    const int n = x.dim(0);
    TLP_CHECK(x.shape().size() == 2 &&
                  x.dim(1) == config_.seq_len * config_.emb_size,
              "bad TLP feature width");
    Tensor h = nn::reshape(x, {n, config_.seq_len, config_.emb_size});
    h = nn::relu(up1_.forward(h));
    h = nn::relu(up2_.forward(h));
    if (config_.lstm_backbone) {
        h = lstm_->forward(h);
    } else {
        h = attention_->forward(h, causal);
    }
    for (auto &block : residuals_)
        h = block->forward(h);
    return h;   // [N, L, hidden]
}

Tensor
TlpNet::forwardTask(const Tensor &x, int task)
{
    TLP_CHECK(task >= 0 && task < config_.num_tasks, "bad task ", task);
    const int n = x.dim(0);
    Tensor h = backbone(x);
    Head &head = heads_[static_cast<size_t>(task)];
    Tensor scores = nn::relu(head.fc1->forward(h));
    scores = head.fc2->forward(scores);                  // [N, L, 1]
    scores = nn::reshape(scores, {n, config_.seq_len});
    return nn::sumAxis1(scores);                         // [N]
}

std::vector<Tensor>
TlpNet::parameters()
{
    auto params = backboneParameters();
    for (int t = 0; t < config_.num_tasks; ++t)
        for (Tensor &param : headParameters(t))
            params.push_back(param);
    return params;
}

std::vector<Tensor>
TlpNet::backboneParameters()
{
    std::vector<Tensor> params;
    auto absorb = [&](nn::Module &module) {
        for (Tensor &param : module.parameters())
            params.push_back(param);
    };
    absorb(up1_);
    absorb(up2_);
    if (lstm_)
        absorb(*lstm_);
    if (attention_)
        absorb(*attention_);
    for (auto &block : residuals_)
        absorb(*block);
    return params;
}

std::vector<Tensor>
TlpNet::headParameters(int task)
{
    TLP_CHECK(task >= 0 && task < config_.num_tasks, "bad task ", task);
    std::vector<Tensor> params;
    Head &head = heads_[static_cast<size_t>(task)];
    for (Tensor &param : head.fc1->parameters())
        params.push_back(param);
    for (Tensor &param : head.fc2->parameters())
        params.push_back(param);
    return params;
}

namespace {

/**
 * Group-aware batch order: group chunks (so the rank loss sees dense
 * in-group pairs) packed several-to-a-batch up to batch_size.
 */
std::vector<std::vector<int>>
makeBatches(const data::LabeledSet &set, int batch_size, Rng &rng)
{
    std::map<int, std::vector<int>> by_group;
    for (int r = 0; r < set.rows; ++r)
        by_group[set.groups[static_cast<size_t>(r)]].push_back(r);

    // Chunk each group, then pack chunks into batches.
    const size_t chunk_size = std::max<size_t>(
        8, static_cast<size_t>(batch_size) / 4);
    std::vector<std::vector<int>> chunks;
    for (auto &[group, rows] : by_group) {
        rng.shuffle(rows);
        for (size_t start = 0; start < rows.size(); start += chunk_size) {
            const size_t end =
                std::min(rows.size(), start + chunk_size);
            chunks.emplace_back(rows.begin() + static_cast<long>(start),
                                rows.begin() + static_cast<long>(end));
        }
    }
    rng.shuffle(chunks);

    std::vector<std::vector<int>> batches;
    for (auto &chunk : chunks) {
        if (batches.empty() ||
            batches.back().size() + chunk.size() >
                static_cast<size_t>(batch_size)) {
            batches.emplace_back();
        }
        auto &batch = batches.back();
        batch.insert(batch.end(), chunk.begin(), chunk.end());
    }
    return batches;
}

} // namespace

double
trainLabeled(
    std::vector<Tensor> params, const data::LabeledSet &set,
    const TrainOptions &options, const char *log_label,
    const std::function<std::vector<std::vector<int>>()> &epoch_batches,
    const ForwardFn &forward)
{
    nn::AdamOptions adam_options;
    adam_options.lr = options.lr;
    adam_options.weight_decay = options.weight_decay;
    return trainSupervised(
        std::move(params), adam_options, options.supervisor, options.epochs,
        kLrDecayPerEpoch, options.verbose ? log_label : nullptr,
        epoch_batches, [&](const std::vector<int> &rows) -> LossFn {
            // Gather the batch; a head trains only on a batch holding
            // any of its labels, and a batch with none is skipped.
            std::vector<float> features;
            features.reserve(rows.size() *
                             static_cast<size_t>(set.feature_dim));
            std::vector<int> groups;
            for (int r : rows) {
                features.insert(features.end(), set.row(r),
                                set.row(r) + set.feature_dim);
                groups.push_back(set.groups[static_cast<size_t>(r)]);
            }
            std::vector<std::pair<int, std::vector<float>>> task_targets;
            for (int task = 0; task < set.num_tasks; ++task) {
                std::vector<float> targets;
                bool any_label = false;
                for (int r : rows) {
                    targets.push_back(
                        set.labels[static_cast<size_t>(r) *
                                       static_cast<size_t>(set.num_tasks) +
                                   static_cast<size_t>(task)]);
                    any_label |= !std::isnan(targets.back());
                }
                if (any_label)
                    task_targets.emplace_back(task, std::move(targets));
            }
            if (task_targets.empty())
                return {};
            const Tensor x = Tensor::fromData(
                {static_cast<int>(rows.size()), set.feature_dim},
                std::move(features));
            return [&forward, &options, x, groups = std::move(groups),
                    task_targets = std::move(task_targets)] {
                Tensor loss;
                for (const auto &[task, targets] : task_targets) {
                    const Tensor pred = forward(x, task);
                    Tensor task_loss =
                        options.use_rank_loss
                            ? nn::rankLoss(pred, targets, groups)
                            : nn::mseLoss(pred, targets);
                    loss = loss.defined() ? nn::add(loss, task_loss)
                                          : task_loss;
                }
                return loss;
            };
        });
}

double
trainTlpNet(TlpNet &net, const data::LabeledSet &set,
            const TrainOptions &options)
{
    TLP_CHECK(set.num_tasks == net.config().num_tasks,
              "label columns (", set.num_tasks, ") != net tasks (",
              net.config().num_tasks, ")");
    Rng rng(options.seed);
    return trainLabeled(
        net.parameters(), set, options, "tlp",
        [&] { return makeBatches(set, options.batch_size, rng); },
        [&](const Tensor &x, int task) { return net.forwardTask(x, task); });
}

std::vector<double>
predictRows(const float *features, int rows, int dim, int task,
            int batch_size, const ForwardFn &forward)
{
    std::vector<double> scores;
    scores.reserve(static_cast<size_t>(rows));
    for (int start = 0; start < rows; start += batch_size) {
        const int end = std::min(rows, start + batch_size);
        std::vector<float> data(
            features + static_cast<size_t>(start) * static_cast<size_t>(dim),
            features + static_cast<size_t>(end) * static_cast<size_t>(dim));
        Tensor pred = forward(
            Tensor::fromData({end - start, dim}, std::move(data)), task);
        for (float v : pred.value())
            scores.push_back(v);
    }
    return scores;
}

std::vector<double>
predictTlpNet(TlpNet &net, const data::LabeledSet &set, int task,
              int batch_size)
{
    return predictRows(
        set.features.data(), set.rows, set.feature_dim, task, batch_size,
        [&](const Tensor &x, int head) { return net.forwardTask(x, head); });
}

} // namespace tlp::model
