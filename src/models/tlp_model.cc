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

/** Gather a feature batch into a Tensor [B, dim]. */
Tensor
gatherFeatures(const data::LabeledSet &set, const std::vector<int> &rows)
{
    std::vector<float> data;
    data.reserve(rows.size() * static_cast<size_t>(set.feature_dim));
    for (int r : rows) {
        const float *src = set.row(r);
        data.insert(data.end(), src, src + set.feature_dim);
    }
    return Tensor::fromData({static_cast<int>(rows.size()),
                             set.feature_dim},
                            std::move(data));
}

} // namespace

double
trainTlpNet(TlpNet &net, const data::LabeledSet &set,
            const TrainOptions &options)
{
    TLP_CHECK(set.num_tasks == net.config().num_tasks,
              "label columns (", set.num_tasks, ") != net tasks (",
              net.config().num_tasks, ")");
    Rng rng(options.seed);
    nn::AdamOptions adam_options;
    adam_options.lr = options.lr;
    adam_options.weight_decay = options.weight_decay;
    nn::Adam adam(net.parameters(), adam_options);
    TrainSupervisor supervisor(net.parameters(), adam, options.supervisor);
    nn::TapePool tape_pool;

    double epoch_loss = 0.0;
    for (int epoch = 0; epoch < options.epochs && !supervisor.stopped();
         ++epoch) {
        const auto batches = makeBatches(set, options.batch_size, rng);
        double total = 0.0;
        int64_t count = 0;
        for (const auto &rows : batches) {
            // Per-task targets/groups up front, so empty batches are
            // skipped before the supervisor sees a step attempt.
            std::vector<int> active_tasks;
            std::vector<std::vector<float>> task_targets(
                static_cast<size_t>(set.num_tasks));
            std::vector<int> groups;
            groups.reserve(rows.size());
            for (int r : rows)
                groups.push_back(set.groups[static_cast<size_t>(r)]);
            for (int task = 0; task < set.num_tasks; ++task) {
                auto &targets = task_targets[static_cast<size_t>(task)];
                targets.reserve(rows.size());
                for (int r : rows) {
                    targets.push_back(
                        set.labels[static_cast<size_t>(r) *
                                       static_cast<size_t>(set.num_tasks) +
                                   static_cast<size_t>(task)]);
                }
                bool any_label = false;
                for (float t : targets)
                    any_label |= !std::isnan(t);
                if (any_label)
                    active_tasks.push_back(task);
                // else: this head sees nothing in this batch
            }
            if (active_tasks.empty())
                continue;

            Tensor x = gatherFeatures(set, rows);
            double batch_loss = 0.0;
            const StepOutcome outcome = supervisor.step([&] {
                nn::TapePool::Scope tape_scope(tape_pool);
                adam.zeroGrad();
                Tensor loss;
                for (int task : active_tasks) {
                    Tensor pred = net.forwardTask(x, task);
                    const auto &targets =
                        task_targets[static_cast<size_t>(task)];
                    Tensor task_loss =
                        options.use_rank_loss
                            ? nn::rankLoss(pred, targets, groups)
                            : nn::mseLoss(pred, targets);
                    loss = loss.defined() ? nn::add(loss, task_loss)
                                          : task_loss;
                }
                loss.backward();
                batch_loss = loss.value()[0];
                return batch_loss;
            });
            if (outcome == StepOutcome::Stop)
                break;
            if (outcome == StepOutcome::Ok) {
                total += batch_loss;
                ++count;
            }
        }
        epoch_loss = count > 0 ? total / static_cast<double>(count) : 0.0;
        if (options.verbose) {
            inform("epoch ", epoch, " loss ", epoch_loss, " lr ",
                   adam.lr());
        }
        adam.setLr(adam.lr() * kLrDecayPerEpoch);
    }
    return epoch_loss;
}

std::vector<double>
predictTlpNet(TlpNet &net, const data::LabeledSet &set, int task,
              int batch_size)
{
    std::vector<double> scores;
    scores.reserve(static_cast<size_t>(set.rows));
    for (int start = 0; start < set.rows; start += batch_size) {
        const int end = std::min(set.rows, start + batch_size);
        std::vector<int> rows;
        for (int r = start; r < end; ++r)
            rows.push_back(r);
        Tensor x = gatherFeatures(set, rows);
        Tensor pred = net.forwardTask(x, task);
        for (float v : pred.value())
            scores.push_back(v);
    }
    return scores;
}

} // namespace tlp::model
