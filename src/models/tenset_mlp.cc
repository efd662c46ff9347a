#include "models/tenset_mlp.h"

#include <cmath>
#include <map>

namespace tlp::model {

using nn::Tensor;

TensetMlpNet::TensetMlpNet(MlpConfig config, Rng &rng) : config_(config)
{
    int in = config_.input;
    for (int i = 0; i < config_.layers; ++i) {
        layers_.push_back(
            std::make_unique<nn::Linear>(in, config_.hidden, rng));
        in = config_.hidden;
    }
    layers_.push_back(std::make_unique<nn::Linear>(in, 1, rng));
}

Tensor
TensetMlpNet::forward(const Tensor &x)
{
    Tensor h = x;
    for (size_t i = 0; i + 1 < layers_.size(); ++i)
        h = nn::relu(layers_[i]->forward(h));
    h = layers_.back()->forward(h);                 // [N, 1]
    return nn::reshape(h, {x.dim(0)});
}

std::vector<Tensor>
TensetMlpNet::parameters()
{
    std::vector<Tensor> params;
    for (auto &layer : layers_)
        for (Tensor &param : layer->parameters())
            params.push_back(param);
    return params;
}

double
trainMlp(TensetMlpNet &net, const data::LabeledSet &set,
         const TrainOptions &options)
{
    TLP_CHECK(set.num_tasks == 1, "MLP baseline is single-task");
    TLP_CHECK(set.feature_dim == net.config().input,
              "feature width mismatch");
    Rng rng(options.seed);
    nn::AdamOptions adam_options;
    adam_options.lr = options.lr;
    adam_options.weight_decay = options.weight_decay;
    nn::Adam adam(net.parameters(), adam_options);
    TrainSupervisor supervisor(net.parameters(), adam, options.supervisor);
    nn::TapePool tape_pool;

    // Group-aware batches (rank loss needs in-group pairs).
    std::map<int, std::vector<int>> by_group;
    for (int r = 0; r < set.rows; ++r)
        by_group[set.groups[static_cast<size_t>(r)]].push_back(r);

    double epoch_loss = 0.0;
    for (int epoch = 0; epoch < options.epochs && !supervisor.stopped();
         ++epoch) {
        std::vector<std::vector<int>> batches;
        for (auto &[group, rows] : by_group) {
            rng.shuffle(rows);
            for (size_t start = 0; start < rows.size();
                 start += static_cast<size_t>(options.batch_size)) {
                const size_t end =
                    std::min(rows.size(),
                             start + static_cast<size_t>(
                                         options.batch_size));
                batches.emplace_back(
                    rows.begin() + static_cast<long>(start),
                    rows.begin() + static_cast<long>(end));
            }
        }
        rng.shuffle(batches);

        double total = 0.0;
        int64_t count = 0;
        for (const auto &rows : batches) {
            std::vector<float> data;
            std::vector<float> targets;
            std::vector<int> groups;
            data.reserve(rows.size() *
                         static_cast<size_t>(set.feature_dim));
            for (int r : rows) {
                const float *src = set.row(r);
                data.insert(data.end(), src, src + set.feature_dim);
                targets.push_back(set.labels[static_cast<size_t>(r)]);
                groups.push_back(set.groups[static_cast<size_t>(r)]);
            }
            bool any_label = false;
            for (float t : targets)
                any_label |= !std::isnan(t);
            if (!any_label)
                continue;
            Tensor x = Tensor::fromData(
                {static_cast<int>(rows.size()), set.feature_dim},
                std::move(data));
            double batch_loss = 0.0;
            const StepOutcome outcome = supervisor.step([&] {
                nn::TapePool::Scope tape_scope(tape_pool);
                adam.zeroGrad();
                Tensor pred = net.forward(x);
                Tensor loss = options.use_rank_loss
                                  ? nn::rankLoss(pred, targets, groups)
                                  : nn::mseLoss(pred, targets);
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
        if (options.verbose)
            inform("mlp epoch ", epoch, " loss ", epoch_loss);
        adam.setLr(adam.lr() * kLrDecayPerEpoch);
    }
    return epoch_loss;
}

std::vector<double>
predictMlp(TensetMlpNet &net, const data::LabeledSet &set, int batch_size)
{
    std::vector<double> scores;
    scores.reserve(static_cast<size_t>(set.rows));
    for (int start = 0; start < set.rows; start += batch_size) {
        const int end = std::min(set.rows, start + batch_size);
        std::vector<float> data;
        for (int r = start; r < end; ++r) {
            const float *src = set.row(r);
            data.insert(data.end(), src, src + set.feature_dim);
        }
        Tensor x = Tensor::fromData({end - start, set.feature_dim},
                                    std::move(data));
        Tensor pred = net.forward(x);
        for (float v : pred.value())
            scores.push_back(v);
    }
    return scores;
}

} // namespace tlp::model
