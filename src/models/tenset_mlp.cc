#include "models/tenset_mlp.h"

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

    // Group-aware batches (rank loss needs in-group pairs). The
    // per-group shuffles persist across epochs.
    std::map<int, std::vector<int>> by_group;
    for (int r = 0; r < set.rows; ++r)
        by_group[set.groups[static_cast<size_t>(r)]].push_back(r);
    const auto batch_size = static_cast<size_t>(options.batch_size);
    auto epoch_batches = [&] {
        std::vector<std::vector<int>> batches;
        for (auto &[group, rows] : by_group) {
            rng.shuffle(rows);
            for (size_t start = 0; start < rows.size();
                 start += batch_size) {
                const size_t end = std::min(rows.size(), start + batch_size);
                batches.emplace_back(
                    rows.begin() + static_cast<long>(start),
                    rows.begin() + static_cast<long>(end));
            }
        }
        rng.shuffle(batches);
        return batches;
    };
    return trainLabeled(net.parameters(), set, options, "mlp",
                        epoch_batches,
                        [&](const Tensor &x, int) { return net.forward(x); });
}

std::vector<double>
predictMlp(TensetMlpNet &net, const data::LabeledSet &set, int batch_size)
{
    return predictRows(set.features.data(), set.rows, set.feature_dim, 0,
                       batch_size,
                       [&](const Tensor &x, int) { return net.forward(x); });
}

} // namespace tlp::model
