#include "models/pretrain.h"

#include <cmath>

namespace tlp::model {

using nn::Tensor;

namespace {

enum class Pretext { Gpt, Bert };

double
pretrain(TlpNet &net, const data::LabeledSet &set,
         const PretrainOptions &options, Pretext pretext)
{
    const auto &config = net.config();
    TLP_CHECK(set.feature_dim == config.seq_len * config.emb_size,
              "feature width mismatch");
    Rng rng(options.seed);

    // Reconstruction head: hidden -> embedding (discarded afterwards).
    nn::Linear recon(config.hidden, config.emb_size, rng);
    auto params = net.backboneParameters();
    for (Tensor &param : recon.parameters())
        params.push_back(param);
    nn::AdamOptions adam_options;
    adam_options.lr = options.lr;

    std::vector<int> order(static_cast<size_t>(set.rows));
    for (int r = 0; r < set.rows; ++r)
        order[static_cast<size_t>(r)] = r;
    auto epoch_batches = [&] {
        rng.shuffle(order);
        std::vector<std::vector<int>> batches;
        for (size_t start = 0; start < order.size();
             start += static_cast<size_t>(options.batch_size)) {
            const size_t end =
                std::min(order.size(),
                         start + static_cast<size_t>(options.batch_size));
            batches.emplace_back(order.begin() + static_cast<long>(start),
                                 order.begin() + static_cast<long>(end));
        }
        return batches;
    };

    const int l = config.seq_len;
    const int e = config.emb_size;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    auto batch_loss = [&](const std::vector<int> &rows) -> LossFn {
        const int b = static_cast<int>(rows.size());
        std::vector<float> input;
        std::vector<float> targets;
        input.reserve(static_cast<size_t>(b) * set.feature_dim);
        targets.reserve(static_cast<size_t>(b) * set.feature_dim);
        for (int r : rows) {
            const float *row = set.row(r);
            if (pretext == Pretext::Gpt) {
                input.insert(input.end(), row, row + set.feature_dim);
                // Predict row t+1 from rows <= t.
                for (int t = 0; t < l; ++t) {
                    for (int c = 0; c < e; ++c) {
                        targets.push_back(
                            t + 1 < l ? row[(t + 1) * e + c] : nan);
                    }
                }
            } else {
                // BERT: zero masked rows, reconstruct only them.
                for (int t = 0; t < l; ++t) {
                    const bool masked = rng.bernoulli(kBertMaskProb);
                    for (int c = 0; c < e; ++c) {
                        input.push_back(masked ? 0.0f : row[t * e + c]);
                        targets.push_back(masked ? row[t * e + c] : nan);
                    }
                }
            }
        }
        Tensor x = Tensor::fromData({b, set.feature_dim}, std::move(input));
        return [&net, &recon, pretext, b, l, e, x,
                targets = std::move(targets)] {
            Tensor h = net.backbone(x, pretext == Pretext::Gpt);
            Tensor pred = recon.forward(h);   // [B, L, E]
            pred = nn::reshape(pred, {b * l * e});
            return nn::mseLoss(pred, targets);
        };
    };
    // Pretraining keeps its learning rate: no per-epoch decay.
    return trainSupervised(std::move(params), adam_options,
                           options.supervisor, options.epochs, 1.0,
                           options.verbose ? "pretrain" : nullptr,
                           epoch_batches, batch_loss);
}

} // namespace

double
gptPretrain(TlpNet &net, const data::LabeledSet &set,
            const PretrainOptions &options)
{
    return pretrain(net, set, options, Pretext::Gpt);
}

double
bertPretrain(TlpNet &net, const data::LabeledSet &set,
             const PretrainOptions &options)
{
    return pretrain(net, set, options, Pretext::Bert);
}

} // namespace tlp::model
