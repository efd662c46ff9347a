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
    nn::Adam adam(params, adam_options);
    TrainSupervisor supervisor(params, adam, options.supervisor);
    nn::TapePool tape_pool;

    std::vector<int> order(static_cast<size_t>(set.rows));
    for (int r = 0; r < set.rows; ++r)
        order[static_cast<size_t>(r)] = r;

    const int l = config.seq_len;
    const int e = config.emb_size;
    const float nan = std::numeric_limits<float>::quiet_NaN();

    double epoch_loss = 0.0;
    for (int epoch = 0; epoch < options.epochs && !supervisor.stopped();
         ++epoch) {
        rng.shuffle(order);
        double total = 0.0;
        int64_t batches = 0;
        for (size_t start = 0; start < order.size();
             start += static_cast<size_t>(options.batch_size)) {
            const size_t end =
                std::min(order.size(),
                         start + static_cast<size_t>(options.batch_size));
            const int b = static_cast<int>(end - start);

            std::vector<float> input;
            std::vector<float> targets;
            input.reserve(static_cast<size_t>(b) * set.feature_dim);
            targets.reserve(static_cast<size_t>(b) * set.feature_dim);
            for (size_t i = start; i < end; ++i) {
                const float *row = set.row(order[i]);
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
                            input.push_back(masked ? 0.0f
                                                   : row[t * e + c]);
                            targets.push_back(masked ? row[t * e + c]
                                                     : nan);
                        }
                    }
                }
            }

            Tensor x = Tensor::fromData({b, set.feature_dim},
                                        std::move(input));
            double batch_loss = 0.0;
            const StepOutcome outcome = supervisor.step([&] {
                nn::TapePool::Scope tape_scope(tape_pool);
                adam.zeroGrad();
                Tensor h = net.backbone(x, pretext == Pretext::Gpt);
                Tensor pred = recon.forward(h);   // [B, L, E]
                pred = nn::reshape(pred, {b * l * e});
                Tensor loss = nn::mseLoss(pred, targets);
                loss.backward();
                batch_loss = loss.value()[0];
                return batch_loss;
            });
            if (outcome == StepOutcome::Stop)
                break;
            if (outcome == StepOutcome::Ok) {
                total += batch_loss;
                ++batches;
            }
        }
        epoch_loss = batches > 0 ? total / static_cast<double>(batches)
                                 : 0.0;
        if (options.verbose)
            inform("pretrain epoch ", epoch, " loss ", epoch_loss);
    }
    return epoch_loss;
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
