/**
 * @file
 * The TLP / MTL-TLP network (paper Figs. 7 and 8) and its trainer.
 *
 * Architecture: linear layers up-sample the per-primitive embedding to
 * the hidden width, one self-attention (or LSTM) "backbone basic module"
 * captures contextual features, two residual blocks follow, and the head
 * (linear layers + a sum over sequence positions) produces the score.
 * The red-dashed-box part of Fig. 7 is the backbone; MTL-TLP attaches
 * one head per hardware platform (task) to a shared backbone, and tuples
 * missing a task's label simply skip that head's loss (Sec. 5.2).
 */
#pragma once

#include <functional>
#include <memory>

#include "dataset/splits.h"
#include "models/supervisor.h"
#include "nn/losses.h"
#include "nn/modules.h"
#include "nn/optim.h"

namespace tlp::model {

/** Architecture hyper-parameters. */
struct TlpNetConfig
{
    int seq_len = 25;
    int emb_size = 22;
    int hidden = 64;            ///< paper uses 256; 64 is laptop scale
    int heads = 8;              ///< self-attention heads (Sec. 6.1.3)
    bool lstm_backbone = false; ///< LSTM instead of self-attention
    int residual_blocks = 2;    ///< Sec. 6.1.3: two residual blocks
    int head_hidden = 64;
    int num_tasks = 1;          ///< MTL-TLP: one head per platform
};

/** The TLP network (MTL-TLP when num_tasks > 1). */
class TlpNet : public nn::Module
{
  public:
    TlpNet(TlpNetConfig config, Rng &rng);

    const TlpNetConfig &config() const { return config_; }

    /** Backbone: x [N, seq_len*emb_size] -> hidden sequence [N, L, D]. */
    nn::Tensor backbone(const nn::Tensor &x, bool causal = false);

    /** Full forward for one task head: -> scores [N]. */
    nn::Tensor forwardTask(const nn::Tensor &x, int task = 0);

    std::vector<nn::Tensor> parameters() override;

    /** Parameters of the shared backbone only. */
    std::vector<nn::Tensor> backboneParameters();

    /** Parameters of one head. */
    std::vector<nn::Tensor> headParameters(int task);

  private:
    TlpNetConfig config_;
    nn::Linear up1_, up2_;
    std::unique_ptr<nn::MultiHeadSelfAttention> attention_;
    std::unique_ptr<nn::Lstm> lstm_;
    std::vector<std::unique_ptr<nn::ResidualBlock>> residuals_;
    struct Head
    {
        std::unique_ptr<nn::Linear> fc1, fc2;
    };
    std::vector<Head> heads_;
};

/** Learning-rate decay factor applied after every training epoch. */
inline constexpr double kLrDecayPerEpoch = 0.85;

/** Training options shared by the learned models. */
struct TrainOptions
{
    int epochs = 6;
    int batch_size = 256;
    double lr = 2e-3;
    bool use_rank_loss = true;     ///< else MSE (paper Table 3)
    double weight_decay = 1e-6;
    uint64_t seed = 0x7ea1;
    bool verbose = false;
    /** Training-run supervision (disabled by default: with
     *  supervisor.enabled == false the loop is byte-for-byte the
     *  unsupervised one). */
    SupervisorOptions supervisor;
};

/**
 * Train @p net on @p set. The set's label columns map 1:1 to the net's
 * task heads; NaN labels are skipped per task. Batches are drawn within
 * subgraph groups so the rank loss sees dense comparable pairs.
 * @return final epoch's mean training loss.
 */
double trainTlpNet(TlpNet &net, const data::LabeledSet &set,
                   const TrainOptions &options);

/** Predict scores of @p set rows with head @p task. */
std::vector<double> predictTlpNet(TlpNet &net, const data::LabeledSet &set,
                                  int task = 0, int batch_size = 512);

/** A model's forward pass over a feature batch x [B, dim] for one task
 *  head: -> scores [B]. */
using ForwardFn = std::function<nn::Tensor(const nn::Tensor &x, int task)>;

/**
 * The labeled-set trainer behind trainTlpNet and trainMlp: trains
 * @p params through trainSupervised on @p epoch_batches of @p set rows,
 * each step summing the rank (or MSE) loss of @p forward over the
 * batch's tasks with any label; a batch with no label is skipped.
 */
double trainLabeled(
    std::vector<nn::Tensor> params, const data::LabeledSet &set,
    const TrainOptions &options, const char *log_label,
    const std::function<std::vector<std::vector<int>>()> &epoch_batches,
    const ForwardFn &forward);

/**
 * The one raw-row predict: scores @p rows row-major feature rows of
 * width @p dim with head @p task of @p forward, at most @p batch_size
 * rows per forward pass.
 */
std::vector<double> predictRows(const float *features, int rows, int dim,
                                int task, int batch_size,
                                const ForwardFn &forward);

} // namespace tlp::model
