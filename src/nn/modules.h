/**
 * @file
 * Neural-network modules used by the TLP / MTL-TLP architectures.
 *
 * The paper's model (Fig. 7) is: several linear layers up-sampling the
 * embedding, one self-attention (or LSTM) backbone block, two residual
 * blocks, and linear head layers whose per-position outputs are summed
 * into the prediction score. These modules compose that architecture.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/ops.h"
#include "support/serialize.h"

namespace tlp::nn {

/** Base class: parameter registration, gradient reset, serialization. */
class Module
{
  public:
    virtual ~Module() = default;

    /** All trainable leaf tensors. */
    virtual std::vector<Tensor> parameters() = 0;

    /** Zero the gradients of every parameter. */
    void zeroGrad();

    /** Total parameter count. */
    int64_t numParameters();

    /** Serialize all parameters in order. */
    void saveParameters(BinaryWriter &writer);

    /** Load parameters in the same order (shapes must match). */
    void loadParameters(BinaryReader &reader);
};

/** Affine layer y = x W + b, applied over the last axis. */
class Linear : public Module
{
  public:
    /** Kaiming-ish init with fan-in scaling. */
    Linear(int in_features, int out_features, Rng &rng);

    /** x [..., in] -> [..., out]. */
    Tensor forward(const Tensor &x);

    std::vector<Tensor> parameters() override;

  private:
    int in_, out_;
    Tensor weight_;   ///< [in, out]
    Tensor bias_;     ///< [out]
};

/** Layer normalization over the last axis. */
class LayerNormModule : public Module
{
  public:
    explicit LayerNormModule(int features);

    Tensor forward(const Tensor &x);

    std::vector<Tensor> parameters() override;

  private:
    Tensor gamma_, beta_;
};

/** Multi-head self-attention with output projection (one block). */
class MultiHeadSelfAttention : public Module
{
  public:
    MultiHeadSelfAttention(int model_dim, int heads, Rng &rng);

    /** x [N, L, D] -> [N, L, D] (residual + layer-norm inside).
     *  @p causal restricts attention to the prefix (GPT pretraining). */
    Tensor forward(const Tensor &x, bool causal = false);

    std::vector<Tensor> parameters() override;

  private:
    int dim_, heads_;
    Linear q_, k_, v_, out_;
    LayerNormModule norm_;
};

/** Single-layer LSTM returning the full hidden sequence. */
class Lstm : public Module
{
  public:
    Lstm(int input_dim, int hidden_dim, Rng &rng);

    /** x [N, L, D] -> [N, L, H]. */
    Tensor forward(const Tensor &x);

    std::vector<Tensor> parameters() override;

  private:
    int input_, hidden_;
    Tensor wx_;   ///< [D, 4H]
    Tensor wh_;   ///< [H, 4H]
    Tensor bias_; ///< [4H]
};

/** Residual MLP block: x + W2 relu(W1 x), with layer norm. */
class ResidualBlock : public Module
{
  public:
    ResidualBlock(int dim, Rng &rng);

    Tensor forward(const Tensor &x);

    std::vector<Tensor> parameters() override;

  private:
    Linear fc1_, fc2_;
    LayerNormModule norm_;
};

} // namespace tlp::nn
