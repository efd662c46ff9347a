/**
 * @file
 * Adam optimizer with decoupled weight decay.
 */
#pragma once

#include "nn/tensor.h"
#include "support/serialize.h"

namespace tlp::nn {

/** Adam hyper-parameters a training loop chooses. */
struct AdamOptions
{
    double lr = 1e-3;
    double weight_decay = 0.0;
};

/** Adam's fixed moment decays and denominator epsilon. */
inline constexpr double kAdamBeta1 = 0.9;
inline constexpr double kAdamBeta2 = 0.999;
inline constexpr double kAdamEps = 1e-8;
/** Global gradient-norm clip applied before every Adam step. */
inline constexpr double kAdamGradClip = 5.0;

/** Adam over a fixed parameter list. */
class Adam
{
  public:
    Adam(std::vector<Tensor> params, AdamOptions options = {});

    /** One update using the parameters' accumulated gradients. */
    void step();

    /** Zero all parameter gradients. */
    void zeroGrad();

    /** Adjust the learning rate (for simple schedules). */
    void setLr(double lr) { options_.lr = lr; }
    double lr() const { return options_.lr; }

    /** Steps taken so far (bias-correction time). */
    int64_t stepCount() const { return t_; }

    /**
     * Persist / restore the optimizer state (moments, step count, lr) —
     * the TrainSupervisor's rollback snapshots and the training
     * checkpoints need the optimizer trajectory, not just the weights.
     * The parameter list itself is not serialized; the restoring Adam
     * must hold tensors of identical sizes, in the same order.
     */
    void serializeState(BinaryWriter &writer) const;
    void deserializeState(BinaryReader &reader);

  private:
    std::vector<Tensor> params_;
    AdamOptions options_;
    std::vector<std::vector<float>> m_, v_;
    int64_t t_ = 0;
};

} // namespace tlp::nn
