/**
 * @file
 * Adam optimizer with decoupled weight decay.
 */
#pragma once

#include "nn/tensor.h"

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

    /** Global L2 norm of the parameters' accumulated gradients; NaN or
     *  infinite when any gradient is. */
    double gradNorm() const;

    /**
     * One update using the parameters' accumulated gradients, clipped to
     * kAdamGradClip by @p grad_norm, which must be gradNorm() of those
     * gradients (the caller has usually just checked it).
     */
    void step(double grad_norm);

    /** Zero all parameter gradients. */
    void zeroGrad();

    /** Adjust the learning rate (for simple schedules). */
    void setLr(double lr) { options_.lr = lr; }
    double lr() const { return options_.lr; }

    /** Steps taken so far (bias-correction time). */
    int64_t stepCount() const { return t_; }

  private:
    std::vector<Tensor> params_;
    AdamOptions options_;
    std::vector<std::vector<float>> m_, v_;
    int64_t t_ = 0;
};

} // namespace tlp::nn
