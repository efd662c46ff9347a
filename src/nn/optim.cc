#include "nn/optim.h"

#include <cmath>

namespace tlp::nn {

Adam::Adam(std::vector<Tensor> params, AdamOptions options)
    : params_(std::move(params)), options_(options)
{
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (Tensor &param : params_) {
        m_.emplace_back(static_cast<size_t>(param.numel()), 0.0f);
        v_.emplace_back(static_cast<size_t>(param.numel()), 0.0f);
    }
}

double
Adam::gradNorm() const
{
    // Reads Node::grad directly: a grad never allocated holds only zeros,
    // so skipping it leaves the sum unchanged.
    double norm_sq = 0.0;
    for (const Tensor &param : params_) {
        const std::vector<float> &grad = param.node()->grad;
        for (float g : grad)
            norm_sq += static_cast<double>(g) * g;
    }
    return std::sqrt(norm_sq);
}

void
Adam::step(double grad_norm)
{
    ++t_;
    const double bias1 = 1.0 - std::pow(kAdamBeta1, static_cast<double>(t_));
    const double bias2 = 1.0 - std::pow(kAdamBeta2, static_cast<double>(t_));

    // Global-norm gradient clipping.
    const double clip_scale =
        grad_norm > kAdamGradClip ? kAdamGradClip / grad_norm : 1.0;

    for (size_t p = 0; p < params_.size(); ++p) {
        auto &value = params_[p].value();
        auto &grad = params_[p].grad();
        auto &m = m_[p];
        auto &v = v_[p];
        for (size_t i = 0; i < value.size(); ++i) {
            double g = static_cast<double>(grad[i]) * clip_scale;
            if (options_.weight_decay > 0.0)
                value[i] -= static_cast<float>(options_.lr *
                                               options_.weight_decay *
                                               value[i]);
            m[i] = static_cast<float>(kAdamBeta1 * m[i] +
                                      (1.0 - kAdamBeta1) * g);
            v[i] = static_cast<float>(kAdamBeta2 * v[i] +
                                      (1.0 - kAdamBeta2) * g * g);
            const double m_hat = m[i] / bias1;
            const double v_hat = v[i] / bias2;
            value[i] -= static_cast<float>(
                options_.lr * m_hat / (std::sqrt(v_hat) + kAdamEps));
        }
    }
}

void
Adam::zeroGrad()
{
    for (Tensor &param : params_) {
        auto &grad = param.grad();
        std::fill(grad.begin(), grad.end(), 0.0f);
    }
}

} // namespace tlp::nn
