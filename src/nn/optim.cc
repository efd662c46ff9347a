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

void
Adam::step()
{
    ++t_;
    const double bias1 = 1.0 - std::pow(kAdamBeta1, static_cast<double>(t_));
    const double bias2 = 1.0 - std::pow(kAdamBeta2, static_cast<double>(t_));

    // Global-norm gradient clipping.
    double norm_sq = 0.0;
    for (Tensor &param : params_)
        for (float g : param.grad())
            norm_sq += static_cast<double>(g) * g;
    const double norm = std::sqrt(norm_sq);
    const double clip_scale =
        norm > kAdamGradClip ? kAdamGradClip / norm : 1.0;

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
Adam::serializeState(BinaryWriter &writer) const
{
    writer.writePod<int64_t>(t_);
    writer.writePod<double>(options_.lr);
    writer.writePod<uint32_t>(static_cast<uint32_t>(params_.size()));
    for (size_t p = 0; p < params_.size(); ++p) {
        writer.writeVector(m_[p]);
        writer.writeVector(v_[p]);
    }
}

void
Adam::deserializeState(BinaryReader &reader)
{
    const auto t = reader.readPod<int64_t>();
    const auto lr = reader.readPod<double>();
    const auto count = reader.readPod<uint32_t>();
    if (count != params_.size()) {
        throw SerializeError(ErrorCode::Invalid,
                             "optimizer state holds " +
                                 std::to_string(count) +
                                 " parameters, this Adam has " +
                                 std::to_string(params_.size()));
    }
    std::vector<std::vector<float>> m, v;
    m.reserve(count);
    v.reserve(count);
    for (uint32_t p = 0; p < count; ++p) {
        m.push_back(reader.readVector<float>());
        v.push_back(reader.readVector<float>());
        if (m.back().size() != m_[p].size() ||
            v.back().size() != v_[p].size()) {
            throw SerializeError(ErrorCode::Invalid,
                                 "optimizer moment size mismatch at "
                                 "parameter " +
                                     std::to_string(p));
        }
    }
    // All validated: commit.
    t_ = t;
    options_.lr = lr;
    m_ = std::move(m);
    v_ = std::move(v);
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
