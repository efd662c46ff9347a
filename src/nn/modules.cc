#include "nn/modules.h"

#include <cmath>

namespace tlp::nn {

void
Module::zeroGrad()
{
    for (Tensor &param : parameters()) {
        auto &grad = param.grad();
        std::fill(grad.begin(), grad.end(), 0.0f);
    }
}

int64_t
Module::numParameters()
{
    int64_t count = 0;
    for (Tensor &param : parameters())
        count += param.numel();
    return count;
}

void
Module::saveParameters(BinaryWriter &writer)
{
    auto params = parameters();
    writer.writePod<uint32_t>(static_cast<uint32_t>(params.size()));
    for (Tensor &param : params)
        writer.writeVector(param.value());
}

void
Module::loadParameters(BinaryReader &reader)
{
    // Mismatches throw SerializeError (not panic): a snapshot from a
    // different architecture is corrupt input, not an internal bug.
    auto params = parameters();
    const auto count = reader.readPod<uint32_t>();
    if (count != params.size()) {
        throw SerializeError(ErrorCode::Corrupt,
                             "parameter count mismatch: stream has " +
                                 std::to_string(count) + ", model has " +
                                 std::to_string(params.size()));
    }
    for (Tensor &param : params) {
        auto values = reader.readVector<float>();
        if (static_cast<int64_t>(values.size()) != param.numel()) {
            throw SerializeError(ErrorCode::Corrupt,
                                 "parameter shape mismatch: stream has " +
                                     std::to_string(values.size()) +
                                     " elements, model wants " +
                                     std::to_string(param.numel()));
        }
        param.value() = std::move(values);
    }
}

Linear::Linear(int in_features, int out_features, Rng &rng)
    : in_(in_features), out_(out_features)
{
    const double stddev = std::sqrt(2.0 / in_features);
    weight_ = Tensor::randn({in_, out_}, rng, stddev, true);
    bias_ = Tensor::zeros({out_}, true);
}

Tensor
Linear::forward(const Tensor &x)
{
    TLP_CHECK(x.shape().back() == in_, "linear input width mismatch: got ",
              x.shape().back(), ", want ", in_);
    return addBias(matmul(x, weight_), bias_);
}

std::vector<Tensor>
Linear::parameters()
{
    return {weight_, bias_};
}

LayerNormModule::LayerNormModule(int features)
{
    gamma_ = Tensor::fromData({features},
                              std::vector<float>(
                                  static_cast<size_t>(features), 1.0f),
                              true);
    beta_ = Tensor::zeros({features}, true);
}

Tensor
LayerNormModule::forward(const Tensor &x)
{
    return layerNorm(x, gamma_, beta_);
}

std::vector<Tensor>
LayerNormModule::parameters()
{
    return {gamma_, beta_};
}

MultiHeadSelfAttention::MultiHeadSelfAttention(int model_dim, int heads,
                                               Rng &rng)
    : dim_(model_dim), heads_(heads), q_(model_dim, model_dim, rng),
      k_(model_dim, model_dim, rng), v_(model_dim, model_dim, rng),
      out_(model_dim, model_dim, rng), norm_(model_dim)
{
    TLP_CHECK(model_dim % heads == 0, "heads must divide model dim");
}

Tensor
MultiHeadSelfAttention::forward(const Tensor &x, bool causal)
{
    const int n = x.dim(0), l = x.dim(1);
    const int hd = dim_ / heads_;

    auto split = [&](Tensor t) {
        // [N, L, D] -> [N, H, L, hd] -> [N*H, L, hd]
        t = reshape(t, {n, l, heads_, hd});
        t = permute0213(t);
        return reshape(t, {n * heads_, l, hd});
    };
    Tensor q = split(q_.forward(x));
    Tensor k = split(k_.forward(x));
    Tensor v = split(v_.forward(x));

    Tensor scores = bmm(q, transposeLast2(k));
    scores = scale(scores, 1.0f / std::sqrt(static_cast<float>(hd)));
    Tensor probs = causal ? softmaxLastDimCausal(scores)
                          : softmaxLastDim(scores);
    Tensor ctx = bmm(probs, v);                    // [N*H, L, hd]

    ctx = reshape(ctx, {n, heads_, l, hd});
    ctx = permute0213(ctx);                        // [N, L, H, hd]
    ctx = reshape(ctx, {n, l, dim_});
    Tensor out = out_.forward(ctx);
    return norm_.forward(add(out, x));             // residual + layer norm
}

std::vector<Tensor>
MultiHeadSelfAttention::parameters()
{
    std::vector<Tensor> params;
    for (Module *module :
         std::initializer_list<Module *>{&q_, &k_, &v_, &out_, &norm_}) {
        for (Tensor &param : module->parameters())
            params.push_back(param);
    }
    return params;
}

Lstm::Lstm(int input_dim, int hidden_dim, Rng &rng)
    : input_(input_dim), hidden_(hidden_dim)
{
    const double stddev = std::sqrt(1.0 / hidden_dim);
    wx_ = Tensor::randn({input_, 4 * hidden_}, rng, stddev, true);
    wh_ = Tensor::randn({hidden_, 4 * hidden_}, rng, stddev, true);
    // Forget-gate bias initialized positive (standard trick).
    std::vector<float> bias(static_cast<size_t>(4 * hidden_), 0.0f);
    for (int i = hidden_; i < 2 * hidden_; ++i)
        bias[static_cast<size_t>(i)] = 1.0f;
    bias_ = Tensor::fromData({4 * hidden_}, std::move(bias), true);
}

Tensor
Lstm::forward(const Tensor &x)
{
    const int n = x.dim(0), l = x.dim(1);
    TLP_CHECK(x.dim(2) == input_, "lstm input width mismatch");

    Tensor h = Tensor::zeros({n, hidden_});
    Tensor c = Tensor::zeros({n, hidden_});
    std::vector<Tensor> outputs;
    outputs.reserve(static_cast<size_t>(l));
    for (int t = 0; t < l; ++t) {
        Tensor xt = selectAxis1(x, t);                       // [N, D]
        Tensor gates =
            addBias(add(matmul(xt, wx_), matmul(h, wh_)), bias_);
        Tensor i_g = sigmoidT(sliceCols(gates, 0, hidden_));
        Tensor f_g = sigmoidT(sliceCols(gates, hidden_, hidden_));
        Tensor g_g = tanhT(sliceCols(gates, 2 * hidden_, hidden_));
        Tensor o_g = sigmoidT(sliceCols(gates, 3 * hidden_, hidden_));
        c = add(mul(f_g, c), mul(i_g, g_g));
        h = mul(o_g, tanhT(c));
        outputs.push_back(h);
    }
    return stackAxis1(outputs);
}

std::vector<Tensor>
Lstm::parameters()
{
    return {wx_, wh_, bias_};
}

ResidualBlock::ResidualBlock(int dim, Rng &rng)
    : fc1_(dim, dim, rng), fc2_(dim, dim, rng), norm_(dim)
{
}

Tensor
ResidualBlock::forward(const Tensor &x)
{
    Tensor h = relu(fc1_.forward(x));
    h = fc2_.forward(h);
    return norm_.forward(add(h, x));
}

std::vector<Tensor>
ResidualBlock::parameters()
{
    std::vector<Tensor> params;
    for (Module *module :
         std::initializer_list<Module *>{&fc1_, &fc2_, &norm_}) {
        for (Tensor &param : module->parameters())
            params.push_back(param);
    }
    return params;
}

} // namespace tlp::nn
