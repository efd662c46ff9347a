#include "ir/graph.h"

namespace tlp::ir {

namespace {

/** Output spatial extent of a windowed op. */
int64_t
convOut(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    const int64_t out = (in + 2 * pad - kernel) / stride + 1;
    TLP_CHECK(out > 0, "window does not fit: in=", in, " k=", kernel,
              " s=", stride, " p=", pad);
    return out;
}

/** "same"-ish default padding for odd kernels. */
int64_t
defaultPad(int64_t kernel, int64_t pad)
{
    return pad >= 0 ? pad : kernel / 2;
}

} // namespace

ComputeGraph::ComputeGraph(std::string name) : name_(std::move(name)) {}

const OpNode &
ComputeGraph::node(NodeRef ref) const
{
    TLP_CHECK(ref.index >= 0 &&
                  ref.index < static_cast<int>(nodes_.size()),
              "bad node ref");
    return nodes_[static_cast<size_t>(ref.index)];
}

const TensorDesc &
ComputeGraph::desc(NodeRef ref) const
{
    return node(ref).out;
}

int64_t
ComputeGraph::totalFlops() const
{
    int64_t total = 0;
    for (const auto &n : nodes_)
        total += opFlops(n, inputDescs(n));
    return total;
}

NodeRef
ComputeGraph::append(OpNode node)
{
    nodes_.push_back(std::move(node));
    return NodeRef{static_cast<int>(nodes_.size()) - 1};
}

std::vector<TensorDesc>
ComputeGraph::inputDescs(const OpNode &node) const
{
    std::vector<TensorDesc> descs;
    descs.reserve(node.inputs.size());
    for (int idx : node.inputs)
        descs.push_back(nodes_.at(static_cast<size_t>(idx)).out);
    return descs;
}

NodeRef
ComputeGraph::input(const Shape &shape, DataType dtype)
{
    OpNode node;
    node.kind = OpKind::Input;
    node.out = TensorDesc{shape, dtype};
    return append(std::move(node));
}

NodeRef
ComputeGraph::constant(const Shape &shape, DataType dtype)
{
    OpNode node;
    node.kind = OpKind::Constant;
    node.out = TensorDesc{shape, dtype};
    return append(std::move(node));
}

NodeRef
ComputeGraph::dense(NodeRef x, int64_t units)
{
    // Copied, not referenced: the constant() call below appends to
    // nodes_ and may reallocate it, invalidating references into it.
    const TensorDesc in = desc(x);
    TLP_CHECK(in.shape.size() == 2, "dense expects a rank-2 input, got ",
              shapeToString(in.shape));
    NodeRef weight = constant({units, in.shape[1]}, in.dtype);
    OpNode node;
    node.kind = OpKind::Dense;
    node.inputs = {x.index, weight.index};
    node.attrs["units"] = units;
    node.out = TensorDesc{{in.shape[0], units}, in.dtype};
    return append(std::move(node));
}

NodeRef
ComputeGraph::conv2d(NodeRef x, int64_t out_channels, int64_t kernel,
                     int64_t stride, int64_t pad)
{
    // Copied, not referenced: the constant() call below appends to
    // nodes_ and may reallocate it, invalidating references into it.
    const TensorDesc in = desc(x);
    TLP_CHECK(in.shape.size() == 4, "conv2d expects NCHW");
    pad = defaultPad(kernel, pad);
    NodeRef weight =
        constant({out_channels, in.shape[1], kernel, kernel}, in.dtype);
    OpNode node;
    node.kind = OpKind::Conv2d;
    node.inputs = {x.index, weight.index};
    node.attrs["kernel"] = kernel;
    node.attrs["stride"] = stride;
    node.attrs["pad"] = pad;
    node.out = TensorDesc{{in.shape[0], out_channels,
                           convOut(in.shape[2], kernel, stride, pad),
                           convOut(in.shape[3], kernel, stride, pad)},
                          in.dtype};
    return append(std::move(node));
}

NodeRef
ComputeGraph::depthwiseConv2d(NodeRef x, int64_t kernel, int64_t stride,
                              int64_t pad)
{
    // Copied, not referenced: the constant() call below appends to
    // nodes_ and may reallocate it, invalidating references into it.
    const TensorDesc in = desc(x);
    TLP_CHECK(in.shape.size() == 4, "dwconv2d expects NCHW");
    pad = defaultPad(kernel, pad);
    NodeRef weight = constant({in.shape[1], 1, kernel, kernel}, in.dtype);
    OpNode node;
    node.kind = OpKind::DepthwiseConv2d;
    node.inputs = {x.index, weight.index};
    node.attrs["kernel"] = kernel;
    node.attrs["stride"] = stride;
    node.attrs["pad"] = pad;
    node.out = TensorDesc{{in.shape[0], in.shape[1],
                           convOut(in.shape[2], kernel, stride, pad),
                           convOut(in.shape[3], kernel, stride, pad)},
                          in.dtype};
    return append(std::move(node));
}

NodeRef
ComputeGraph::groupConv2d(NodeRef x, int64_t out_channels, int64_t kernel,
                          int64_t groups, int64_t stride, int64_t pad)
{
    // Copied, not referenced: the constant() call below appends to
    // nodes_ and may reallocate it, invalidating references into it.
    const TensorDesc in = desc(x);
    TLP_CHECK(in.shape.size() == 4, "gconv2d expects NCHW");
    TLP_CHECK(in.shape[1] % groups == 0 && out_channels % groups == 0,
              "channels not divisible by groups");
    pad = defaultPad(kernel, pad);
    NodeRef weight = constant(
        {out_channels, in.shape[1] / groups, kernel, kernel}, in.dtype);
    OpNode node;
    node.kind = OpKind::GroupConv2d;
    node.inputs = {x.index, weight.index};
    node.attrs["kernel"] = kernel;
    node.attrs["stride"] = stride;
    node.attrs["pad"] = pad;
    node.attrs["groups"] = groups;
    node.out = TensorDesc{{in.shape[0], out_channels,
                           convOut(in.shape[2], kernel, stride, pad),
                           convOut(in.shape[3], kernel, stride, pad)},
                          in.dtype};
    return append(std::move(node));
}

NodeRef
ComputeGraph::batchMatmul(NodeRef a, NodeRef b)
{
    const TensorDesc &da = desc(a);
    const TensorDesc &db = desc(b);
    TLP_CHECK(da.shape.size() == 3 && db.shape.size() == 3,
              "batch_matmul expects rank-3 inputs");
    TLP_CHECK(da.shape[0] == db.shape[0], "batch mismatch");
    TLP_CHECK(da.shape[2] == db.shape[1], "contraction mismatch: ",
              shapeToString(da.shape), " x ", shapeToString(db.shape));
    OpNode node;
    node.kind = OpKind::BatchMatmul;
    node.inputs = {a.index, b.index};
    node.out = TensorDesc{{da.shape[0], da.shape[1], db.shape[2]}, da.dtype};
    return append(std::move(node));
}

NodeRef
ComputeGraph::maxPool2d(NodeRef x, int64_t kernel, int64_t stride)
{
    const TensorDesc &in = desc(x);
    TLP_CHECK(in.shape.size() == 4, "pool expects NCHW");
    const int64_t pad = (kernel - 1) / 2;
    OpNode node;
    node.kind = OpKind::MaxPool2d;
    node.inputs = {x.index};
    node.attrs["kernel"] = kernel;
    node.attrs["stride"] = stride;
    node.attrs["pad"] = pad;
    node.out = TensorDesc{{in.shape[0], in.shape[1],
                           convOut(in.shape[2], kernel, stride, pad),
                           convOut(in.shape[3], kernel, stride, pad)},
                          in.dtype};
    return append(std::move(node));
}

NodeRef
ComputeGraph::globalAvgPool(NodeRef x)
{
    const TensorDesc &in = desc(x);
    TLP_CHECK(in.shape.size() == 4, "global pool expects NCHW");
    OpNode node;
    node.kind = OpKind::GlobalAvgPool;
    node.inputs = {x.index};
    node.out = TensorDesc{{in.shape[0], in.shape[1]}, in.dtype};
    return append(std::move(node));
}

NodeRef
ComputeGraph::softmax(NodeRef x)
{
    OpNode node;
    node.kind = OpKind::Softmax;
    node.inputs = {x.index};
    node.out = desc(x);
    return append(std::move(node));
}

NodeRef
ComputeGraph::reduceMean(NodeRef x)
{
    const TensorDesc &in = desc(x);
    TLP_CHECK(in.shape.size() >= 2, "reduce_mean expects rank >= 2");
    Shape out_shape(in.shape.begin(), in.shape.end() - 1);
    OpNode node;
    node.kind = OpKind::ReduceMean;
    node.inputs = {x.index};
    node.out = TensorDesc{out_shape, in.dtype};
    return append(std::move(node));
}

NodeRef
ComputeGraph::add(NodeRef a, NodeRef b)
{
    TLP_CHECK(desc(a).shape == desc(b).shape, "add shape mismatch: ",
              shapeToString(desc(a).shape), " vs ",
              shapeToString(desc(b).shape));
    OpNode node;
    node.kind = OpKind::Add;
    node.inputs = {a.index, b.index};
    node.out = desc(a);
    return append(std::move(node));
}

NodeRef
ComputeGraph::multiply(NodeRef a, NodeRef b)
{
    TLP_CHECK(desc(a).shape == desc(b).shape, "multiply shape mismatch");
    OpNode node;
    node.kind = OpKind::Multiply;
    node.inputs = {a.index, b.index};
    node.out = desc(a);
    return append(std::move(node));
}

NodeRef
ComputeGraph::biasAdd(NodeRef x)
{
    // Copied, not referenced: the constant() call below appends to
    // nodes_ and may reallocate it, invalidating references into it.
    const TensorDesc in = desc(x);
    const int64_t channels =
        in.shape.size() == 4 ? in.shape[1] : in.shape.back();
    NodeRef bias = constant({channels}, in.dtype);
    OpNode node;
    node.kind = OpKind::BiasAdd;
    node.inputs = {x.index, bias.index};
    node.out = in;
    return append(std::move(node));
}

namespace {

OpNode
unaryNode(OpKind kind, NodeRef x, const TensorDesc &out)
{
    OpNode node;
    node.kind = kind;
    node.inputs = {x.index};
    node.out = out;
    return node;
}

} // namespace

NodeRef
ComputeGraph::relu(NodeRef x)
{
    return append(unaryNode(OpKind::ReLU, x, desc(x)));
}

NodeRef
ComputeGraph::gelu(NodeRef x)
{
    return append(unaryNode(OpKind::GELU, x, desc(x)));
}

NodeRef
ComputeGraph::tanhOp(NodeRef x)
{
    return append(unaryNode(OpKind::Tanh, x, desc(x)));
}

NodeRef
ComputeGraph::sigmoid(NodeRef x)
{
    return append(unaryNode(OpKind::Sigmoid, x, desc(x)));
}

NodeRef
ComputeGraph::batchNorm(NodeRef x)
{
    return append(unaryNode(OpKind::BatchNormInfer, x, desc(x)));
}

NodeRef
ComputeGraph::layerNorm(NodeRef x)
{
    return append(unaryNode(OpKind::LayerNorm, x, desc(x)));
}

NodeRef
ComputeGraph::clip(NodeRef x, int64_t lo, int64_t hi)
{
    OpNode node = unaryNode(OpKind::Clip, x, desc(x));
    node.attrs["lo"] = lo;
    node.attrs["hi"] = hi;
    return append(std::move(node));
}

NodeRef
ComputeGraph::reshape(NodeRef x, const Shape &new_shape)
{
    TLP_CHECK(numElements(new_shape) == numElements(desc(x).shape),
              "reshape changes element count");
    OpNode node = unaryNode(OpKind::Reshape, x, desc(x));
    node.out.shape = new_shape;
    return append(std::move(node));
}

NodeRef
ComputeGraph::transpose2d(NodeRef x)
{
    const TensorDesc &in = desc(x);
    TLP_CHECK(in.shape.size() >= 2, "transpose2d expects rank >= 2");
    Shape out_shape = in.shape;
    std::swap(out_shape[out_shape.size() - 1], out_shape[out_shape.size() - 2]);
    OpNode node = unaryNode(OpKind::Transpose2d, x, in);
    node.out.shape = out_shape;
    return append(std::move(node));
}

} // namespace tlp::ir
