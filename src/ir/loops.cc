#include "ir/loops.h"

#include <algorithm>

namespace tlp::ir {

int64_t
AccessSpec::footprintElems(const std::vector<int64_t> &tile_extents) const
{
    int64_t elems = 1;
    for (const AccessDim &dim : dims) {
        int64_t extent = 1;
        for (const auto &[iter, coef] : dim.terms) {
            const int64_t tile =
                tile_extents.at(static_cast<size_t>(iter));
            extent += coef * (tile - 1);
        }
        elems *= std::max<int64_t>(1, extent);
    }
    return elems;
}

int64_t
LoopSpec::totalPoints() const
{
    int64_t total = 1;
    for (const IterSpec &iter : iters)
        total *= iter.extent;
    return total;
}

namespace {

/** Single-iterator access dimension. */
AccessDim
dimOf(int iter, int64_t coef = 1)
{
    AccessDim dim;
    dim.terms.push_back({iter, coef});
    return dim;
}

/** Windowed access dimension, e.g. stride*oh + rh. */
AccessDim
windowDim(int outer_iter, int64_t stride, int inner_iter)
{
    AccessDim dim;
    dim.terms.push_back({outer_iter, stride});
    dim.terms.push_back({inner_iter, 1});
    return dim;
}

/** Spatial iterators straight from a shape. */
void
addSpatialIters(LoopSpec &spec, const Shape &shape,
                const std::vector<std::string> &names)
{
    for (size_t i = 0; i < shape.size(); ++i) {
        IterSpec iter;
        iter.name = i < names.size()
                        ? names[i]
                        : std::string("s").append(std::to_string(i));
        iter.extent = shape[i];
        spec.iters.push_back(iter);
    }
}

AccessSpec
makeAccess(const Subgraph &sg, int producer, bool is_write,
           std::vector<AccessDim> dims)
{
    AccessSpec access;
    access.buffer = sg.bufferName(producer);
    access.elem_bytes = dtypeBytes(sg.op(producer).out.dtype);
    access.is_write = is_write;
    access.dims = std::move(dims);
    return access;
}

LoopSpec
denseLoops(const Subgraph &sg, int idx)
{
    const OpNode &op = sg.op(idx);
    const int data = op.inputs.at(0);
    const int weight = op.inputs.at(1);
    const Shape &out = op.out.shape;
    const int64_t k = sg.op(data).out.shape.back();

    LoopSpec spec;
    spec.iters = {{"i", out[0], false}, {"j", out[1], false},
                  {"k", k, true}};
    spec.accesses.push_back(
        makeAccess(sg, data, false, {dimOf(0), dimOf(2)}));
    spec.accesses.push_back(
        makeAccess(sg, weight, false, {dimOf(1), dimOf(2)}));
    spec.accesses.push_back(
        makeAccess(sg, idx, true, {dimOf(0), dimOf(1)}));
    spec.flops_per_point = 2.0;
    return spec;
}

LoopSpec
batchMatmulLoops(const Subgraph &sg, int idx)
{
    const OpNode &op = sg.op(idx);
    const int a = op.inputs.at(0);
    const int b = op.inputs.at(1);
    const Shape &out = op.out.shape;
    const int64_t k = sg.op(a).out.shape.back();

    LoopSpec spec;
    spec.iters = {{"b", out[0], false}, {"i", out[1], false},
                  {"j", out[2], false}, {"k", k, true}};
    spec.accesses.push_back(
        makeAccess(sg, a, false, {dimOf(0), dimOf(1), dimOf(3)}));
    spec.accesses.push_back(
        makeAccess(sg, b, false, {dimOf(0), dimOf(3), dimOf(2)}));
    spec.accesses.push_back(
        makeAccess(sg, idx, true, {dimOf(0), dimOf(1), dimOf(2)}));
    spec.flops_per_point = 2.0;
    return spec;
}

LoopSpec
convLoops(const Subgraph &sg, int idx)
{
    const OpNode &op = sg.op(idx);
    const int data = op.inputs.at(0);
    const int weight = op.inputs.at(1);
    const Shape &out = op.out.shape;
    const int64_t kernel = op.attr("kernel", 1);
    const int64_t stride = op.attr("stride", 1);
    const int64_t groups = op.attr("groups", 1);
    const int64_t in_c = sg.op(data).out.shape.at(1);

    LoopSpec spec;
    const bool depthwise = op.kind == OpKind::DepthwiseConv2d;
    const int64_t red_c = depthwise ? 1 : in_c / groups;

    spec.iters = {{"n", out[0], false},  {"oc", out[1], false},
                  {"oh", out[2], false}, {"ow", out[3], false},
                  {"rc", red_c, true},   {"rh", kernel, true},
                  {"rw", kernel, true}};
    // Input: [n, rc (or oc for depthwise), oh*s+rh, ow*s+rw]
    AccessDim channel = depthwise ? dimOf(1) : dimOf(4);
    spec.accesses.push_back(makeAccess(
        sg, data, false,
        {dimOf(0), channel, windowDim(2, stride, 5), windowDim(3, stride, 6)}));
    // Weight: [oc, rc, rh, rw]
    spec.accesses.push_back(makeAccess(
        sg, weight, false, {dimOf(1), dimOf(4), dimOf(5), dimOf(6)}));
    spec.accesses.push_back(makeAccess(
        sg, idx, true, {dimOf(0), dimOf(1), dimOf(2), dimOf(3)}));
    spec.flops_per_point = 2.0;
    return spec;
}

LoopSpec
poolLoops(const Subgraph &sg, int idx)
{
    const OpNode &op = sg.op(idx);
    const int data = op.inputs.at(0);
    const Shape &out = op.out.shape;
    const int64_t kernel = op.attr("kernel", 1);
    const int64_t stride = op.attr("stride", 1);

    LoopSpec spec;
    spec.iters = {{"n", out[0], false},  {"c", out[1], false},
                  {"oh", out[2], false}, {"ow", out[3], false},
                  {"rh", kernel, true},  {"rw", kernel, true}};
    spec.accesses.push_back(makeAccess(
        sg, data, false,
        {dimOf(0), dimOf(1), windowDim(2, stride, 4),
         windowDim(3, stride, 5)}));
    spec.accesses.push_back(makeAccess(
        sg, idx, true, {dimOf(0), dimOf(1), dimOf(2), dimOf(3)}));
    spec.flops_per_point = 1.0;
    return spec;
}

LoopSpec
globalPoolLoops(const Subgraph &sg, int idx)
{
    const OpNode &op = sg.op(idx);
    const int data = op.inputs.at(0);
    const Shape &in = sg.op(data).out.shape;

    LoopSpec spec;
    spec.iters = {{"n", in[0], false}, {"c", in[1], false},
                  {"rh", in[2], true}, {"rw", in[3], true}};
    spec.accesses.push_back(makeAccess(
        sg, data, false, {dimOf(0), dimOf(1), dimOf(2), dimOf(3)}));
    spec.accesses.push_back(makeAccess(sg, idx, true, {dimOf(0), dimOf(1)}));
    spec.flops_per_point = 1.0;
    return spec;
}

LoopSpec
lastAxisReduceLoops(const Subgraph &sg, int idx, double flops_per_point)
{
    const OpNode &op = sg.op(idx);
    const int data = op.inputs.at(0);
    const Shape &in = sg.op(data).out.shape;

    LoopSpec spec;
    std::vector<AccessDim> in_dims;
    for (size_t i = 0; i + 1 < in.size(); ++i) {
        spec.iters.push_back(
            {std::string("s").append(std::to_string(i)), in[i], false});
        in_dims.push_back(dimOf(static_cast<int>(i)));
    }
    spec.iters.push_back({"r", in.back(), true});
    in_dims.push_back(dimOf(static_cast<int>(in.size()) - 1));
    spec.accesses.push_back(makeAccess(sg, data, false, in_dims));
    // Softmax writes the full input shape; reductions write outer dims.
    std::vector<AccessDim> out_dims(in_dims.begin(), in_dims.end());
    if (op.kind != OpKind::Softmax)
        out_dims.pop_back();
    spec.accesses.push_back(makeAccess(sg, idx, true, out_dims));
    spec.flops_per_point = flops_per_point;
    return spec;
}

LoopSpec
elementwiseLoops(const Subgraph &sg, int idx)
{
    const OpNode &op = sg.op(idx);
    const Shape &out = op.out.shape;

    LoopSpec spec;
    addSpatialIters(spec, out, {"a", "b", "c", "d"});
    std::vector<AccessDim> dims;
    for (size_t i = 0; i < out.size(); ++i)
        dims.push_back(dimOf(static_cast<int>(i)));

    for (int input : op.inputs) {
        const OpNode &producer = sg.op(input);
        if (producer.out.shape == out) {
            spec.accesses.push_back(makeAccess(sg, input, false, dims));
        } else {
            // Bias-style operand: model as last-dim (or channel) access.
            std::vector<AccessDim> small_dims;
            const size_t channel_axis = out.size() == 4 ? 1 : out.size() - 1;
            small_dims.push_back(dimOf(static_cast<int>(channel_axis)));
            spec.accesses.push_back(
                makeAccess(sg, input, false, small_dims));
        }
    }
    spec.accesses.push_back(makeAccess(sg, idx, true, dims));

    std::vector<TensorDesc> input_descs;
    for (int input : op.inputs)
        input_descs.push_back(sg.op(input).out);
    const int64_t out_elems = numElements(out);
    spec.flops_per_point =
        static_cast<double>(opFlops(op, input_descs)) /
        static_cast<double>(std::max<int64_t>(1, out_elems));
    return spec;
}

} // namespace

LoopSpec
describeLoops(const Subgraph &subgraph, int op_index)
{
    const OpNode &op = subgraph.op(op_index);
    switch (op.kind) {
      case OpKind::Input:
      case OpKind::Constant:
        return LoopSpec{};
      case OpKind::Dense:
        return denseLoops(subgraph, op_index);
      case OpKind::BatchMatmul:
        return batchMatmulLoops(subgraph, op_index);
      case OpKind::Conv2d:
      case OpKind::DepthwiseConv2d:
      case OpKind::GroupConv2d:
        return convLoops(subgraph, op_index);
      case OpKind::MaxPool2d:
      case OpKind::AvgPool2d:
        return poolLoops(subgraph, op_index);
      case OpKind::GlobalAvgPool:
        return globalPoolLoops(subgraph, op_index);
      case OpKind::Softmax:
        return lastAxisReduceLoops(subgraph, op_index, 4.0);
      case OpKind::ReduceMean:
        return lastAxisReduceLoops(subgraph, op_index, 1.0);
      default:
        return elementwiseLoops(subgraph, op_index);
    }
}

} // namespace tlp::ir
