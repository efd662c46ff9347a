#include "ir/op.h"

namespace tlp::ir {

std::string
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Input:           return "input";
      case OpKind::Constant:        return "const";
      case OpKind::Dense:           return "dense";
      case OpKind::Conv2d:          return "conv2d";
      case OpKind::DepthwiseConv2d: return "dwconv2d";
      case OpKind::GroupConv2d:     return "gconv2d";
      case OpKind::BatchMatmul:     return "batch_matmul";
      case OpKind::MaxPool2d:       return "max_pool2d";
      case OpKind::AvgPool2d:       return "avg_pool2d";
      case OpKind::GlobalAvgPool:   return "global_avg_pool";
      case OpKind::Softmax:         return "softmax";
      case OpKind::ReduceMean:      return "reduce_mean";
      case OpKind::Add:             return "add";
      case OpKind::Multiply:        return "multiply";
      case OpKind::BiasAdd:         return "bias_add";
      case OpKind::ReLU:            return "relu";
      case OpKind::GELU:            return "gelu";
      case OpKind::Tanh:            return "tanh";
      case OpKind::Sigmoid:         return "sigmoid";
      case OpKind::BatchNormInfer:  return "batch_norm";
      case OpKind::LayerNorm:       return "layer_norm";
      case OpKind::Clip:            return "clip";
      case OpKind::Reshape:         return "reshape";
      case OpKind::Transpose2d:     return "transpose2d";
      case OpKind::NumKinds:        break;
    }
    TLP_PANIC("unknown op kind");
}

bool
isHeavyAnchor(OpKind kind)
{
    switch (kind) {
      case OpKind::Dense:
      case OpKind::Conv2d:
      case OpKind::DepthwiseConv2d:
      case OpKind::GroupConv2d:
      case OpKind::BatchMatmul:
        return true;
      default:
        return false;
    }
}

bool
isMediumAnchor(OpKind kind)
{
    switch (kind) {
      case OpKind::MaxPool2d:
      case OpKind::AvgPool2d:
      case OpKind::GlobalAvgPool:
      case OpKind::Softmax:
      case OpKind::ReduceMean:
        return true;
      default:
        return false;
    }
}

bool
isFusable(OpKind kind)
{
    switch (kind) {
      case OpKind::Add:
      case OpKind::Multiply:
      case OpKind::BiasAdd:
      case OpKind::ReLU:
      case OpKind::GELU:
      case OpKind::Tanh:
      case OpKind::Sigmoid:
      case OpKind::BatchNormInfer:
      case OpKind::LayerNorm:
      case OpKind::Clip:
      case OpKind::Reshape:
      case OpKind::Transpose2d:
        return true;
      default:
        return false;
    }
}

int64_t
OpNode::attr(const std::string &name, int64_t fallback) const
{
    auto it = attrs.find(name);
    return it == attrs.end() ? fallback : it->second;
}

std::string
OpNode::toString() const
{
    std::string text = opKindName(kind);
    for (const auto &[name, value] : attrs) {
        text += ' ';
        text += name;
        text += std::to_string(value);
    }
    text += ' ';
    text += shapeToString(out.shape);
    return text;
}

void
OpNode::serialize(BinaryWriter &writer) const
{
    writer.writePod<uint8_t>(static_cast<uint8_t>(kind));
    writer.writeVector(inputs);
    writer.writePod<uint32_t>(static_cast<uint32_t>(attrs.size()));
    for (const auto &[name, value] : attrs) {
        writer.writeString(name);
        writer.writePod(value);
    }
    writer.writeVector(out.shape);
    writer.writePod<uint8_t>(static_cast<uint8_t>(out.dtype));
}

OpNode
OpNode::deserialize(BinaryReader &reader)
{
    OpNode node;
    const auto raw_kind = reader.readPod<uint8_t>();
    if (raw_kind >= static_cast<uint8_t>(OpKind::NumKinds)) {
        throw SerializeError(ErrorCode::Corrupt,
                             "invalid op kind " + std::to_string(raw_kind));
    }
    node.kind = static_cast<OpKind>(raw_kind);
    node.inputs = reader.readVector<int>();
    const auto attr_count = reader.readPod<uint32_t>();
    // Every attr costs >= 16 stream bytes (name length + value).
    if (attr_count > reader.remaining() / 16) {
        throw SerializeError(ErrorCode::Truncated,
                             "op attr count " + std::to_string(attr_count) +
                                 " exceeds the remaining stream");
    }
    for (uint32_t i = 0; i < attr_count; ++i) {
        std::string name = reader.readString();
        node.attrs[name] = reader.readPod<int64_t>();
    }
    node.out.shape = reader.readVector<int64_t>();
    const auto raw_dtype = reader.readPod<uint8_t>();
    if (raw_dtype > static_cast<uint8_t>(DataType::Int8)) {
        throw SerializeError(ErrorCode::Corrupt,
                             "invalid dtype " + std::to_string(raw_dtype));
    }
    node.out.dtype = static_cast<DataType>(raw_dtype);
    return node;
}

int64_t
opFlops(const OpNode &node, const std::vector<TensorDesc> &input_descs)
{
    const int64_t out_elems = numElements(node.out.shape);
    switch (node.kind) {
      case OpKind::Input:
      case OpKind::Constant:
      case OpKind::Reshape:
      case OpKind::Transpose2d:
        return 0;
      case OpKind::Dense: {
        const int64_t k = input_descs.at(0).shape.back();
        return 2 * out_elems * k;
      }
      case OpKind::BatchMatmul: {
        const int64_t k = input_descs.at(0).shape.back();
        return 2 * out_elems * k;
      }
      case OpKind::Conv2d:
      case OpKind::GroupConv2d: {
        const int64_t kernel = node.attr("kernel", 1);
        const int64_t groups = node.attr("groups", 1);
        const int64_t in_c = input_descs.at(0).shape.at(1);
        return 2 * out_elems * kernel * kernel * (in_c / groups);
      }
      case OpKind::DepthwiseConv2d: {
        const int64_t kernel = node.attr("kernel", 1);
        return 2 * out_elems * kernel * kernel;
      }
      case OpKind::MaxPool2d:
      case OpKind::AvgPool2d: {
        const int64_t kernel = node.attr("kernel", 1);
        return out_elems * kernel * kernel;
      }
      case OpKind::GlobalAvgPool: {
        const Shape &in = input_descs.at(0).shape;
        return numElements(in);
      }
      case OpKind::Softmax:
      case OpKind::ReduceMean:
      case OpKind::LayerNorm:
        // A handful of passes over the input.
        return 4 * numElements(input_descs.at(0).shape);
      case OpKind::GELU:
      case OpKind::Tanh:
      case OpKind::Sigmoid:
        // Transcendental: count several flops per element.
        return 8 * out_elems;
      default:
        return out_elems;
    }
}

} // namespace tlp::ir
