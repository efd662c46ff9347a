/**
 * @file
 * Compute graphs and the builder API used by the model zoo.
 *
 * A ComputeGraph is a topologically ordered list of OpNodes. The builder
 * methods perform shape inference and validation as nodes are appended, so
 * the zoo code reads like a network definition.
 */
#pragma once

#include <string>
#include <vector>

#include "ir/op.h"

namespace tlp::ir {

/** Handle to a node inside a ComputeGraph. */
struct NodeRef
{
    int index = -1;
};

/** A whole-network compute graph plus the builder API. */
class ComputeGraph
{
  public:
    /** @param name network name, e.g. "resnet-50". */
    explicit ComputeGraph(std::string name);

    const std::string &name() const { return name_; }
    const std::vector<OpNode> &nodes() const { return nodes_; }
    const OpNode &node(NodeRef ref) const;

    /** Descriptor of a node's output tensor. */
    const TensorDesc &desc(NodeRef ref) const;

    /** Total FLOPs of the network. */
    int64_t totalFlops() const;

    // --- builder API (all perform shape inference) ---

    /** Add a graph input with the given shape. */
    NodeRef input(const Shape &shape, DataType dtype = DataType::Float32);

    /** Add a constant (weights); shape only, no data. */
    NodeRef constant(const Shape &shape, DataType dtype = DataType::Float32);

    /** Fully connected: x [b, k] -> [b, units] (weight created inside). */
    NodeRef dense(NodeRef x, int64_t units);

    /** NCHW conv2d with square kernel. */
    NodeRef conv2d(NodeRef x, int64_t out_channels, int64_t kernel,
                   int64_t stride = 1, int64_t pad = -1);

    /** Depthwise conv2d with square kernel. */
    NodeRef depthwiseConv2d(NodeRef x, int64_t kernel, int64_t stride = 1,
                            int64_t pad = -1);

    /** Grouped conv2d. */
    NodeRef groupConv2d(NodeRef x, int64_t out_channels, int64_t kernel,
                        int64_t groups, int64_t stride = 1, int64_t pad = -1);

    /** Batched matmul: a [b, m, k] x b [b, k, n]. */
    NodeRef batchMatmul(NodeRef a, NodeRef b);

    /** Pooling (square window). */
    NodeRef maxPool2d(NodeRef x, int64_t kernel, int64_t stride);
    NodeRef globalAvgPool(NodeRef x);

    /** Reductions over the last axis. */
    NodeRef softmax(NodeRef x);
    NodeRef reduceMean(NodeRef x);

    /** Elementwise / injective. */
    NodeRef add(NodeRef a, NodeRef b);
    NodeRef multiply(NodeRef a, NodeRef b);
    NodeRef biasAdd(NodeRef x);
    NodeRef relu(NodeRef x);
    NodeRef gelu(NodeRef x);
    NodeRef tanhOp(NodeRef x);
    NodeRef sigmoid(NodeRef x);
    NodeRef batchNorm(NodeRef x);
    NodeRef layerNorm(NodeRef x);
    NodeRef clip(NodeRef x, int64_t lo, int64_t hi);

    /** Shape ops. */
    NodeRef reshape(NodeRef x, const Shape &new_shape);
    NodeRef transpose2d(NodeRef x);

  private:
    NodeRef append(OpNode node);
    std::vector<TensorDesc> inputDescs(const OpNode &node) const;

    std::string name_;
    std::vector<OpNode> nodes_;
};

} // namespace tlp::ir
