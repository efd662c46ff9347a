/**
 * @file
 * Fused computational subgraphs — the unit of tuning.
 *
 * A Subgraph is a small self-contained op chain produced by the fusion
 * partitioner: typically one compute-heavy anchor (dense, conv2d, ...)
 * followed by fusable elementwise ops, with Input nodes standing in for
 * tensors produced elsewhere. Auto-tuning, dataset collection, and cost
 * models all operate per subgraph, mirroring Ansor's task granularity.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/op.h"

namespace tlp::ir {

struct LoopSpec;

/** A fused subgraph extracted from a network. */
class Subgraph
{
  public:
    Subgraph() = default;

    /**
     * @param ops     local topologically ordered ops; Input/Constant nodes
     *                first, each op's `inputs` indexes into this vector.
     * @param anchor  index of the anchor op, or -1 for elementwise-only.
     */
    Subgraph(std::vector<OpNode> ops, int anchor);

    const std::vector<OpNode> &ops() const { return ops_; }
    const OpNode &op(int index) const { return ops_.at(static_cast<size_t>(index)); }

    /** Index of the anchor op (-1 when none). */
    int anchorIndex() const { return anchor_; }

    /** The anchor op; panics when there is none. */
    const OpNode &anchor() const;

    /** Index of the final (output-producing) op. */
    int outputIndex() const;

    /** Canonical identity string (stable across runs). */
    const std::string &key() const { return key_; }

    /** The key a Subgraph(@p ops, @p anchor) would have. */
    static std::string keyOf(const std::vector<OpNode> &ops, int anchor);

    /** Total FLOPs of one execution of the subgraph. */
    int64_t flops() const { return flops_; }

    /** Name of the buffer op @p index produces, e.g. "T2_conv2d". */
    const std::string &bufferName(int index) const
    {
        return buffer_names_.at(static_cast<size_t>(index));
    }

    /**
     * Loop description of op @p index (empty for placeholders), built
     * once when the subgraph is and shared, immutable, by every
     * schedule State of the subgraph.
     */
    const std::shared_ptr<const LoopSpec> &loopSpec(int index) const
    {
        return loop_specs_.at(static_cast<size_t>(index));
    }

    /** Multi-line human-readable description. */
    std::string toString() const;

    void serialize(BinaryWriter &writer) const;
    static Subgraph deserialize(BinaryReader &reader);

  private:
    void finalize();

    std::vector<OpNode> ops_;
    int anchor_ = -1;
    std::string key_;
    int64_t flops_ = 0;
    std::vector<std::string> buffer_names_;
    std::vector<std::shared_ptr<const LoopSpec>> loop_specs_;
};

using SubgraphPtr = std::shared_ptr<const Subgraph>;

/** A network expressed as deduplicated subgraphs with occurrence counts. */
struct Workload
{
    std::string name;
    std::vector<SubgraphPtr> subgraphs;
    /** weights[i] = number of times subgraphs[i] occurs in the network. */
    std::vector<int> weights;
};

} // namespace tlp::ir
