#include "ir/subgraph.h"

#include <sstream>

#include "ir/loops.h"
#include "support/rng.h"
#include "support/str_util.h"

namespace tlp::ir {

Subgraph::Subgraph(std::vector<OpNode> ops, int anchor)
    : ops_(std::move(ops)), anchor_(anchor)
{
    finalize();
}

const OpNode &
Subgraph::anchor() const
{
    TLP_CHECK(anchor_ >= 0, "subgraph has no anchor");
    return ops_.at(static_cast<size_t>(anchor_));
}

int
Subgraph::outputIndex() const
{
    return static_cast<int>(ops_.size()) - 1;
}

std::string
Subgraph::keyOf(const std::vector<OpNode> &ops, int anchor)
{
    // Canonical description: op kinds, attrs, and shapes in order.
    std::string desc;
    for (const auto &op : ops) {
        desc += op.toString();
        desc += ';';
    }
    const uint64_t hash = fnv1a(desc.data(), desc.size());

    // Short human prefix + hash for uniqueness.
    const std::string prefix =
        anchor >= 0 ? opKindName(ops[static_cast<size_t>(anchor)].kind)
                    : std::string("elemwise");
    return prefix + "_" + strFormat("%016llx",
                                    static_cast<unsigned long long>(hash));
}

void
Subgraph::finalize()
{
    TLP_CHECK(!ops_.empty(), "empty subgraph");
    key_ = keyOf(ops_, anchor_);

    flops_ = 0;
    for (const auto &op : ops_) {
        std::vector<TensorDesc> descs;
        descs.reserve(op.inputs.size());
        for (int idx : op.inputs)
            descs.push_back(ops_.at(static_cast<size_t>(idx)).out);
        flops_ += opFlops(op, descs);
    }

    // The naive program: every schedule State of this subgraph starts
    // from (and shares) these, so they are built exactly once.
    buffer_names_.clear();
    for (size_t i = 0; i < ops_.size(); ++i)
        buffer_names_.push_back(std::string("T")
                                    .append(std::to_string(i))
                                    .append("_")
                                    .append(opKindName(ops_[i].kind)));
    loop_specs_.clear();
    for (size_t i = 0; i < ops_.size(); ++i) {
        loop_specs_.push_back(std::make_shared<const LoopSpec>(
            describeLoops(*this, static_cast<int>(i))));
    }
}

std::string
Subgraph::toString() const
{
    std::ostringstream os;
    os << "subgraph " << key_ << " (flops=" << flops_ << ")\n";
    for (size_t i = 0; i < ops_.size(); ++i) {
        os << "  %" << i << " = " << ops_[i].toString();
        if (static_cast<int>(i) == anchor_)
            os << "   <-- anchor";
        os << '\n';
    }
    return os.str();
}

void
Subgraph::serialize(BinaryWriter &writer) const
{
    writer.writePod<uint32_t>(static_cast<uint32_t>(ops_.size()));
    for (const auto &op : ops_)
        op.serialize(writer);
    writer.writePod<int32_t>(anchor_);
}

Subgraph
Subgraph::deserialize(BinaryReader &reader)
{
    const auto count = reader.readPod<uint32_t>();
    // An op costs >= 22 stream bytes; corrupt counts fail before reserve.
    if (count == 0 || count > reader.remaining() / 22 + 1) {
        throw SerializeError(ErrorCode::Corrupt,
                             "invalid subgraph op count " +
                                 std::to_string(count));
    }
    std::vector<OpNode> ops;
    ops.reserve(count);
    for (uint32_t i = 0; i < count; ++i)
        ops.push_back(OpNode::deserialize(reader));
    const auto anchor = reader.readPod<int32_t>();
    // Validate graph structure before the constructor walks it: the
    // anchor and every producer index must name an op in this subgraph.
    if (anchor < -1 || anchor >= static_cast<int32_t>(count)) {
        throw SerializeError(ErrorCode::Corrupt,
                             "subgraph anchor " + std::to_string(anchor) +
                                 " out of range for " +
                                 std::to_string(count) + " ops");
    }
    for (const OpNode &op : ops) {
        for (int input : op.inputs) {
            if (input < 0 || input >= static_cast<int>(count)) {
                throw SerializeError(ErrorCode::Corrupt,
                                     "subgraph input index " +
                                         std::to_string(input) +
                                         " out of range");
            }
        }
    }
    return Subgraph(std::move(ops), anchor);
}

} // namespace tlp::ir
