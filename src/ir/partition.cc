#include "ir/partition.h"

#include <map>

namespace tlp::ir {

namespace {

/** Mutable fusion group being assembled. */
struct Group
{
    std::vector<int> node_indices;   // indices into the source graph
    int anchor_local = -1;           // index within node_indices
    int tail = -1;                   // graph index of the last op (its output)
    int op_count = 0;                // non-input ops in the group
};

} // namespace

Workload
partitionGraph(const ComputeGraph &graph)
{
    const auto &nodes = graph.nodes();
    std::vector<int> group_of(nodes.size(), -1);
    std::vector<Group> groups;

    auto startGroup = [&](int node_idx, bool is_anchor) {
        Group group;
        group.node_indices.push_back(node_idx);
        group.anchor_local = is_anchor ? 0 : -1;
        group.tail = node_idx;
        group.op_count = 1;
        group_of[static_cast<size_t>(node_idx)] =
            static_cast<int>(groups.size());
        groups.push_back(std::move(group));
    };

    for (size_t i = 0; i < nodes.size(); ++i) {
        const OpNode &node = nodes[i];
        if (node.kind == OpKind::Input || node.kind == OpKind::Constant)
            continue;

        if (isHeavyAnchor(node.kind) || isMediumAnchor(node.kind)) {
            startGroup(static_cast<int>(i), true);
            continue;
        }

        // Fusable op: try to join the group whose tail feeds it.
        int join = -1;
        for (int input : node.inputs) {
            const OpNode &producer = nodes[static_cast<size_t>(input)];
            if (producer.kind == OpKind::Input ||
                producer.kind == OpKind::Constant) {
                continue;
            }
            const int g = group_of[static_cast<size_t>(input)];
            if (g >= 0 && groups[static_cast<size_t>(g)].tail == input &&
                groups[static_cast<size_t>(g)].op_count < kMaxGroupOps) {
                join = g;
                break;
            }
        }
        if (join >= 0) {
            Group &group = groups[static_cast<size_t>(join)];
            group.node_indices.push_back(static_cast<int>(i));
            group.tail = static_cast<int>(i);
            group.op_count += 1;
            group_of[i] = join;
        } else {
            startGroup(static_cast<int>(i), false);
        }
    }

    // Convert groups to subgraphs: remap indices, inserting Input nodes
    // for any out-of-group operands.
    std::map<std::string, size_t> dedup;   // key -> index in workload
    Workload workload;
    workload.name = graph.name();

    for (const Group &group : groups) {
        std::vector<OpNode> local_ops;
        std::map<int, int> local_index;   // graph index -> local index

        auto ensureLocal = [&](int graph_idx) -> int {
            auto it = local_index.find(graph_idx);
            if (it != local_index.end())
                return it->second;
            // Materialize an Input or Constant placeholder.
            const OpNode &src = nodes[static_cast<size_t>(graph_idx)];
            OpNode placeholder;
            placeholder.kind = src.kind == OpKind::Constant
                                   ? OpKind::Constant
                                   : OpKind::Input;
            placeholder.out = src.out;
            local_ops.push_back(std::move(placeholder));
            const int local = static_cast<int>(local_ops.size()) - 1;
            local_index[graph_idx] = local;
            return local;
        };

        int anchor_local_final = -1;
        for (size_t pos = 0; pos < group.node_indices.size(); ++pos) {
            const int graph_idx = group.node_indices[pos];
            const OpNode &src = nodes[static_cast<size_t>(graph_idx)];
            OpNode copy = src;
            copy.inputs.clear();
            for (int input : src.inputs) {
                const int g = group_of[static_cast<size_t>(input)];
                const bool in_group =
                    g >= 0 &&
                    &groups[static_cast<size_t>(g)] == &group &&
                    local_index.count(input) > 0;
                copy.inputs.push_back(in_group ? local_index[input]
                                               : ensureLocal(input));
            }
            local_ops.push_back(std::move(copy));
            const int local = static_cast<int>(local_ops.size()) - 1;
            local_index[graph_idx] = local;
            if (static_cast<int>(pos) == group.anchor_local)
                anchor_local_final = local;
        }

        // Deduplicate before building: a Subgraph builds its naive
        // program, which a repeat would only throw away.
        const std::string key =
            Subgraph::keyOf(local_ops, anchor_local_final);
        auto it = dedup.find(key);
        if (it != dedup.end()) {
            workload.weights[it->second] += 1;
            continue;
        }
        auto subgraph = std::make_shared<Subgraph>(std::move(local_ops),
                                                   anchor_local_final);
        if (subgraph->flops() == 0)
            continue;
        dedup[key] = workload.subgraphs.size();
        workload.subgraphs.push_back(std::move(subgraph));
        workload.weights.push_back(1);
    }

    return workload;
}

} // namespace tlp::ir
