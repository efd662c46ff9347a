/**
 * @file
 * Fusion partitioner: networks -> deduplicated fused subgraphs.
 *
 * Mirrors the fusion pass of deep-learning compilers (Fig. 1 of the TLP
 * paper): anchor operators open a group, downstream fusable elementwise /
 * injective ops join their producer's group, and groups are deduplicated
 * by canonical key with occurrence counts kept as weights.
 */
#pragma once

#include "ir/graph.h"
#include "ir/subgraph.h"

namespace tlp::ir {

/** Maximum number of ops fused into one group (excluding inputs). */
inline constexpr int kMaxGroupOps = 6;

/**
 * Partition @p graph into a Workload of deduplicated subgraphs.
 * Zero-FLOP subgraphs (pure reshape/transpose chains) are dropped.
 */
Workload partitionGraph(const ComputeGraph &graph);

} // namespace tlp::ir
