/**
 * @file
 * Iteration-space descriptions of subgraph operators.
 *
 * Every schedulable op exposes a LoopSpec: its loop iterators (spatial and
 * reduction) plus affine access patterns for each buffer it touches. Each
 * Subgraph builds its ops' LoopSpecs once (Subgraph::loopSpec); the
 * scheduler builds its initial State from them, and the hardware
 * latency model evaluates tile footprints through the access patterns.
 *
 * An access dimension is the affine form  extent(dim) = Σ coef·(tile_i-1)+1
 * over iterator tile extents, which captures both plain indexing (coef 1)
 * and strided/windowed indexing (conv input rows: stride·oh + rh).
 */
#pragma once

#include <string>
#include <vector>

#include "ir/subgraph.h"

namespace tlp::ir {

/** One loop iterator of an op's compute definition. */
struct IterSpec
{
    std::string name;      ///< e.g. "i", "oc", "rh"
    int64_t extent = 1;
    bool is_reduction = false;
};

/** One dimension of a buffer access: affine terms (iter index, coef). */
struct AccessDim
{
    std::vector<std::pair<int, int64_t>> terms;
};

/** A buffer touched by the op. */
struct AccessSpec
{
    std::string buffer;    ///< producing node's buffer name
    int elem_bytes = 4;
    bool is_write = false;
    std::vector<AccessDim> dims;

    /** Elements touched when iterator @p i spans tile extent tiles[i]. */
    int64_t footprintElems(const std::vector<int64_t> &tile_extents) const;
};

/** Complete loop description of one op. */
struct LoopSpec
{
    std::vector<IterSpec> iters;
    std::vector<AccessSpec> accesses;
    /** FLOPs executed per innermost iteration point. */
    double flops_per_point = 1.0;

    /** Product of all iterator extents. */
    int64_t totalPoints() const;
};

/**
 * Loop description of op @p op_index within @p subgraph.
 * Placeholders (Input/Constant) yield an empty spec.
 */
LoopSpec describeLoops(const Subgraph &subgraph, int op_index);

} // namespace tlp::ir
