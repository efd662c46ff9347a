/**
 * @file
 * Lowering: schedule State -> loop-nest program (LoweredNest).
 *
 * The LoweredNest is this library's stand-in for the generated tensor
 * program: per-stage ordered loops with annotations, attachment points
 * resolved, and access patterns ready for footprint queries. It is what
 * the hardware latency model executes analytically, what the Ansor-style
 * feature extractor (the TenSet-MLP baseline) summarizes, and what the
 * pretty-printer renders as pseudo code (paper Fig. 2, blue box).
 *
 * Note that TLP itself never needs this lowering — its features come
 * straight from the primitive sequence — which is exactly the source of
 * its tuning-speed advantage (paper Fig. 10).
 */
#pragma once

#include <string>
#include <vector>

#include "schedule/state.h"

namespace tlp::sched {

/** One concrete loop of a lowered stage. */
struct LoweredLoop
{
    std::string name;
    int64_t extent = 1;
    bool is_reduction = false;
    Annotation ann = Annotation::None;
    Coverage coverage;
};

/** One stage of the lowered program. */
struct LoweredStage
{
    int index = -1;                ///< stage index within the State
    std::string name;
    int op_index = -1;
    bool is_placeholder = false;
    bool is_cache_stage = false;

    ComputeLoc loc = ComputeLoc::Root;
    int at_stage = -1;
    int at_iter = -1;

    std::vector<LoweredLoop> loops;   ///< outer -> inner
    std::shared_ptr<const ir::LoopSpec> spec;   ///< shared with the State
    Redirects redirects;
    int64_t pragma_unroll = 0;
    int64_t storage_align = 0;

    /**
     * Tile extents of the stage's original iterators inside the body of
     * loop @p loop_index (-1 = outside all loops, i.e. full extents).
     */
    std::vector<int64_t> tileExtentsBelow(int loop_index) const;

    /** Bytes touched by all accesses inside the body of loop @p depth
     *  (-1 = the whole stage): the working set of one such tile. */
    double footprintBytesBelow(int depth) const;

    /** Product of loop extents at positions [0, loop_index]. */
    int64_t iterationsDownTo(int loop_index) const;

    /** Product of all loop extents. */
    int64_t totalIterations() const;

    /** Resolve a read buffer name through the redirects. */
    const std::string &resolveBuffer(const std::string &buffer) const;
};

/** The lowered tensor program for one subgraph. */
struct LoweredNest
{
    ir::SubgraphPtr subgraph;
    bool is_gpu = false;
    std::vector<LoweredStage> stages;

    /** Stages attached (compute_at) under @p stage_index, with the loop
     *  position they attach to. */
    std::vector<std::pair<int, int>> attachedTo(int stage_index) const;

    /** Pseudo-code rendering of the program. */
    std::string prettyPrint() const;

    /**
     * Stable structural hash of the lowered program: a function of the
     * subgraph identity plus every field the latency simulator reads.
     * Used as the per-candidate key for deterministic measurement-fault
     * injection and quarantine (hwmodel).
     */
    uint64_t fingerprint() const;
};

/** Lower @p state to its loop-nest program. */
LoweredNest lower(const State &state);

} // namespace tlp::sched
