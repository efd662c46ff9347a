/**
 * @file
 * Schedule generation policy (Ansor-like sketch + random annotation).
 *
 * For each subgraph the policy generates complete schedules:
 *   - heavy anchors (dense/conv/batch_matmul) get multi-level tiling
 *     ("SSRSRS" on CPU; block/vthread/thread binding on GPU), optional
 *     cache_write, consumer fusion via follow_split, parallel/vectorize/
 *     unroll annotations, and inlining of elementwise tails;
 *   - medium anchors (pooling, softmax, reductions) get fused+parallel
 *     schedules with optional rfactor / cross-thread reduction;
 *   - elementwise subgraphs get fuse+split+parallel+vectorize.
 *
 * Random annotation fills tile sizes, unroll pragmas, and structure
 * choices, producing the search space the auto-tuner explores. Mutation
 * rewrites one recorded step and replays, as in Ansor's evolutionary
 * search.
 */
#pragma once

#include <optional>
#include <vector>

#include "schedule/state.h"
#include "support/rng.h"

namespace tlp::sketch {

/** Generates random schedules and mutations for one subgraph. */
class SchedulePolicy
{
  public:
    /** @param is_gpu selects the GPU sketch rules (bindings, shared
     *  staging) instead of CPU rules (parallel, vectorize). */
    SchedulePolicy(ir::SubgraphPtr subgraph, bool is_gpu);

    ir::SubgraphPtr subgraph() const { return subgraph_; }
    bool isGpu() const { return is_gpu_; }

    /** One random complete schedule. */
    sched::State sampleRandom(Rng &rng) const;

    /** @p n random schedules, deduplicated by primitive-sequence hash. */
    std::vector<sched::State> sampleInitPopulation(int n, Rng &rng) const;

    /**
     * Mutate one schedule: resample the lengths of one split step or the
     * unroll pragma, then replay. Returns nullopt when the schedule has
     * no mutable step.
     */
    std::optional<sched::State> mutate(const sched::State &state,
                                       Rng &rng) const;

  private:
    void scheduleHeavy(sched::State &state, Rng &rng) const;
    void scheduleMedium(sched::State &state, Rng &rng) const;
    void scheduleElementwise(sched::State &state, Rng &rng) const;
    void inlineTails(sched::State &state, int keep_stage) const;

    /**
     * Multi-level tile @p stage: split every spatial iterator into
     * @p s_parts parts and every reduction iterator into @p r_parts
     * parts, then reorder into the interleaved SSRSRS-style order.
     * @param[out] spatial_split_steps recorded SP step index per spatial
     *             iterator (for follow_split on the consumer).
     * @return number of spatial iterators.
     */
    int multiLevelTile(sched::State &state, int stage, int s_parts,
                       int r_parts, Rng &rng,
                       std::vector<int> *spatial_split_steps) const;

    ir::SubgraphPtr subgraph_;
    bool is_gpu_ = false;
    int anchor_stage_ = -1;
    int output_stage_ = -1;
};

} // namespace tlp::sketch
