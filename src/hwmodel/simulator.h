/**
 * @file
 * Analytic latency simulator: lowered program + platform -> latency.
 *
 * This is the reproduction's stand-in for running tensor programs on real
 * hardware (and therefore for the TenSet dataset's measured labels). The
 * model is a parallel roofline over the lowered loop nest:
 *
 *   - compute time from FLOPs, SIMD width & divisibility, parallel
 *     speedup with load imbalance, unroll sweet spots and i-cache
 *     penalties, and imperfect-tiling overcount;
 *   - memory time from tile footprints: for every cache level, the
 *     outermost loop depth whose working set fits determines how often
 *     each tile is re-fetched (classic capacity model), with cache-write
 *     locals / shared-memory stages short-circuiting DRAM traffic;
 *   - GPU kernels from grid/block bindings: occupancy, wave quantization,
 *     warp divisibility, shared-memory capacity and bank behaviour,
 *     cross-thread reductions, kernel launch overhead;
 *   - a small deterministic per-(platform, program) wiggle, which plays
 *     the role of irreducible measurement structure a cost model cannot
 *     explain.
 *
 * The three properties that drive the paper's headline results hold by
 * construction: latency is a function of (subgraph, primitive sequence,
 * platform); schedule choices interact non-linearly; and platforms
 * disagree on rankings.
 */
#pragma once

#include <array>

#include "hwmodel/platform.h"
#include "schedule/lower.h"

namespace tlp::hw {

/** Deterministic analytic latency model. */
class LatencySimulator
{
  public:
    explicit LatencySimulator(HardwarePlatform hw);

    const HardwarePlatform &platform() const { return hw_; }

    /** Latency of @p nest in milliseconds (deterministic). */
    double latencyMs(const sched::LoweredNest &nest) const;

  private:
    struct StageExtras
    {
        double flops = 0.0;         ///< folded from inlined producers
        double stream_bytes = 0.0;  ///< extra streamed operand traffic
    };

    double cpuGroupTime(const sched::LoweredNest &nest, int root,
                        const std::vector<StageExtras> &extras) const;
    double gpuKernelTime(const sched::LoweredNest &nest, int root,
                         const std::vector<StageExtras> &extras) const;
    double cpuStageTime(const sched::LoweredNest &nest,
                        const sched::LoweredStage &stage,
                        const StageExtras &extras, double parallel) const;
    double wiggle(const sched::LoweredNest &nest) const;

    /** Width of wiggle's random-feature sketch of a program. */
    static constexpr int kSketch = 64;
    /** Hidden units of wiggle's fixed random net. */
    static constexpr int kHiddenUnits = 24;

    HardwarePlatform hw_;
    /**
     * wiggle's net weights, drawn once from the platform's quirk_seed
     * stream: hidden unit i's input weights at [i * kSketch, ...), in
     * draw order, then the output weights.
     */
    std::array<double, kHiddenUnits * kSketch> hidden_weights_;
    std::array<double, kHiddenUnits> output_weights_;
};

} // namespace tlp::hw
