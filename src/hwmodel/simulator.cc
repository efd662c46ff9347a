#include "hwmodel/simulator.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "support/rng.h"
#include "support/str_util.h"

namespace tlp::hw {

using sched::Annotation;
using sched::ComputeLoc;
using sched::LoweredLoop;
using sched::LoweredNest;
using sched::LoweredStage;

namespace {

/** True for buffers that never round-trip to DRAM / global memory. */
bool
isSyntheticBuffer(const std::string &buffer)
{
    return endsWith(buffer, ".local") || endsWith(buffer, ".shared") ||
           endsWith(buffer, ".rf");
}

/** Smallest loop depth whose working set fits in @p capacity (or -1 if
 *  the whole stage fits; loops.size()-1 if only the innermost body). */
int
fitDepth(const LoweredStage &stage, double capacity)
{
    const int n = static_cast<int>(stage.loops.size());
    for (int d = -1; d < n; ++d) {
        if (stage.footprintBytesBelow(d) <= capacity)
            return d;
    }
    return n - 1;
}

/**
 * Bytes transferred through a cache of @p capacity: every tile that fits
 * below the fit depth is fetched once per execution of that depth.
 * Buffers accepted by @p include contribute; others are counted as
 * resident (they still consume capacity via fitDepth).
 */
template <typename Pred>
double
trafficBytes(const LoweredStage &stage, double capacity, Pred include)
{
    const int d = fitDepth(stage, capacity);
    const auto tiles = stage.tileExtentsBelow(d);
    const double trips = static_cast<double>(stage.iterationsDownTo(d));
    double bytes = 0.0;
    for (const auto &access : stage.spec->accesses) {
        if (!include(stage.resolveBuffer(access.buffer)))
            continue;
        bytes += trips *
                 static_cast<double>(access.footprintElems(tiles)) *
                 access.elem_bytes;
    }
    return bytes;
}

/** Innermost vectorize annotation: (lanes requested, is innermost). */
std::pair<int64_t, bool>
vectorInfo(const LoweredStage &stage)
{
    for (int q = static_cast<int>(stage.loops.size()) - 1; q >= 0; --q) {
        const LoweredLoop &loop = stage.loops[static_cast<size_t>(q)];
        if (loop.ann == Annotation::Vectorize) {
            return {loop.extent,
                    q == static_cast<int>(stage.loops.size()) - 1};
        }
    }
    return {1, false};
}

/** Original iterators appearing in the innermost (contiguous) dimension
 *  of each access of @p stage. */
std::set<int>
contiguousIters(const LoweredStage &stage)
{
    std::set<int> iters;
    for (const auto &access : stage.spec->accesses) {
        if (access.dims.empty())
            continue;
        for (const auto &[iter, coef] : access.dims.back().terms)
            if (coef == 1)
                iters.insert(iter);
    }
    return iters;
}

/**
 * True when the loop carrying @p ann spans a contiguous (unit-stride)
 * dimension of at least one buffer. SIMD lanes and coalesced warps both
 * need unit-stride access; hand-engineered feature summaries record the
 * vector length but not *which* dimension it spans.
 */
bool
annotationIsContiguous(const LoweredStage &stage, Annotation ann)
{
    const auto contiguous = contiguousIters(stage);
    for (const LoweredLoop &loop : stage.loops) {
        if (loop.ann != ann)
            continue;
        for (const auto &[orig, extent] : loop.coverage)
            if (contiguous.count(orig))
                return true;
        return false;
    }
    return true;   // no such loop: nothing to penalize
}

/**
 * Set-associativity aliasing: a buffer whose leading (row) stride is a
 * large power of two thrashes a physically indexed cache when a tile
 * spans many rows. Visible from the exact extents (TLP's features carry
 * them), invisible to per-statement summaries.
 */
double
aliasingPenalty(const LoweredStage &stage)
{
    for (const auto &access : stage.spec->accesses) {
        if (access.dims.size() < 2)
            continue;
        // Full extent of the innermost dimension = row length.
        int64_t row = 1;
        for (const auto &[iter, coef] : access.dims.back().terms) {
            row += coef * (stage.spec->iters
                               .at(static_cast<size_t>(iter))
                               .extent -
                           1);
        }
        const int64_t row_bytes = row * access.elem_bytes;
        if (row_bytes >= 4096 && (row_bytes & (row_bytes - 1)) == 0) {
            // Tile spanning multiple rows conflicts in the cache.
            const auto tiles = stage.tileExtentsBelow(
                static_cast<int>(stage.loops.size()) / 2);
            int64_t rows_spanned = 1;
            for (size_t d = 0; d + 1 < access.dims.size(); ++d)
                for (const auto &[iter, coef] : access.dims[d].terms)
                    rows_spanned *=
                        tiles.at(static_cast<size_t>(iter));
            if (rows_spanned >= 8)
                return 1.35;
        }
    }
    return 1.0;
}

/** Product of extents of loops with annotation @p ann. */
double
annotatedExtent(const LoweredStage &stage, Annotation ann)
{
    double product = 1.0;
    for (const LoweredLoop &loop : stage.loops)
        if (loop.ann == ann)
            product *= static_cast<double>(loop.extent);
    return product;
}

/** Walk the attach chain to the root stage index. */
int
rootOf(const LoweredNest &nest, int stage_index)
{
    int current = stage_index;
    int hops = 0;
    while (nest.stages[static_cast<size_t>(current)].loc ==
               ComputeLoc::At &&
           hops++ < 16) {
        current = nest.stages[static_cast<size_t>(current)].at_stage;
    }
    return current;
}

/**
 * acc + w * x, fused where the target has FMA. wiggle's sums fuse every
 * step there (Simulator.LatencyBitsGolden pins their bits); written
 * `acc += w * x`, its loops over stored weights would vectorise into
 * rounded products instead.
 */
inline double
mulAdd(double w, double x, double acc)
{
#if defined(__FMA__)
    return std::fma(w, x, acc);
#else
    return acc + w * x;
#endif
}

} // namespace

LatencySimulator::LatencySimulator(HardwarePlatform hw) : hw_(std::move(hw))
{
    Rng wrng(hashCombine(hw_.quirk_seed, 0xfeedbeef));
    for (double &w : hidden_weights_)
        w = wrng.normal(0.0, 1.0 / 8.0);
    for (double &w : output_weights_)
        w = wrng.normal(0.0, 1.0);
}

double
LatencySimulator::cpuStageTime(const LoweredNest &nest,
                               const LoweredStage &stage,
                               const StageExtras &extras,
                               double parallel) const
{
    // --- compute time ---
    const double points = static_cast<double>(stage.spec->totalPoints());
    const double iterations = static_cast<double>(stage.totalIterations());
    const double imperfect =
        points > 0 ? std::max(1.0, iterations / points) : 1.0;
    double flops = points * stage.spec->flops_per_point + extras.flops;
    flops = std::max(flops, points);   // at least one op per point

    // SIMD efficiency.
    const auto [vlen, innermost] = vectorInfo(stage);
    double simd = 1.0;
    if (vlen > 1) {
        const int64_t lanes = hw_.vector_lanes;
        simd = static_cast<double>(std::min<int64_t>(vlen, lanes));
        if (vlen > lanes && vlen % lanes != 0)
            simd *= 0.75;   // remainder loop
        if (!innermost)
            simd *= 0.5;    // strided vector access
        // Vector lanes only stream when the vectorized loop spans a
        // unit-stride buffer dimension; otherwise it's gather/scatter.
        if (!annotationIsContiguous(stage, Annotation::Vectorize))
            simd *= 0.35;
        simd = std::max(1.0, simd * 0.95);
    }

    // Loop overhead vs. unrolling; i-cache pressure past the sweet spot.
    const double u = static_cast<double>(stage.pragma_unroll);
    double overhead = 1.0 + 0.35 / (1.0 + u / 8.0);
    if (u > hw_.unroll_sweet_spot) {
        overhead *= 1.0 + 0.06 * std::log2(u / hw_.unroll_sweet_spot + 1.0);
    }

    // Parallel speedup with tail imbalance.
    double speedup = 1.0;
    if (parallel > 1.0) {
        const double cores = static_cast<double>(hw_.cores);
        const double chunks = std::ceil(parallel / cores);
        speedup = std::max(1.0, parallel / chunks);
    }

    const double core_flops = hw_.coreGflops() * 1e9;
    const double compute_time =
        flops * imperfect * overhead / (core_flops * simd * speedup);

    // --- memory time: capacity model at L2 / L3 / DRAM ---
    auto any_buffer = [](const std::string &) { return true; };
    auto dram_buffer = [](const std::string &buffer) {
        return !isSyntheticBuffer(buffer);
    };
    const double l2_traffic = trafficBytes(
        stage, static_cast<double>(hw_.l1_bytes) * 0.8, any_buffer);
    const double l3_traffic = trafficBytes(
        stage, static_cast<double>(hw_.l2_bytes) * 0.8, any_buffer);
    double dram_traffic = trafficBytes(
        stage, static_cast<double>(hw_.l3_bytes) * 0.8, dram_buffer);
    dram_traffic += extras.stream_bytes;

    const double alias = aliasingPenalty(stage);
    const double cache_frac =
        std::min(parallel, static_cast<double>(hw_.cores)) /
        static_cast<double>(hw_.cores);
    const double frac = std::max(cache_frac, 1.0 / hw_.cores);
    const double l2_time =
        alias * l2_traffic / (hw_.l1_bw_gbs * 1e9 * frac);
    const double l3_time =
        alias * l3_traffic / (hw_.l2_bw_gbs * 1e9 * frac);
    const double dram_time = dram_traffic / (hw_.dram_bw_gbs * 1e9);

    return std::max({compute_time, l2_time, l3_time, dram_time});
}

double
LatencySimulator::cpuGroupTime(const LoweredNest &nest, int root,
                               const std::vector<StageExtras> &extras) const
{
    const LoweredStage &root_stage =
        nest.stages[static_cast<size_t>(root)];

    double total = 0.0;
    bool has_parallel = false;
    for (const LoweredStage &stage : nest.stages) {
        if (stage.is_placeholder || stage.loc == ComputeLoc::Inlined)
            continue;
        if (rootOf(nest, stage.index) != root)
            continue;

        // Parallelism: the binding loops live on the stage itself or on
        // the consumer chain above the attach point.
        double parallel = annotatedExtent(stage, Annotation::Parallel);
        int cursor = stage.index;
        while (nest.stages[static_cast<size_t>(cursor)].loc ==
               ComputeLoc::At) {
            const LoweredStage &at =
                nest.stages[static_cast<size_t>(cursor)];
            const LoweredStage &target =
                nest.stages[static_cast<size_t>(at.at_stage)];
            for (int q = 0; q <= at.at_iter &&
                            q < static_cast<int>(target.loops.size());
                 ++q) {
                if (target.loops[static_cast<size_t>(q)].ann ==
                    Annotation::Parallel) {
                    parallel *= static_cast<double>(
                        target.loops[static_cast<size_t>(q)].extent);
                }
            }
            cursor = at.at_stage;
        }
        if (parallel > 1.0)
            has_parallel = true;
        total += cpuStageTime(nest, stage,
                              extras[static_cast<size_t>(stage.index)],
                              parallel);
    }
    if (has_parallel)
        total += hw_.parallel_overhead_us * 1e-6;
    (void)root_stage;
    return total;
}

double
LatencySimulator::gpuKernelTime(const LoweredNest &nest, int root,
                                const std::vector<StageExtras> &extras) const
{
    const LoweredStage &binder = nest.stages[static_cast<size_t>(root)];
    double grid = annotatedExtent(binder, Annotation::BlockX);
    double threads = annotatedExtent(binder, Annotation::ThreadX);
    double vthreads = annotatedExtent(binder, Annotation::VThread);
    grid = std::max(grid, 1.0);
    threads = std::max(threads, 1.0);
    vthreads = std::max(vthreads, 1.0);

    double total_flops = 0.0;
    double gmem_traffic = 0.0;
    double smem_traffic = 0.0;
    double shared_bytes_per_block = 0.0;
    double sync_penalty = 1.0;
    bool unaligned_shared = false;

    for (const LoweredStage &stage : nest.stages) {
        if (stage.is_placeholder || stage.loc == ComputeLoc::Inlined)
            continue;
        if (rootOf(nest, stage.index) != root)
            continue;
        const StageExtras &extra =
            extras[static_cast<size_t>(stage.index)];

        const double points =
            static_cast<double>(stage.spec->totalPoints());
        const double iterations =
            static_cast<double>(stage.totalIterations());
        const double imperfect =
            points > 0 ? std::max(1.0, iterations / points) : 1.0;
        double flops =
            std::max(points * stage.spec->flops_per_point + extra.flops,
                     points);
        total_flops += flops * imperfect;

        // Cross-thread reductions (threadIdx bound to a reduction loop).
        double local_threads = 1.0;
        for (const LoweredLoop &loop : stage.loops) {
            if (loop.ann == Annotation::ThreadX) {
                local_threads *= static_cast<double>(loop.extent);
                if (loop.is_reduction) {
                    sync_penalty = std::max(
                        sync_penalty,
                        1.0 + 0.05 * std::log2(
                                  static_cast<double>(loop.extent) + 1.0));
                }
            }
        }
        if (stage.index != root && local_threads > 1.0)
            threads = std::max(threads, local_threads);

        const bool is_shared_stage = endsWith(stage.name, ".shared");
        if (is_shared_stage) {
            // Cooperative staging: global traffic accounted through the
            // consumer's redirected access below.
            if (stage.storage_align == 0)
                unaligned_shared = true;
            continue;
        }

        // Global traffic via the L2 capacity model; shared/local buffers
        // are excluded from global memory. Warps whose threadIdx loop
        // does not span a unit-stride dimension fetch uncoalesced.
        auto gmem_buffer = [](const std::string &buffer) {
            return !isSyntheticBuffer(buffer);
        };
        double coalesce = 1.0;
        const LoweredStage &binding_stage =
            stage.loc == ComputeLoc::At ? binder : stage;
        if (!annotationIsContiguous(binding_stage, Annotation::ThreadX))
            coalesce = 3.0;
        gmem_traffic += coalesce *
                        trafficBytes(stage,
                                     static_cast<double>(
                                         hw_.gpu_l2_bytes) * 0.8,
                                     gmem_buffer);

        // Accesses resolved to .shared buffers: their source tensors are
        // fetched from global memory once per attach-loop execution, and
        // re-read from shared memory every point.
        for (const auto &access : stage.spec->accesses) {
            const std::string &resolved =
                stage.resolveBuffer(access.buffer);
            if (!endsWith(resolved, ".shared"))
                continue;
            // Find the staging stage's attach depth within this stage.
            int attach_depth = 0;
            for (const LoweredStage &other : nest.stages) {
                if (other.name == resolved &&
                    other.loc == ComputeLoc::At &&
                    other.at_stage == stage.index) {
                    attach_depth = other.at_iter;
                }
            }
            const auto tiles = stage.tileExtentsBelow(attach_depth);
            const double tile_bytes =
                static_cast<double>(access.footprintElems(tiles)) *
                access.elem_bytes;
            gmem_traffic +=
                static_cast<double>(stage.iterationsDownTo(attach_depth)) *
                tile_bytes;
            shared_bytes_per_block += tile_bytes;
            smem_traffic += points * access.elem_bytes;
        }
    }

    // Occupancy and wave quantization.
    const double tpb = threads * vthreads;
    double blocks_per_sm = std::floor(
        static_cast<double>(hw_.max_threads_per_sm) / std::max(tpb, 1.0));
    blocks_per_sm = std::clamp(blocks_per_sm, 1.0, 16.0);
    const double sms = static_cast<double>(hw_.num_sms);
    const double waves = std::ceil(grid / (sms * blocks_per_sm));
    const double wave_eff =
        grid / std::max(1.0, waves * sms * blocks_per_sm);
    const double resident =
        std::min(grid, sms * blocks_per_sm) * std::max(tpb, 1.0);
    double occupancy = std::min(
        1.0, resident / (sms * static_cast<double>(hw_.max_threads_per_sm) *
                         0.5));
    if (static_cast<int64_t>(threads) % hw_.warp_size != 0)
        occupancy *= 0.7;

    double util = std::max(0.02, occupancy * std::max(wave_eff, 0.25));
    const double compute_time =
        total_flops * sync_penalty / (hw_.gpu_gflops * 1e9 * util);
    const double gmem_time = gmem_traffic / (hw_.gmem_bw_gbs * 1e9);
    double smem_time = smem_traffic / (hw_.smem_bw_gbs * 1e9);
    if (unaligned_shared)
        smem_time *= 1.2;

    double time = std::max({compute_time, gmem_time, smem_time});
    if (shared_bytes_per_block >
        static_cast<double>(hw_.shared_mem_per_block)) {
        time *= 10.0;   // spills: effectively an invalid schedule
    }
    return time;
}

double
LatencySimulator::wiggle(const LoweredNest &nest) const
{
    // Two residual components model what real measurements contain on
    // top of any roofline analysis:
    //
    // 1. A *systematic microarchitectural residual*: a smooth,
    //    platform-specific random function of the exact loop structure
    //    (random-feature sketch of the program -> fixed random 2-layer
    //    net seeded by the platform). Because it is a function of the
    //    full structure, a model that sees the full structure (TLP's
    //    primitive sequences) can learn it, while lossy per-statement
    //    summaries alias many programs onto the same features and see
    //    only noise. This is the mechanism behind the paper's claim
    //    that hand-engineered features "fall short in many cases".
    //
    // 2. A small irreducible hash noise (run-to-run structure nobody
    //    can learn), keeping top-1 scores below 1.0 for every model.
    double z[kSketch] = {0.0};
    uint64_t pure = hw_.quirk_seed;

    auto sketchAdd = [&](uint64_t key, double value) {
        const uint64_t slot = hashCombine(hw_.quirk_seed, key);
        // Signed random-feature bucket.
        const double sign = (slot >> 32) & 1 ? 1.0 : -1.0;
        z[slot % kSketch] += sign * value;
    };

    for (const LoweredStage &stage : nest.stages) {
        if (stage.is_placeholder)
            continue;
        const uint64_t stage_key =
            fnv1a(stage.name.data(), stage.name.size());
        sketchAdd(hashCombine(stage_key, 1),
                  std::log1p(static_cast<double>(stage.pragma_unroll)));
        sketchAdd(hashCombine(stage_key, 2),
                  static_cast<double>(stage.loc));
        pure = hashCombine(pure, stage_key);
        pure = hashCombine(pure, static_cast<uint64_t>(stage.pragma_unroll));
        for (size_t q = 0; q < stage.loops.size(); ++q) {
            const LoweredLoop &loop = stage.loops[q];
            const uint64_t loop_key = hashCombine(
                stage_key, hashCombine(q, static_cast<uint64_t>(loop.ann)));
            sketchAdd(loop_key,
                      std::log1p(static_cast<double>(loop.extent)));
            for (const auto &[orig, extent] : loop.coverage) {
                sketchAdd(hashCombine(loop_key,
                                      static_cast<uint64_t>(orig) + 17),
                          std::log1p(static_cast<double>(extent)));
            }
            pure = hashCombine(pure, static_cast<uint64_t>(loop.extent));
            pure = hashCombine(pure, static_cast<uint64_t>(loop.ann));
        }
    }

    // Fixed random two-layer net over the sketch.
    double hidden_acts[kHiddenUnits];
    for (int i = 0; i < kHiddenUnits; ++i) {
        const double *w = hidden_weights_.data() + i * kSketch;
        double acc = 0.0;
        for (int j = 0; j < kSketch; ++j)
            acc = mulAdd(w[j], z[j], acc);
        hidden_acts[i] = std::tanh(acc);
    }
    double residual = 0.0;
    for (int i = 0; i < kHiddenUnits; ++i)
        residual = mulAdd(output_weights_[static_cast<size_t>(i)],
                          hidden_acts[i], residual);
    residual = std::tanh(residual / 3.0);   // in (-1, 1)

    Rng nrng(pure);
    return std::exp(0.22 * residual + nrng.normal(0.0, 0.02));
}

double
LatencySimulator::latencyMs(const LoweredNest &nest) const
{
    // Fold inlined stages into their consumers.
    std::vector<StageExtras> extras(nest.stages.size());
    for (const LoweredStage &stage : nest.stages) {
        if (stage.is_placeholder || stage.loc != ComputeLoc::Inlined)
            continue;
        // Find the stage reading this stage's buffer.
        int consumer = -1;
        for (const LoweredStage &other : nest.stages) {
            if (other.is_placeholder ||
                other.loc == ComputeLoc::Inlined ||
                other.index == stage.index) {
                continue;
            }
            for (const auto &access : other.spec->accesses) {
                if (!access.is_write &&
                    access.buffer == stage.name) {
                    consumer = other.index;
                    break;
                }
            }
            if (consumer >= 0)
                break;
        }
        if (consumer < 0)
            consumer = nest.stages.back().index;
        StageExtras &extra = extras[static_cast<size_t>(consumer)];
        const double points =
            static_cast<double>(stage.spec->totalPoints());
        extra.flops += points * stage.spec->flops_per_point;
        // Additional streamed operands (e.g. the residual side of an
        // inlined add) still come from memory.
        for (const auto &access : stage.spec->accesses) {
            if (access.is_write || access.buffer == stage.name)
                continue;
            const LoweredStage *producer = nullptr;
            for (const LoweredStage &other : nest.stages)
                if (other.name == access.buffer)
                    producer = &other;
            if (producer && producer->is_placeholder) {
                std::vector<int64_t> full;
                for (const auto &iter : stage.spec->iters)
                    full.push_back(iter.extent);
                extra.stream_bytes +=
                    static_cast<double>(access.footprintElems(full)) *
                    access.elem_bytes;
            }
        }
    }

    double total = 0.0;
    int kernels = 0;
    for (const LoweredStage &stage : nest.stages) {
        if (stage.is_placeholder || stage.loc != ComputeLoc::Root)
            continue;
        if (nest.is_gpu) {
            total += gpuKernelTime(nest, stage.index, extras);
            ++kernels;
        } else {
            total += cpuGroupTime(nest, stage.index, extras);
        }
    }
    // The structured residual applies to execution time only; kernel
    // launch overhead is a stable, deterministic cost.
    double latency = total * wiggle(nest);
    if (nest.is_gpu)
        latency += kernels * hw_.kernel_launch_us * 1e-6;
    return latency * 1e3;
}

} // namespace tlp::hw
