#include "features/ansor_features.h"

#include <algorithm>
#include <cmath>

namespace tlp::feat {

using sched::Annotation;
using sched::ComputeLoc;
using sched::LoweredNest;
using sched::LoweredStage;

namespace {

float
logf1p(double value)
{
    return static_cast<float>(std::log1p(std::max(0.0, value)));
}

/** Summarize one compute stage into kAnsorStageFeatures floats. */
void
stageFeatures(const LoweredNest &nest, const LoweredStage &stage,
              float *out)
{
    int idx = 0;
    auto put = [&](float value) {
        if (idx < kAnsorStageFeatures)
            out[idx++] = value;
    };

    const double points = static_cast<double>(stage.spec->totalPoints());
    const double iterations = static_cast<double>(stage.totalIterations());

    // --- computation group ---
    put(logf1p(points));
    put(logf1p(points * stage.spec->flops_per_point));
    put(static_cast<float>(stage.spec->flops_per_point));
    put(logf1p(iterations));
    put(points > 0 ? static_cast<float>(iterations / points) : 1.0f);
    put(static_cast<float>(stage.loops.size()));
    put(stage.loops.empty()
            ? 0.0f
            : logf1p(static_cast<double>(stage.loops.back().extent)));

    // --- annotation group ---
    double parallel = 1.0, vec = 1.0, unroll_loops = 0.0;
    double block = 1.0, thread = 1.0, vthread = 1.0;
    int vec_innermost = 0;
    for (size_t q = 0; q < stage.loops.size(); ++q) {
        const auto &loop = stage.loops[q];
        const double extent = static_cast<double>(loop.extent);
        switch (loop.ann) {
          case Annotation::Parallel:  parallel *= extent; break;
          case Annotation::Vectorize:
            vec *= extent;
            vec_innermost = q + 1 == stage.loops.size();
            break;
          case Annotation::Unroll:    unroll_loops += 1.0; break;
          case Annotation::BlockX:    block *= extent; break;
          case Annotation::ThreadX:   thread *= extent; break;
          case Annotation::VThread:   vthread *= extent; break;
          case Annotation::None:      break;
        }
    }
    put(logf1p(parallel));
    put(logf1p(vec));
    put(static_cast<float>(vec_innermost));
    put(static_cast<float>(unroll_loops));
    put(logf1p(static_cast<double>(stage.pragma_unroll)));
    put(logf1p(block));
    put(logf1p(thread));
    put(logf1p(vthread));
    put(static_cast<float>(stage.storage_align != 0));

    // --- memory access group ---
    int reads = 0, writes = 0;
    double touched = 0.0;
    const auto full = stage.tileExtentsBelow(-1);
    for (const auto &access : stage.spec->accesses) {
        (access.is_write ? writes : reads)++;
        touched += static_cast<double>(access.footprintElems(full)) *
                   access.elem_bytes;
    }
    put(static_cast<float>(reads));
    put(static_cast<float>(writes));
    put(logf1p(touched));
    const double flops = points * stage.spec->flops_per_point;
    put(static_cast<float>(flops / std::max(1.0, touched)));  // intensity

    // --- buffer-footprint group ---
    // One mid-depth working-set snapshot plus per-statement byte totals:
    // the per-statement summary style of Ansor's buffer-access group.
    // Deliberately lossy — the full tiling structure is not recoverable,
    // which is the limitation TLP's primitive-sequence features remove.
    const int depth_n = static_cast<int>(stage.loops.size());
    const int mid = std::max(0, depth_n / 2);
    put(logf1p(stage.footprintBytesBelow(std::min(depth_n - 1, mid))));
    put(logf1p(static_cast<double>(
        stage.iterationsDownTo(std::min(depth_n - 1, mid)))));
    put(static_cast<float>(depth_n));
    for (int pad = 0; pad < 6; ++pad)
        put(0.0f);

    // --- innermost statement group ---
    const auto inner_tiles =
        stage.tileExtentsBelow(static_cast<int>(stage.loops.size()) - 2);
    double inner_bytes = 0.0;
    for (const auto &access : stage.spec->accesses) {
        inner_bytes += static_cast<double>(
                           access.footprintElems(inner_tiles)) *
                       access.elem_bytes;
    }
    put(logf1p(inner_bytes));
    int reduction_loops = 0;
    for (const auto &loop : stage.loops)
        reduction_loops += loop.is_reduction;
    put(static_cast<float>(reduction_loops));
    put(static_cast<float>(stage.loc == ComputeLoc::At));
    put(static_cast<float>(stage.at_iter + 1));
    put(static_cast<float>(stage.is_cache_stage));
    put(static_cast<float>(stage.redirects.size()));

    // Aggregate loop statistics (Ansor-style: no raw loop-order dump —
    // per-statement summaries only).
    double spatial_extent = 1.0, reduction_extent = 1.0;
    double outer_extent = stage.loops.empty()
                              ? 1.0
                              : static_cast<double>(
                                    stage.loops.front().extent);
    int annotated_loops = 0;
    for (const auto &loop : stage.loops) {
        if (loop.is_reduction) {
            reduction_extent *= static_cast<double>(loop.extent);
        } else {
            spatial_extent *= static_cast<double>(loop.extent);
        }
        annotated_loops += loop.ann != Annotation::None;
    }
    put(logf1p(spatial_extent));
    put(logf1p(reduction_extent));
    put(logf1p(outer_extent));
    put(static_cast<float>(annotated_loops));
    put(logf1p(stage.footprintBytesBelow(
        static_cast<int>(stage.loops.size()) - 1)));

    while (idx < kAnsorStageFeatures)
        put(0.0f);
}

} // namespace

std::vector<float>
extractAnsorFeatures(const LoweredNest &nest)
{
    std::vector<float> features(static_cast<size_t>(kAnsorFeatureSize),
                                0.0f);

    // Rank compute stages by work, heaviest first.
    std::vector<const LoweredStage *> stages;
    double inlined_flops = 0.0;
    for (const auto &stage : nest.stages) {
        if (stage.is_placeholder)
            continue;
        if (stage.loc == ComputeLoc::Inlined) {
            inlined_flops += static_cast<double>(stage.spec->totalPoints()) *
                             stage.spec->flops_per_point;
            continue;
        }
        stages.push_back(&stage);
    }
    std::sort(stages.begin(), stages.end(),
              [](const LoweredStage *a, const LoweredStage *b) {
                  const double wa =
                      static_cast<double>(a->spec->totalPoints()) *
                      a->spec->flops_per_point;
                  const double wb =
                      static_cast<double>(b->spec->totalPoints()) *
                      b->spec->flops_per_point;
                  return wa > wb;
              });

    for (int s = 0; s < kAnsorStages &&
                    s < static_cast<int>(stages.size()); ++s) {
        stageFeatures(nest, *stages[s],
                      features.data() + s * kAnsorStageFeatures);
    }

    double total_flops = inlined_flops;
    for (const auto *stage : stages) {
        total_flops += static_cast<double>(stage->spec->totalPoints()) *
                       stage->spec->flops_per_point;
    }
    float *tail = features.data() + kAnsorStages * kAnsorStageFeatures;
    tail[0] = static_cast<float>(stages.size());
    tail[1] = static_cast<float>(std::log1p(total_flops));
    tail[2] = nest.is_gpu ? 1.0f : 0.0f;
    tail[3] = static_cast<float>(std::log1p(inlined_flops));
    return features;
}

} // namespace tlp::feat
