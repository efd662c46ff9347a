#include "sketch/policy.h"

#include <algorithm>
#include <set>

#include "sketch/tiles.h"

namespace tlp::sketch {

using sched::Annotation;
using sched::PrimKind;
using sched::Primitive;
using sched::State;

namespace {

/** Index of the first reduction iterator of @p stage; -1 if none. */
int
firstReduction(const State &state, int stage)
{
    const auto &iters = state.stage(stage).iters;
    for (size_t i = 0; i < iters.size(); ++i)
        if (iters[i].is_reduction)
            return static_cast<int>(i);
    return -1;
}

/** Number of leading spatial iterators of @p stage. */
int
numLeadingSpatial(const State &state, int stage)
{
    const auto &iters = state.stage(stage).iters;
    int count = 0;
    for (const auto &iter : iters) {
        if (iter.is_reduction)
            break;
        ++count;
    }
    return count;
}

/** Total extent of the reduction iterators of @p stage. */
int64_t
reductionPoints(const State &state, int stage)
{
    int64_t total = 1;
    for (const auto &iter : state.stage(stage).iters)
        if (iter.is_reduction)
            total *= iter.extent;
    return total;
}

} // namespace

SchedulePolicy::SchedulePolicy(ir::SubgraphPtr subgraph, bool is_gpu)
    : subgraph_(std::move(subgraph)), is_gpu_(is_gpu)
{
    TLP_CHECK(subgraph_ != nullptr, "null subgraph");
    anchor_stage_ = subgraph_->anchorIndex();
    output_stage_ = subgraph_->outputIndex();
}

int
SchedulePolicy::multiLevelTile(State &state, int stage, int s_parts,
                               int r_parts, Rng &rng,
                               std::vector<int> *spatial_split_steps) const
{
    const auto &iters = state.stage(stage).iters;
    const int n = static_cast<int>(iters.size());

    struct IterPlan
    {
        bool is_reduction;
        int64_t extent;
        int parts;
        int split_step = -1;
    };
    std::vector<IterPlan> plan;
    plan.reserve(static_cast<size_t>(n));
    for (const auto &iter : iters) {
        IterPlan p;
        p.is_reduction = iter.is_reduction;
        p.extent = iter.extent;
        const int target = iter.is_reduction ? r_parts : s_parts;
        p.parts = iter.extent > 1 ? target : 1;
        plan.push_back(p);
    }

    // Split right-to-left so earlier indices stay valid.
    for (int i = n - 1; i >= 0; --i) {
        IterPlan &p = plan[static_cast<size_t>(i)];
        if (p.parts <= 1)
            continue;
        const int64_t max_inner = p.is_reduction ? 32 : 16;
        auto lengths =
            sampleTileLengths(rng, p.extent, p.parts - 1, max_inner);
        state.split(stage, i, lengths);
        p.split_step = state.steps().size() - 1;
    }

    // Compute final positions: concat of parts per original iterator.
    std::vector<int> first_pos(static_cast<size_t>(n), 0);
    int pos = 0;
    for (int i = 0; i < n; ++i) {
        first_pos[static_cast<size_t>(i)] = pos;
        pos += plan[static_cast<size_t>(i)].parts;
    }
    const int total = pos;

    // Gather positions per level.
    std::vector<std::vector<int>> s_levels(static_cast<size_t>(s_parts));
    std::vector<std::vector<int>> r_levels(static_cast<size_t>(r_parts));
    std::vector<int> split_steps;
    for (int i = 0; i < n; ++i) {
        const IterPlan &p = plan[static_cast<size_t>(i)];
        auto &levels = p.is_reduction ? r_levels : s_levels;
        for (int j = 0; j < p.parts; ++j)
            levels[static_cast<size_t>(j)].push_back(
                first_pos[static_cast<size_t>(i)] + j);
        if (!p.is_reduction)
            split_steps.push_back(p.split_step);
    }

    // Interleaved order. CPU (s=4, r=2): S0 S1 R0 S2 R1 S3.
    // GPU (s=4, r=2):                    S0 S1 S2 R0 R1 S3.
    std::vector<int> order;
    auto push = [&](const std::vector<int> &level) {
        for (int idx : level)
            order.push_back(idx);
    };
    if (is_gpu_) {
        for (int l = 0; l + 1 < s_parts; ++l)
            push(s_levels[static_cast<size_t>(l)]);
        for (int l = 0; l < r_parts; ++l)
            push(r_levels[static_cast<size_t>(l)]);
        push(s_levels[static_cast<size_t>(s_parts - 1)]);
    } else {
        push(s_levels[0]);
        if (s_parts > 1)
            push(s_levels[1]);
        push(r_levels[0]);
        for (int l = 2; l < s_parts - 1; ++l) {
            push(s_levels[static_cast<size_t>(l)]);
            if (l - 1 < r_parts)
                push(r_levels[static_cast<size_t>(l - 1)]);
        }
        if (s_parts > 2)
            push(s_levels[static_cast<size_t>(s_parts - 1)]);
    }
    TLP_CHECK(static_cast<int>(order.size()) == total,
              "tile order lost loops");
    state.reorder(stage, order);

    if (spatial_split_steps)
        *spatial_split_steps = split_steps;
    return static_cast<int>(s_levels[0].size());
}

void
SchedulePolicy::inlineTails(State &state, int keep_stage) const
{
    for (int i = 0; i < state.numStages(); ++i) {
        const sched::Stage &st = state.stage(i);
        if (st.is_placeholder || st.is_cache_stage || i == keep_stage ||
            i == anchor_stage_) {
            continue;
        }
        if (st.op_index >= 0 &&
            ir::isFusable(subgraph_->op(st.op_index).kind)) {
            state.computeInline(i);
        }
    }
}

void
SchedulePolicy::scheduleHeavy(State &state, Rng &rng) const
{
    const bool has_tails = output_stage_ != anchor_stage_;
    int compute = anchor_stage_;
    int consumer = -1;

    // A consumer can only follow the compute stage's tiling if its leading
    // spatial iterators match (rank-changing tails such as reshape break
    // the correspondence).
    auto consumerCompatible = [&](int cons) {
        const auto &anchor_iters = state.stage(anchor_stage_).iters;
        const auto &cons_iters = state.stage(cons).iters;
        std::vector<int64_t> anchor_spatial, cons_spatial;
        for (const auto &iter : anchor_iters)
            if (!iter.is_reduction)
                anchor_spatial.push_back(iter.extent);
        for (const auto &iter : cons_iters)
            if (!iter.is_reduction)
                cons_spatial.push_back(iter.extent);
        return anchor_spatial == cons_spatial;
    };

    if (has_tails) {
        inlineTails(state, output_stage_);
        if (consumerCompatible(output_stage_)) {
            consumer = output_stage_;
        } else {
            // Schedule the incompatible output stage on its own.
            const int out = output_stage_;
            const int out_ns = numLeadingSpatial(state, out);
            if (out_ns > 1) {
                std::vector<int> all;
                for (int i = 0; i < out_ns; ++i)
                    all.push_back(i);
                state.fuse(out, all);
            }
            if (out_ns >= 1) {
                if (is_gpu_) {
                    const int64_t threads =
                        static_cast<int64_t>(32) << rng.randint(0, 3);
                    state.split(out, 0, {threads});
                    state.annotate(out, 0, Annotation::BlockX);
                    state.annotate(out, 1, Annotation::ThreadX);
                } else {
                    state.annotate(out, 0, Annotation::Parallel);
                }
            }
        }
    } else {
        const bool use_chw =
            is_gpu_ || (reductionPoints(state, anchor_stage_) >= 4 &&
                        rng.bernoulli(0.8));
        if (use_chw) {
            compute = state.cacheWrite(anchor_stage_);
            consumer = anchor_stage_;
        }
    }

    // Multi-level tile the compute stage.
    std::vector<int> split_steps;
    const int s_parts = 4;
    const int r_parts = 2;
    multiLevelTile(state, compute, s_parts, r_parts, rng, &split_steps);
    const int compute_first_red = firstReduction(state, compute);

    if (consumer >= 0) {
        const int ns = static_cast<int>(split_steps.size());
        if (is_gpu_) {
            // Fuse all consumer spatial loops, split to (block, thread,
            // vec), bind, and attach the compute stage at the thread loop.
            std::vector<int> all;
            const int cons_ns = numLeadingSpatial(state, consumer);
            for (int i = 0; i < cons_ns; ++i)
                all.push_back(i);
            if (all.size() > 1)
                state.fuse(consumer, all);
            const int innermost_step =
                ns > 0 ? split_steps[static_cast<size_t>(ns - 1)] : -1;
            if (innermost_step >= 0 && rng.bernoulli(0.5)) {
                state.followFusedSplit(consumer, 0, innermost_step, 2);
            } else {
                const int64_t threads =
                    static_cast<int64_t>(32)
                    << rng.randint(0, 3);   // 32..256
                state.split(consumer, 0, {threads, 2});
            }
            state.annotate(consumer, 0, Annotation::BlockX);
            state.annotate(consumer, 1, Annotation::ThreadX);
            if (rng.bernoulli(0.5))
                state.annotate(
                    consumer,
                    static_cast<int>(state.stage(consumer).iters.size()) - 1,
                    Annotation::Vectorize);
            state.computeAt(compute, consumer, 1);

            // Stage heavy inputs through shared memory.
            const ir::OpNode &anchor_op = subgraph_->anchor();
            for (int input : anchor_op.inputs) {
                if (!state.stage(input).is_placeholder)
                    continue;
                if (!rng.bernoulli(0.7))
                    continue;
                const int sh = state.cacheRead(input, compute);
                if (compute_first_red >= 0)
                    state.computeAt(sh, compute, compute_first_red);
                if (rng.bernoulli(0.3))
                    state.storageAlign(sh, 32);
            }
        } else {
            // Align consumer tiles with the compute stage's inner tiles.
            for (int i = ns - 1; i >= 0; --i) {
                const int step = split_steps[static_cast<size_t>(i)];
                if (step >= 0)
                    state.followSplit(consumer, i, step, 1);
            }
            // Reorder to [outers..., inners...], then fuse + parallel.
            std::vector<int> parts(static_cast<size_t>(ns), 1);
            for (int i = 0; i < ns; ++i)
                if (split_steps[static_cast<size_t>(i)] >= 0)
                    parts[static_cast<size_t>(i)] = 2;
            std::vector<int> order;
            int base = 0;
            std::vector<int> bases(static_cast<size_t>(ns));
            for (int i = 0; i < ns; ++i) {
                bases[static_cast<size_t>(i)] = base;
                order.push_back(base);
                base += parts[static_cast<size_t>(i)];
            }
            for (int i = 0; i < ns; ++i)
                if (parts[static_cast<size_t>(i)] == 2)
                    order.push_back(bases[static_cast<size_t>(i)] + 1);
            if (order.size() != state.stage(consumer).iters.size()) {
                // Trailing consumer loops (e.g. softmax writes) stay last.
                for (size_t q = order.size();
                     q < state.stage(consumer).iters.size(); ++q)
                    order.push_back(static_cast<int>(q));
            }
            state.reorder(consumer, order);
            std::vector<int> outers;
            for (int i = 0; i < ns; ++i)
                outers.push_back(i);
            if (outers.size() > 1)
                state.fuse(consumer, outers);
            state.annotate(consumer, 0, Annotation::Parallel);
            const int last = static_cast<int>(
                state.stage(consumer).iters.size()) - 1;
            if (last > 0 &&
                state.stage(consumer).iters[static_cast<size_t>(last)]
                        .extent <= 64 &&
                rng.bernoulli(0.9)) {
                state.annotate(consumer, last, Annotation::Vectorize);
            }
            if (rng.bernoulli(0.9)) {
                state.computeAt(compute, consumer, 0);
            } else {
                state.computeRoot(compute);
            }
        }
    } else {
        // Compute stage is the root: fuse + annotate it directly.
        const auto &iters = state.stage(compute).iters;
        int outer_spatial = 0;
        for (const auto &iter : iters) {
            if (iter.is_reduction)
                break;
            ++outer_spatial;
        }
        // The loops before the first reduction include tile levels S0,S1;
        // fuse only level-0 (heuristic: first half of leading spatial).
        const int fuse_count = std::max(1, outer_spatial / 2);
        std::vector<int> outers;
        for (int i = 0; i < fuse_count; ++i)
            outers.push_back(i);
        if (outers.size() > 1)
            state.fuse(compute, outers);
        if (is_gpu_) {
            const int64_t threads = static_cast<int64_t>(32)
                                    << rng.randint(0, 3);
            state.split(compute, 0, {threads});
            state.annotate(compute, 0, Annotation::BlockX);
            state.annotate(compute, 1, Annotation::ThreadX);
        } else {
            state.annotate(compute, 0, Annotation::Parallel);
        }
        const int last =
            static_cast<int>(state.stage(compute).iters.size()) - 1;
        const auto &last_iter =
            state.stage(compute).iters[static_cast<size_t>(last)];
        if (!is_gpu_ && !last_iter.is_reduction && last_iter.extent <= 64 &&
            rng.bernoulli(0.9)) {
            state.annotate(compute, last, Annotation::Vectorize);
        }
    }

    state.pragmaUnroll(compute, sampleUnrollStep(rng));
}

void
SchedulePolicy::scheduleMedium(State &state, Rng &rng) const
{
    const bool has_tails = output_stage_ != anchor_stage_;
    if (has_tails)
        inlineTails(state, output_stage_);
    const int stage = anchor_stage_;

    // Optional reduction factoring on CPU (large single reductions).
    int red = firstReduction(state, stage);
    if (!is_gpu_ && red >= 0 &&
        state.stage(stage).iters[static_cast<size_t>(red)].extent >= 256 &&
        rng.bernoulli(0.3)) {
        state.split(stage, red, {64});
        const int rf = state.rfactor(stage, red);
        state.annotate(rf, 0, Annotation::Parallel);
    }

    const int ns = numLeadingSpatial(state, stage);
    if (ns == 0)
        return;
    if (ns > 1) {
        std::vector<int> all;
        for (int i = 0; i < ns; ++i)
            all.push_back(i);
        state.fuse(stage, all);
    }

    if (is_gpu_) {
        red = firstReduction(state, stage);
        const auto &iters = state.stage(stage).iters;
        if (red >= 0 &&
            iters[static_cast<size_t>(red)].extent >= 64 &&
            rng.bernoulli(0.4)) {
            // Cross-thread reduction: block over space, threads over the
            // reduction.
            state.annotate(stage, 0, Annotation::BlockX);
            state.split(stage, red, {64});
            state.annotate(stage, red + 1, Annotation::ThreadX);
        } else {
            const int64_t threads =
                static_cast<int64_t>(32) << rng.randint(0, 3);
            state.split(stage, 0, {threads});
            state.annotate(stage, 0, Annotation::BlockX);
            state.annotate(stage, 1, Annotation::ThreadX);
        }
    } else {
        if (rng.bernoulli(0.5) &&
            state.stage(stage).iters[0].extent > 64) {
            state.split(stage, 0, {static_cast<int64_t>(8)
                                   << rng.randint(0, 3)});
        }
        state.annotate(stage, 0, Annotation::Parallel);
        red = firstReduction(state, stage);
        const int last =
            static_cast<int>(state.stage(stage).iters.size()) - 1;
        if (red < 0 && last > 0 &&
            state.stage(stage).iters[static_cast<size_t>(last)].extent <=
                64) {
            state.annotate(stage, last, Annotation::Vectorize);
        }
    }
    if (rng.bernoulli(0.4))
        state.pragmaUnroll(stage, sampleUnrollStep(rng));

    // Schedule the output stage if distinct from the anchor.
    if (has_tails) {
        const int out = output_stage_;
        const int out_ns = numLeadingSpatial(state, out);
        if (out_ns > 1) {
            std::vector<int> all;
            for (int i = 0; i < out_ns; ++i)
                all.push_back(i);
            state.fuse(out, all);
        }
        if (out_ns >= 1) {
            if (is_gpu_) {
                const int64_t threads =
                    static_cast<int64_t>(32) << rng.randint(0, 3);
                state.split(out, 0, {threads});
                state.annotate(out, 0, Annotation::BlockX);
                state.annotate(out, 1, Annotation::ThreadX);
            } else {
                state.annotate(out, 0, Annotation::Parallel);
            }
        }
    }
}

void
SchedulePolicy::scheduleElementwise(State &state, Rng &rng) const
{
    inlineTails(state, output_stage_);
    const int stage = output_stage_;
    const int ns = numLeadingSpatial(state, stage);
    if (ns == 0)
        return;
    if (ns > 1) {
        std::vector<int> all;
        for (int i = 0; i < ns; ++i)
            all.push_back(i);
        state.fuse(stage, all);
    }
    if (is_gpu_) {
        const int64_t threads = static_cast<int64_t>(32)
                                << rng.randint(0, 3);
        state.split(stage, 0, {threads});
        state.annotate(stage, 0, Annotation::BlockX);
        state.annotate(stage, 1, Annotation::ThreadX);
    } else {
        const int64_t vec = static_cast<int64_t>(4) << rng.randint(0, 3);
        if (state.stage(stage).iters[0].extent > vec) {
            state.split(stage, 0, {vec});
            state.annotate(stage, 1, Annotation::Vectorize);
        }
        state.annotate(stage, 0, Annotation::Parallel);
    }
}

State
SchedulePolicy::sampleRandom(Rng &rng) const
{
    State state(subgraph_, is_gpu_);
    if (anchor_stage_ >= 0 &&
        ir::isHeavyAnchor(subgraph_->anchor().kind)) {
        scheduleHeavy(state, rng);
    } else if (anchor_stage_ >= 0) {
        scheduleMedium(state, rng);
    } else {
        scheduleElementwise(state, rng);
    }
    return state;
}

std::vector<State>
SchedulePolicy::sampleInitPopulation(int n, Rng &rng) const
{
    std::vector<State> population;
    std::set<uint64_t> seen;
    int attempts = 0;
    while (static_cast<int>(population.size()) < n && attempts < 8 * n) {
        ++attempts;
        State state = sampleRandom(rng);
        const uint64_t h = state.steps().hash();
        if (seen.insert(h).second)
            population.push_back(std::move(state));
    }
    return population;
}

std::optional<State>
SchedulePolicy::mutate(const State &state, Rng &rng) const
{
    sched::PrimitiveSeq seq = state.steps();
    std::vector<size_t> mutable_steps;
    for (size_t i = 0; i < seq.prims.size(); ++i) {
        const PrimKind kind = seq.prims[i].kind;
        if (kind == PrimKind::SP || kind == PrimKind::PR)
            mutable_steps.push_back(i);
    }
    if (mutable_steps.empty())
        return std::nullopt;

    const size_t pick =
        mutable_steps[static_cast<size_t>(rng.randint(
            static_cast<int64_t>(mutable_steps.size())))];
    Primitive &prim = seq.prims[pick];
    if (prim.kind == PrimKind::SP) {
        const int64_t extent = std::get<int64_t>(prim.params.at(2));
        const auto count = std::get<int64_t>(prim.params.at(3));
        auto lengths = sampleTileLengths(rng, extent,
                                         static_cast<int>(count));
        for (int64_t j = 0; j < count; ++j)
            prim.params.at(4 + static_cast<size_t>(j)) =
                lengths[static_cast<size_t>(j)];
    } else {
        prim.params.at(1) = sampleUnrollStep(rng);
    }
    return sched::replaySteps(subgraph_, is_gpu_, seq);
}

} // namespace tlp::sketch
