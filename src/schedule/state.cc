#include "schedule/state.h"

#include <algorithm>

namespace tlp::sched {

namespace {

/** Most parts one split may produce, and most loops reorder/fuse may
 *  name in one recorded step (replay stages them on the stack). */
constexpr int kMaxSplitLengths = 16;
constexpr int kMaxStepLoops = 64;

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/** Move @p need points of coverage from the innermost end of @p cov to
 *  @p taken (outer -> inner). */
void
consumeCoverage(Coverage &cov, int64_t need, Coverage &taken)
{
    while (need > 1 && !cov.empty()) {
        CoverEntry &last = cov.back();
        const int64_t take = std::min(last.extent, need);
        taken.push_front({last.iter, take});
        if (take >= last.extent) {
            cov.pop_back();
        } else {
            last.extent = ceilDiv(last.extent, take);
        }
        need = ceilDiv(need, take);
    }
}

ir::AccessDim
singleDim(int iter, int64_t coef = 1)
{
    ir::AccessDim dim;
    dim.terms.push_back({iter, coef});
    return dim;
}

/** Replace @p iters with the untransformed loops of @p spec. */
void
resetIters(const ir::LoopSpec &spec, std::vector<Iterator> &iters)
{
    iters.clear();
    iters.reserve(spec.iters.size());
    for (size_t j = 0; j < spec.iters.size(); ++j) {
        const ir::IterSpec &spec_iter = spec.iters[j];
        Iterator &iter = iters.emplace_back();
        iter.name = IterName::original(static_cast<int>(j));
        iter.extent = spec_iter.extent;
        iter.is_reduction = spec_iter.is_reduction;
        iter.coverage.push_back({static_cast<int>(j), spec_iter.extent});
    }
}

} // namespace

IterName
IterName::original(int spec_iter)
{
    TLP_CHECK(spec_iter >= 0 && spec_iter < kPart,
              "iterator index out of range: ", spec_iter);
    IterName name;
    name.tokens_.push_back(static_cast<uint8_t>(spec_iter));
    return name;
}

IterName
IterName::part(int part) const
{
    TLP_CHECK(part >= 0 && part < kJoint - kPart,
              "split part out of range: ", part);
    IterName name = *this;
    name.tokens_.push_back(static_cast<uint8_t>(kPart | part));
    return name;
}

void
IterName::fuseWith(const IterName &inner)
{
    tokens_.push_back(kJoint);
    for (uint8_t token : inner.tokens_)
        tokens_.push_back(token);
}

void
IterName::render(const ir::LoopSpec &spec, std::string &out) const
{
    for (uint8_t token : tokens_) {
        if (token == kJoint) {
            out += '@';
        } else if (token & kPart) {
            out += '.';
            out += std::to_string(token & ~kPart);
        } else {
            out += spec.iters.at(token).name;
        }
    }
}

int64_t
Stage::totalExtent() const
{
    int64_t total = 1;
    for (const Iterator &iter : iters)
        total *= iter.extent;
    return total;
}

std::string
Stage::iterName(int iter) const
{
    std::string name;
    iters.at(static_cast<size_t>(iter)).name.render(*spec, name);
    return name;
}

State::State(ir::SubgraphPtr subgraph, bool is_gpu)
    : subgraph_(std::move(subgraph)), is_gpu_(is_gpu)
{
    TLP_CHECK(subgraph_ != nullptr, "null subgraph");
    const auto &ops = subgraph_->ops();
    stages_.resize(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
        Stage &stage = stages_[i];
        stage.op_index = static_cast<int>(i);
        stage.name = subgraph_->bufferName(static_cast<int>(i));
        stage.is_placeholder = ops[i].kind == ir::OpKind::Input ||
                               ops[i].kind == ir::OpKind::Constant;
        stage.spec = subgraph_->loopSpec(static_cast<int>(i));
        resetIters(*stage.spec, stage.iters);
    }
}

const Stage &
State::stage(int index) const
{
    TLP_CHECK(index >= 0 && index < numStages(), "bad stage index ", index);
    return stages_[static_cast<size_t>(index)];
}

Stage &
State::mutableStage(int index)
{
    TLP_CHECK(index >= 0 && index < numStages(), "bad stage index ", index);
    return stages_[static_cast<size_t>(index)];
}

Iterator &
State::mutableIter(int stage_idx, int iter_idx)
{
    Stage &st = mutableStage(stage_idx);
    TLP_CHECK(iter_idx >= 0 &&
                  iter_idx < static_cast<int>(st.iters.size()),
              "bad iterator index ", iter_idx, " in stage ", st.name);
    return st.iters[static_cast<size_t>(iter_idx)];
}

Primitive &
State::record(PrimKind kind, size_t num_params)
{
    Primitive &prim = steps_.prims.emplace_back();
    prim.kind = kind;
    prim.params.reserve(num_params);
    return prim;
}

int
State::doSplit(int stage_idx, int iter_idx, std::span<const int64_t> lengths)
{
    TLP_CHECK(!lengths.empty(), "split needs at least one length");
    Stage &st = mutableStage(stage_idx);
    const Iterator original = mutableIter(stage_idx, iter_idx);

    int64_t inner_prod = 1;
    for (int64_t len : lengths) {
        TLP_CHECK(len > 0, "split length must be positive");
        inner_prod *= len;
    }

    // The outer part stays at iter_idx; the k inner parts follow it.
    // Fill inner-first so coverage is consumed innermost-out.
    const size_t k = lengths.size();
    const auto at = st.iters.begin() + iter_idx;
    st.iters.insert(at + 1, k, Iterator{});
    Coverage cov = original.coverage;
    for (size_t j = k; j >= 1; --j) {
        Iterator &part = st.iters[static_cast<size_t>(iter_idx) + j];
        part.name = original.name.part(static_cast<int>(j));
        part.extent = lengths[j - 1];
        part.is_reduction = original.is_reduction;
        consumeCoverage(cov, lengths[j - 1], part.coverage);
    }
    Iterator &outer = st.iters[static_cast<size_t>(iter_idx)];
    outer.name = original.name.part(0);
    outer.extent = ceilDiv(original.extent, inner_prod);
    outer.ann = Annotation::None;
    outer.coverage = cov;
    return iter_idx;
}

int
State::split(int stage_idx, int iter_idx, const std::vector<int64_t> &lengths)
{
    return splitImpl(stage_idx, iter_idx, lengths);
}

int
State::splitImpl(int stage_idx, int iter_idx,
                 std::span<const int64_t> lengths)
{
    const Stage &st = stage(stage_idx);
    const Iterator &iter = st.iters.at(static_cast<size_t>(iter_idx));

    Primitive &prim = record(PrimKind::SP, 5 + lengths.size());
    prim.addNum(stage_idx);
    prim.addNum(iter_idx);
    prim.addNum(iter.extent);
    prim.addNum(static_cast<int64_t>(lengths.size()));
    for (int64_t len : lengths)
        prim.addNum(len);
    prim.addName(st.iterName(iter_idx));

    return doSplit(stage_idx, iter_idx, lengths);
}

int
State::followSplit(int stage_idx, int iter_idx, int src_step, int n_split)
{
    return followSplitImpl(PrimKind::FSP, stage_idx, iter_idx, src_step,
                           n_split);
}

int
State::followFusedSplit(int stage_idx, int iter_idx, int src_step,
                        int n_split)
{
    return followSplitImpl(PrimKind::FFSP, stage_idx, iter_idx, src_step,
                           n_split);
}

int
State::followSplitImpl(PrimKind kind, int stage_idx, int iter_idx,
                       int src_step, int n_split)
{
    TLP_CHECK(src_step >= 0 && src_step < steps_.size(), "bad ",
              primKindLongName(kind), " source step ", src_step);
    const Primitive &src = steps_.prims.at(static_cast<size_t>(src_step));
    TLP_CHECK(src.kind == PrimKind::SP, primKindLongName(kind),
              " source must be an SP step");
    const auto count = std::get<int64_t>(src.params.at(3));
    TLP_CHECK(n_split >= 1 && n_split <= count &&
                  n_split <= kMaxSplitLengths,
              "bad n_split ", n_split);
    // Use the innermost n_split lengths so the follower's inner tiles
    // match the source stage's inner tiles.
    int64_t lengths[kMaxSplitLengths];
    for (int j = 0; j < n_split; ++j) {
        lengths[j] = std::get<int64_t>(
            src.params.at(static_cast<size_t>(4 + count - n_split + j)));
    }

    Primitive &prim = record(kind, 4);
    prim.addNum(stage_idx);
    prim.addNum(iter_idx);
    prim.addNum(src_step);
    prim.addNum(n_split);

    return doSplit(stage_idx, iter_idx,
                   {lengths, static_cast<size_t>(n_split)});
}

void
State::reorder(int stage_idx, const std::vector<int> &order)
{
    reorderImpl(stage_idx, order);
}

void
State::reorderImpl(int stage_idx, std::span<const int> order)
{
    Stage &st = mutableStage(stage_idx);
    const size_t n = order.size();
    TLP_CHECK(n == st.iters.size(),
              "reorder must mention every iterator of ", st.name);
    TLP_CHECK(n <= kMaxStepLoops, "reorder of ", n, " loops");
    uint64_t seen = 0;
    for (int idx : order) {
        TLP_CHECK(idx >= 0 && idx < static_cast<int>(n) &&
                      !((seen >> idx) & 1),
                  "reorder is not a permutation");
        seen |= uint64_t{1} << idx;
    }
    // new[i] = old[order[i]], moved in place one permutation cycle at a
    // time.
    uint64_t placed = 0;
    for (size_t start = 0; start < n; ++start) {
        if ((placed >> start) & 1)
            continue;
        Iterator held = std::move(st.iters[start]);
        size_t dst = start;
        for (;;) {
            placed |= uint64_t{1} << dst;
            const auto src = static_cast<size_t>(order[dst]);
            if (src == start) {
                st.iters[dst] = std::move(held);
                break;
            }
            st.iters[dst] = std::move(st.iters[src]);
            dst = src;
        }
    }

    Primitive &prim = record(PrimKind::RE, 2 + n);
    prim.addNum(stage_idx);
    prim.addNum(static_cast<int64_t>(n));
    for (int idx : order)
        prim.addNum(idx);
}

int
State::fuse(int stage_idx, const std::vector<int> &iters)
{
    return fuseImpl(stage_idx, iters);
}

int
State::fuseImpl(int stage_idx, std::span<const int> iters)
{
    TLP_CHECK(!iters.empty(), "fuse needs iterators");
    Stage &st = mutableStage(stage_idx);
    for (size_t i = 1; i < iters.size(); ++i)
        TLP_CHECK(iters[i] == iters[i - 1] + 1,
                  "fuse expects contiguous iterators");
    const int first = iters.front();
    const int last = iters.back();
    TLP_CHECK(first >= 0 && last < static_cast<int>(st.iters.size()),
              "fuse iterator out of range");

    Iterator &fused = st.iters[static_cast<size_t>(first)];
    fused.ann = Annotation::None;
    for (int i = first + 1; i <= last; ++i) {
        const Iterator &part = st.iters[static_cast<size_t>(i)];
        fused.name.fuseWith(part.name);
        fused.extent *= part.extent;
        fused.is_reduction = fused.is_reduction || part.is_reduction;
        for (const CoverEntry &cov : part.coverage)
            fused.coverage.push_back(cov);
    }
    st.iters.erase(st.iters.begin() + first + 1,
                   st.iters.begin() + last + 1);

    Primitive &prim = record(PrimKind::FU, 2 + iters.size());
    prim.addNum(stage_idx);
    prim.addNum(static_cast<int64_t>(iters.size()));
    for (int idx : iters)
        prim.addNum(idx);
    return first;
}

void
State::computeAt(int stage_idx, int target, int target_iter)
{
    Stage &st = mutableStage(stage_idx);
    TLP_CHECK(target >= 0 && target < numStages(), "bad CA target");
    TLP_CHECK(target != stage_idx, "compute_at on itself");
    const Stage &tgt = stage(target);
    TLP_CHECK(target_iter >= 0 &&
                  target_iter < static_cast<int>(tgt.iters.size()),
              "bad CA target iterator");
    st.loc = ComputeLoc::At;
    st.at_stage = target;
    st.at_iter = target_iter;

    Primitive &prim = record(PrimKind::CA, 3);
    prim.addNum(stage_idx);
    prim.addNum(target);
    prim.addNum(target_iter);
}

void
State::computeInline(int stage_idx)
{
    Stage &st = mutableStage(stage_idx);
    TLP_CHECK(!st.is_placeholder, "cannot inline a placeholder");
    st.loc = ComputeLoc::Inlined;

    record(PrimKind::CI, 1).addNum(stage_idx);
}

void
State::computeRoot(int stage_idx)
{
    Stage &st = mutableStage(stage_idx);
    st.loc = ComputeLoc::Root;
    st.at_stage = -1;
    st.at_iter = -1;

    record(PrimKind::CR, 1).addNum(stage_idx);
}

int
State::cacheWrite(int stage_idx)
{
    Stage &st = mutableStage(stage_idx);
    TLP_CHECK(!st.is_placeholder && !st.is_cache_stage,
              "cache_write target must be a compute stage");
    // The write access must be purely spatial (holds for heavy anchors).
    for (const auto &access : st.spec->accesses) {
        if (!access.is_write)
            continue;
        for (const auto &dim : access.dims)
            for (const auto &[iter, coef] : dim.terms)
                TLP_CHECK(!st.spec->iters
                               .at(static_cast<size_t>(iter))
                               .is_reduction,
                          "cache_write on reduction-indexed output");
    }

    // The local stage takes over the computation, writing .local.
    Stage local = st;
    local.name = st.name + ".local";
    local.is_cache_stage = true;
    auto local_spec = std::make_shared<ir::LoopSpec>(*st.spec);
    for (auto &access : local_spec->accesses)
        if (access.is_write)
            access.buffer = local.name;
    local.spec = std::move(local_spec);

    // The original stage becomes a spatial copy-out of the local buffer.
    auto copy_spec = std::make_shared<ir::LoopSpec>();
    std::vector<ir::AccessDim> out_dims;
    for (const ir::IterSpec &iter : st.spec->iters) {
        if (iter.is_reduction)
            continue;
        copy_spec->iters.push_back(iter);
        out_dims.push_back(
            singleDim(static_cast<int>(copy_spec->iters.size()) - 1));
    }
    ir::AccessSpec read_local;
    read_local.buffer = local.name;
    read_local.elem_bytes = 4;
    read_local.is_write = false;
    read_local.dims = out_dims;
    ir::AccessSpec write_out;
    write_out.buffer = st.name;
    write_out.elem_bytes = 4;
    write_out.is_write = true;
    write_out.dims = std::move(out_dims);
    copy_spec->accesses = {std::move(read_local), std::move(write_out)};
    copy_spec->flops_per_point = 1.0;

    st.spec = std::move(copy_spec);
    resetIters(*st.spec, st.iters);
    stages_.push_back(std::move(local));

    Primitive &prim = record(PrimKind::CHW, 2);
    prim.addNum(stage_idx);
    prim.addName("local");
    return numStages() - 1;
}

int
State::cacheRead(int producer, int consumer)
{
    const Stage &prod = stage(producer);
    Stage &cons = mutableStage(consumer);
    TLP_CHECK(!cons.is_placeholder, "cache_read consumer must compute");

    Stage shared;
    shared.op_index = prod.op_index;
    shared.name = prod.name + ".shared";
    shared.is_cache_stage = true;

    const ir::Shape &shape = subgraph_->op(prod.op_index).out.shape;
    auto spec = std::make_shared<ir::LoopSpec>();
    std::vector<ir::AccessDim> dims;
    for (size_t j = 0; j < shape.size(); ++j) {
        spec->iters.push_back(
            {std::string("v").append(std::to_string(j)), shape[j], false});
        dims.push_back(singleDim(static_cast<int>(j)));
    }
    ir::AccessSpec read_src;
    read_src.buffer = prod.name;
    read_src.elem_bytes = 4;
    read_src.is_write = false;
    read_src.dims = dims;
    ir::AccessSpec write_shared;
    write_shared.buffer = shared.name;
    write_shared.elem_bytes = 4;
    write_shared.is_write = true;
    write_shared.dims = std::move(dims);
    spec->accesses = {std::move(read_src), std::move(write_shared)};
    spec->flops_per_point = 0.0;
    shared.spec = std::move(spec);
    resetIters(*shared.spec, shared.iters);

    auto redirect = std::find_if(
        cons.redirects.begin(), cons.redirects.end(),
        [&](const auto &entry) { return entry.first == prod.name; });
    if (redirect == cons.redirects.end())
        cons.redirects.emplace_back(prod.name, shared.name);
    else
        redirect->second = shared.name;
    stages_.push_back(std::move(shared));

    Primitive &prim = record(PrimKind::CHR, 3);
    prim.addNum(producer);
    prim.addNum(consumer);
    prim.addName("shared");
    return numStages() - 1;
}

int
State::rfactor(int stage_idx, int iter_idx)
{
    Stage &st = mutableStage(stage_idx);
    const Iterator &factored = st.iters.at(static_cast<size_t>(iter_idx));
    TLP_CHECK(factored.is_reduction, "rfactor needs a reduction iterator");
    const int64_t partials = factored.extent;

    // The partial stage computes per-partial results into .rf, indexed
    // additionally by the factored iterator's original iterators.
    Stage rf = st;
    rf.name = st.name + ".rf";
    rf.is_cache_stage = true;
    rf.iters[static_cast<size_t>(iter_idx)].is_reduction = false;
    auto rf_spec = std::make_shared<ir::LoopSpec>(*st.spec);
    for (auto &access : rf_spec->accesses) {
        if (!access.is_write)
            continue;
        access.buffer = rf.name;
        for (const CoverEntry &cov : factored.coverage)
            access.dims.push_back(singleDim(cov.iter));
    }
    rf.spec = std::move(rf_spec);

    // Rebuild the original stage as the final reduction over partials.
    auto final_spec = std::make_shared<ir::LoopSpec>();
    std::vector<ir::AccessDim> spatial_dims;
    for (const ir::IterSpec &spec_iter : st.spec->iters) {
        if (spec_iter.is_reduction)
            continue;
        final_spec->iters.push_back(spec_iter);
        spatial_dims.push_back(
            singleDim(static_cast<int>(final_spec->iters.size()) - 1));
    }
    final_spec->iters.push_back({"rfr", partials, true});
    std::vector<ir::AccessDim> read_dims = spatial_dims;
    read_dims.push_back(
        singleDim(static_cast<int>(final_spec->iters.size()) - 1));

    ir::AccessSpec read_rf;
    read_rf.buffer = rf.name;
    read_rf.elem_bytes = 4;
    read_rf.is_write = false;
    read_rf.dims = std::move(read_dims);
    ir::AccessSpec write_out;
    write_out.buffer = st.name;
    write_out.elem_bytes = 4;
    write_out.is_write = true;
    write_out.dims = std::move(spatial_dims);
    final_spec->accesses = {std::move(read_rf), std::move(write_out)};
    final_spec->flops_per_point = 1.0;

    st.spec = std::move(final_spec);
    resetIters(*st.spec, st.iters);
    stages_.push_back(std::move(rf));

    Primitive &prim = record(PrimKind::RF, 2);
    prim.addNum(stage_idx);
    prim.addNum(iter_idx);
    return numStages() - 1;
}

void
State::annotate(int stage_idx, int iter_idx, Annotation ann)
{
    Iterator &iter = mutableIter(stage_idx, iter_idx);
    if (!is_gpu_) {
        TLP_CHECK(ann != Annotation::BlockX && ann != Annotation::ThreadX &&
                      ann != Annotation::VThread,
                  "GPU binding on a CPU schedule");
    }
    iter.ann = ann;

    Primitive &prim = record(PrimKind::AN, 4);
    prim.addNum(stage_idx);
    prim.addNum(iter_idx);
    prim.addNum(static_cast<int64_t>(ann));
    prim.addName(annotationName(ann));
}

void
State::pragmaUnroll(int stage_idx, int64_t max_step)
{
    mutableStage(stage_idx).pragma_unroll = max_step;

    Primitive &prim = record(PrimKind::PR, 3);
    prim.addNum(stage_idx);
    prim.addNum(max_step);
    prim.addName("auto_unroll_max_step");
}

void
State::storageAlign(int stage_idx, int64_t factor)
{
    mutableStage(stage_idx).storage_align = factor;

    Primitive &prim = record(PrimKind::SA, 2);
    prim.addNum(stage_idx);
    prim.addNum(factor);
}

void
State::applyRecorded(const Primitive &prim)
{
    auto num = [&](size_t i) {
        return std::get<int64_t>(prim.params.at(i));
    };
    auto index = [&](size_t i) { return static_cast<int>(num(i)); };
    // Count-prefixed lists are staged on the stack, not the heap.
    auto count = [&](size_t i, int64_t limit) {
        const int64_t n = num(i);
        TLP_CHECK(n >= 0 && n <= limit, "bad ", primKindName(prim.kind),
                  " list length ", n);
        return static_cast<size_t>(n);
    };
    switch (prim.kind) {
      case PrimKind::SP: {
        const size_t n = count(3, kMaxSplitLengths);
        int64_t lengths[kMaxSplitLengths];
        for (size_t j = 0; j < n; ++j)
            lengths[j] = num(4 + j);
        splitImpl(index(0), index(1), {lengths, n});
        break;
      }
      case PrimKind::FSP:
        followSplit(index(0), index(1), index(2), index(3));
        break;
      case PrimKind::FFSP:
        followFusedSplit(index(0), index(1), index(2), index(3));
        break;
      case PrimKind::RE:
      case PrimKind::FU: {
        const size_t n = count(1, kMaxStepLoops);
        int loops[kMaxStepLoops];
        for (size_t j = 0; j < n; ++j)
            loops[j] = index(2 + j);
        if (prim.kind == PrimKind::RE)
            reorderImpl(index(0), {loops, n});
        else
            fuseImpl(index(0), {loops, n});
        break;
      }
      case PrimKind::CA:
        computeAt(index(0), index(1), index(2));
        break;
      case PrimKind::CI:
        computeInline(index(0));
        break;
      case PrimKind::CR:
        computeRoot(index(0));
        break;
      case PrimKind::CHW:
        cacheWrite(index(0));
        break;
      case PrimKind::CHR:
        cacheRead(index(0), index(1));
        break;
      case PrimKind::RF:
        rfactor(index(0), index(1));
        break;
      case PrimKind::AN:
        annotate(index(0), index(1), static_cast<Annotation>(num(2)));
        break;
      case PrimKind::PR:
        pragmaUnroll(index(0), num(1));
        break;
      case PrimKind::SA:
        storageAlign(index(0), num(1));
        break;
      case PrimKind::NumKinds:
        TLP_PANIC("bad primitive");
    }
}

State
replaySteps(ir::SubgraphPtr subgraph, bool is_gpu, const PrimitiveSeq &seq)
{
    State state(std::move(subgraph), is_gpu);
    state.steps_.prims.reserve(seq.prims.size());
    for (const Primitive &prim : seq.prims)
        state.applyRecorded(prim);
    return state;
}

} // namespace tlp::sched
