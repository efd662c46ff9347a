#include "schedule/lower.h"

#include <algorithm>
#include <sstream>

#include "support/rng.h"

namespace tlp::sched {

std::vector<int64_t>
LoweredStage::tileExtentsBelow(int loop_index) const
{
    std::vector<int64_t> tiles(spec->iters.size(), 1);
    for (size_t q = static_cast<size_t>(loop_index + 1); q < loops.size();
         ++q) {
        for (const auto &[orig, extent] : loops[q].coverage) {
            if (orig >= 0 && orig < static_cast<int>(tiles.size()))
                tiles[static_cast<size_t>(orig)] *= extent;
        }
    }
    // Clamp: coverage may overcount on non-divisible splits.
    for (size_t i = 0; i < tiles.size(); ++i)
        tiles[i] = std::min(tiles[i], spec->iters[i].extent);
    return tiles;
}

double
LoweredStage::footprintBytesBelow(int depth) const
{
    const auto tiles = tileExtentsBelow(depth);
    double bytes = 0.0;
    for (const auto &access : spec->accesses) {
        bytes += static_cast<double>(access.footprintElems(tiles)) *
                 access.elem_bytes;
    }
    return bytes;
}

int64_t
LoweredStage::iterationsDownTo(int loop_index) const
{
    int64_t total = 1;
    for (int q = 0; q <= loop_index && q < static_cast<int>(loops.size());
         ++q) {
        total *= loops[static_cast<size_t>(q)].extent;
    }
    return total;
}

int64_t
LoweredStage::totalIterations() const
{
    return iterationsDownTo(static_cast<int>(loops.size()) - 1);
}

const std::string &
LoweredStage::resolveBuffer(const std::string &buffer) const
{
    for (const auto &[from, to] : redirects)
        if (from == buffer)
            return to;
    return buffer;
}

std::vector<std::pair<int, int>>
LoweredNest::attachedTo(int stage_index) const
{
    std::vector<std::pair<int, int>> attached;
    for (const LoweredStage &stage : stages) {
        if (stage.loc == ComputeLoc::At && stage.at_stage == stage_index)
            attached.push_back({stage.index, stage.at_iter});
    }
    return attached;
}

LoweredNest
lower(const State &state)
{
    LoweredNest nest;
    nest.subgraph = state.subgraph();
    nest.is_gpu = state.isGpu();
    nest.stages.reserve(static_cast<size_t>(state.numStages()));
    for (int i = 0; i < state.numStages(); ++i) {
        const Stage &src = state.stage(i);
        LoweredStage &dst = nest.stages.emplace_back();
        dst.index = i;
        dst.name = src.name;
        dst.op_index = src.op_index;
        dst.is_placeholder = src.is_placeholder;
        dst.is_cache_stage = src.is_cache_stage;
        dst.loc = src.loc;
        dst.at_stage = src.at_stage;
        dst.at_iter = src.at_iter;
        dst.spec = src.spec;
        dst.redirects = src.redirects;
        dst.pragma_unroll = src.pragma_unroll;
        dst.storage_align = src.storage_align;
        dst.loops.reserve(src.iters.size());
        for (const Iterator &iter : src.iters) {
            LoweredLoop &loop = dst.loops.emplace_back();
            iter.name.render(*src.spec, loop.name);
            loop.extent = iter.extent;
            loop.is_reduction = iter.is_reduction;
            loop.ann = iter.ann;
            loop.coverage = iter.coverage;
        }
    }
    return nest;
}

namespace {

std::string
annPrefix(Annotation ann)
{
    switch (ann) {
      case Annotation::None:      return "for";
      case Annotation::Parallel:  return "parallel for";
      case Annotation::Vectorize: return "vectorized for";
      case Annotation::Unroll:    return "unrolled for";
      case Annotation::BlockX:    return "for<blockIdx.x>";
      case Annotation::ThreadX:   return "for<threadIdx.x>";
      case Annotation::VThread:   return "for<vthread>";
    }
    return "for";
}

void
printStage(const LoweredNest &nest, int stage_index, int depth,
           std::ostringstream &os)
{
    const LoweredStage &stage =
        nest.stages[static_cast<size_t>(stage_index)];
    auto indent = [&](int d) { return std::string(static_cast<size_t>(d) * 2, ' '); };

    if (stage.pragma_unroll > 0) {
        os << indent(depth) << "#pragma auto_unroll_max_step="
           << stage.pragma_unroll << '\n';
    }

    const auto attached = nest.attachedTo(stage_index);
    for (size_t q = 0; q < stage.loops.size(); ++q) {
        const LoweredLoop &loop = stage.loops[q];
        os << indent(depth) << annPrefix(loop.ann) << ' ' << loop.name
           << " in 0.." << loop.extent << ":\n";
        ++depth;
        for (const auto &[child, at_iter] : attached) {
            if (at_iter == static_cast<int>(q))
                printStage(nest, child, depth, os);
        }
    }

    // Body statement.
    os << indent(depth) << stage.name << '[';
    bool first_read = true;
    std::string reads;
    for (const auto &access : stage.spec->accesses) {
        if (access.is_write)
            continue;
        if (!first_read)
            reads += ", ";
        reads += stage.resolveBuffer(access.buffer) + "[...]";
        first_read = false;
    }
    os << "...] = f(" << reads << ")\n";
}

} // namespace

uint64_t
LoweredNest::fingerprint() const
{
    uint64_t hash = fnv1a(subgraph->key().data(), subgraph->key().size());
    hash = hashCombine(hash, is_gpu ? 1 : 0);
    auto mix = [&hash](uint64_t value) { hash = hashCombine(hash, value); };
    for (const LoweredStage &stage : stages) {
        mix(fnv1a(stage.name.data(), stage.name.size()));
        mix(static_cast<uint64_t>(stage.op_index + 1));
        mix((stage.is_placeholder ? 1u : 0u) |
            (stage.is_cache_stage ? 2u : 0u) |
            (static_cast<uint64_t>(stage.loc) << 2));
        mix(static_cast<uint64_t>(stage.at_stage + 1));
        mix(static_cast<uint64_t>(stage.at_iter + 1));
        mix(static_cast<uint64_t>(stage.pragma_unroll));
        mix(static_cast<uint64_t>(stage.storage_align));
        for (const LoweredLoop &loop : stage.loops) {
            mix(static_cast<uint64_t>(loop.extent));
            mix((loop.is_reduction ? 1u : 0u) |
                (static_cast<uint64_t>(loop.ann) << 1));
            for (const auto &[iter, covered] : loop.coverage) {
                mix(static_cast<uint64_t>(iter + 1));
                mix(static_cast<uint64_t>(covered));
            }
        }
    }
    return hash;
}

std::string
LoweredNest::prettyPrint() const
{
    std::ostringstream os;
    os << "// subgraph " << subgraph->key() << (is_gpu ? " (gpu)" : " (cpu)")
       << '\n';
    for (const LoweredStage &stage : stages) {
        if (stage.is_placeholder)
            continue;
        if (stage.loc == ComputeLoc::Inlined) {
            os << "// " << stage.name << ": inlined\n";
            continue;
        }
        if (stage.loc == ComputeLoc::At)
            continue;   // printed inside its target
        printStage(*this, stage.index, 0, os);
    }
    return os.str();
}

} // namespace tlp::sched
