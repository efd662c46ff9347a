/**
 * @file
 * Schedule state: the loop structure of a tensor program under
 * construction, mutated by schedule primitives.
 *
 * A State is created from a Subgraph (one stage per op, iterators from the
 * op's LoopSpec) and then transformed by the primitive application methods.
 * Every application appends the corresponding Primitive to `steps()`, so a
 * State always carries the exact primitive sequence that produced it — the
 * object TLP extracts features from. `replaySteps()` rebuilds a State from
 * a recorded sequence, which is the "reversible preprocessing" property
 * discussed in Sec. 4.1 of the paper.
 *
 * Iterators track *coverage*: which original (pre-transform) iterators a
 * loop spans and by how much. Coverage is what lets the hardware model
 * compute exact tile footprints after arbitrary split/fuse/reorder chains.
 *
 * Layout (DESIGN.md §7): search builds, copies, replays and drops a State
 * for every candidate, so a State holds no per-iterator heap storage.
 * The naive program's LoopSpecs and buffer names are built once per
 * Subgraph; a Stage shares its spec (copy-on-write: cache_write,
 * cache_read and rfactor install new specs). An Iterator is a flat value
 * with inline coverage and a tokenized name rendered on demand.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ir/loops.h"
#include "ir/subgraph.h"
#include "schedule/primitive.h"
#include "support/logging.h"

namespace tlp::sched {

/**
 * A fixed-capacity array stored inline (no heap). Overflowing the
 * capacity is an invariant failure (TLP_CHECK), not a reallocation.
 */
template <typename T, int Capacity>
class InlineVec
{
    static_assert(Capacity > 0 && Capacity < 256);

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    T *begin() { return items_; }
    T *end() { return items_ + size_; }
    const T *begin() const { return items_; }
    const T *end() const { return items_ + size_; }
    T &back() { return items_[size_ - 1]; }
    void pop_back() { --size_; }

    void
    push_back(const T &item)
    {
        TLP_CHECK(size_ < Capacity, "inline capacity ", Capacity,
                  " exceeded");
        items_[size_++] = item;
    }

    /** Prepend @p item (coverage is consumed innermost-first). */
    void
    push_front(const T &item)
    {
        push_back(item);
        std::rotate(items_, items_ + size_ - 1, items_ + size_);
    }

    bool
    operator==(const InlineVec &other) const
    {
        return std::equal(begin(), end(), other.begin(), other.end());
    }

  private:
    T items_[Capacity]{};
    uint8_t size_ = 0;
};

/** A stretch of one original iterator a loop spans. */
struct CoverEntry
{
    int iter;             ///< original iterator index (into Stage::spec)
    int64_t extent;       ///< covered extent

    bool operator==(const CoverEntry &other) const = default;
};

/** Which original iterators a loop covers, ordered outer -> inner. */
using Coverage = InlineVec<CoverEntry, 8>;

/**
 * An iterator's name, kept as tokens and rendered against its stage's
 * spec only when a string is needed (the SP name parameter, lowering):
 * a spec iterator ("oc"), a split-part suffix (".2"), or a fuse joint
 * ("@"). "oc.0@oh.0.1" is [oc, .0, @, oh, .0, .1].
 */
class IterName
{
  public:
    /** The name of original iterator @p spec_iter. */
    static IterName original(int spec_iter);

    /** This name with split-part suffix ".part". */
    IterName part(int part) const;

    /** Append "@" and @p inner (fusing @p inner after this loop). */
    void fuseWith(const IterName &inner);

    /** Append the rendered name to @p out. */
    void render(const ir::LoopSpec &spec, std::string &out) const;

  private:
    static constexpr uint8_t kJoint = 0xff;
    static constexpr uint8_t kPart = 0x80;

    InlineVec<uint8_t, 31> tokens_;
};

/** One loop of a stage after transforms. Holds no heap storage. */
struct Iterator
{
    IterName name;
    int64_t extent = 1;
    bool is_reduction = false;
    Annotation ann = Annotation::None;
    Coverage coverage;
};

/** Where a stage's computation is placed. */
enum class ComputeLoc : uint8_t { Root, Inlined, At };

/** Read-buffer renames installed by cache_read: (buffer, replacement). */
using Redirects = std::vector<std::pair<std::string, std::string>>;

/** One op (or synthetic cache/rfactor op) in the schedule. */
struct Stage
{
    int op_index = -1;            ///< originating subgraph op
    std::string name;             ///< also the buffer the stage writes
    bool is_placeholder = false;
    bool is_cache_stage = false;  ///< cache_write/cache_read/rfactor stage
    std::vector<Iterator> iters;

    ComputeLoc loc = ComputeLoc::Root;
    int at_stage = -1;            ///< target stage index when loc == At
    int at_iter = -1;             ///< target iterator index when loc == At

    int64_t pragma_unroll = 0;    ///< auto_unroll_max_step value
    int64_t storage_align = 0;

    /**
     * Access patterns over the original iterators. Immutable and shared
     * with the subgraph, copies of the State and lowered nests; a
     * primitive that changes an access pattern installs a new spec.
     */
    std::shared_ptr<const ir::LoopSpec> spec;
    Redirects redirects;

    /** Product of all iterator extents. */
    int64_t totalExtent() const;

    /** Rendered name of iterator @p iter, e.g. "oc.0@oh.0". */
    std::string iterName(int iter) const;
};

/** A schedulable tensor program: stages + the primitive sequence so far. */
class State
{
  public:
    /** Build the naive program of @p subgraph. @p is_gpu selects GPU
     *  annotation legality (bindings) but not the primitive grammar. */
    State(ir::SubgraphPtr subgraph, bool is_gpu);

    const std::vector<Stage> &stages() const { return stages_; }
    const Stage &stage(int index) const;
    int numStages() const { return static_cast<int>(stages_.size()); }
    const PrimitiveSeq &steps() const { return steps_; }
    ir::SubgraphPtr subgraph() const { return subgraph_; }
    bool isGpu() const { return is_gpu_; }

    // --- primitive applications (each records one step) ---

    /**
     * Split iterator @p iter of @p stage into 1 + lengths.size() loops;
     * @p lengths are the extents of the inner loops (innermost last), the
     * outer loop gets ceil(extent / prod(lengths)).
     * @return index of the outer resulting iterator.
     */
    int split(int stage, int iter, const std::vector<int64_t> &lengths);

    /** Split @p iter using the lengths of the @p src_step -th recorded
     *  step (which must be an SP step), truncated to @p n_split parts. */
    int followSplit(int stage, int iter, int src_step, int n_split);

    /** GPU variant: follow a fused split (same mechanics here). */
    int followFusedSplit(int stage, int iter, int src_step, int n_split);

    /** Permute all iterators of @p stage; @p order is a permutation of
     *  current iterator indices. */
    void reorder(int stage, const std::vector<int> &order);

    /** Fuse the contiguous iterators @p iters (ascending). @return index
     *  of the fused iterator. */
    int fuse(int stage, const std::vector<int> &iters);

    /** Nest @p stage's computation under iterator @p target_iter of
     *  @p target. */
    void computeAt(int stage, int target, int target_iter);

    /** Inline @p stage into its consumers. */
    void computeInline(int stage);

    /** Restore @p stage to root placement. */
    void computeRoot(int stage);

    /**
     * Insert a local accumulation stage for @p stage (must still have its
     * original iterators). The new stage takes over the reduction; the
     * original becomes a spatial copy-out.
     * @return index of the new cache stage.
     */
    int cacheWrite(int stage);

    /** Insert a staging (shared-memory) copy of @p producer's buffer for
     *  @p consumer. @return index of the new cache stage. */
    int cacheRead(int producer, int consumer);

    /**
     * Factor reduction iterator @p iter of @p stage into a partial stage
     * (iter becomes spatial there) plus a final reduction in @p stage.
     * @return index of the new partial stage.
     */
    int rfactor(int stage, int iter);

    /** Annotate an iterator (parallel / vectorize / unroll / bindings). */
    void annotate(int stage, int iter, Annotation ann);

    /** Set the auto_unroll_max_step pragma on @p stage. */
    void pragmaUnroll(int stage, int64_t max_step);

    /** Set a storage-alignment hint on @p stage. */
    void storageAlign(int stage, int64_t factor);

    /** Re-apply a recorded primitive (used by replaySteps). */
    void applyRecorded(const Primitive &prim);

  private:
    friend State replaySteps(ir::SubgraphPtr subgraph, bool is_gpu,
                             const PrimitiveSeq &seq);

    Stage &mutableStage(int index);
    Iterator &mutableIter(int stage, int iter);
    /** Append a step of @p kind with room for @p num_params params. */
    Primitive &record(PrimKind kind, size_t num_params);
    int splitImpl(int stage, int iter, std::span<const int64_t> lengths);
    int followSplitImpl(PrimKind kind, int stage, int iter, int src_step,
                        int n_split);
    void reorderImpl(int stage, std::span<const int> order);
    int fuseImpl(int stage, std::span<const int> iters);
    int doSplit(int stage, int iter, std::span<const int64_t> lengths);

    ir::SubgraphPtr subgraph_;
    bool is_gpu_ = false;
    std::vector<Stage> stages_;
    PrimitiveSeq steps_;
};

/** Rebuild a State by replaying @p seq on the naive program. */
State replaySteps(ir::SubgraphPtr subgraph, bool is_gpu,
                  const PrimitiveSeq &seq);

} // namespace tlp::sched
