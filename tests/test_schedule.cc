/**
 * @file
 * Unit tests for schedule primitives, State transforms, replay, and
 * lowering.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "ir/graph.h"
#include "ir/partition.h"
#include "schedule/lower.h"
#include "schedule/state.h"

namespace tlp::sched {
namespace {

ir::SubgraphPtr
denseSubgraph(int64_t m = 64, int64_t n = 64, int64_t k = 128)
{
    ir::ComputeGraph g("t");
    auto x = g.input({m, k});
    g.dense(x, n);
    return std::make_shared<ir::Subgraph>(g.nodes(), 2);
}

ir::SubgraphPtr
convReluSubgraph()
{
    ir::ComputeGraph g("t");
    auto x = g.input({1, 16, 28, 28});
    auto y = g.conv2d(x, 32, 3);
    g.relu(y);
    const auto w = ir::partitionGraph(g);
    return w.subgraphs.at(0);
}

TEST(Primitive, ToStringAndSerialize)
{
    Primitive prim;
    prim.kind = PrimKind::SP;
    prim.addNum(2);
    prim.addNum(0);
    prim.addName("i");
    EXPECT_EQ(prim.toString(), "SP(2, 0, \"i\")");

    std::stringstream ss;
    BinaryWriter writer(ss);
    prim.serialize(writer);
    BinaryReader reader(ss);
    EXPECT_EQ(Primitive::deserialize(reader), prim);
}

TEST(Primitive, ParamTagOutsideNumberOrNameIsCorrupt)
{
    // One SP param: tag 0 (number) parses, any other tag but 1 (name)
    // is damage, never a name read.
    for (const uint8_t tag : {uint8_t{0}, uint8_t{2}, uint8_t{255}}) {
        std::stringstream ss;
        BinaryWriter writer(ss);
        writer.writePod<uint8_t>(static_cast<uint8_t>(PrimKind::SP));
        writer.writePod<uint32_t>(1);
        writer.writePod<uint8_t>(tag);
        writer.writePod<int64_t>(4);
        const Status status = guardedParse([&] {
            BinaryReader reader(ss);
            Primitive::deserialize(reader);
        });
        if (tag == 0) {
            EXPECT_TRUE(status.ok()) << status.toString();
        } else {
            EXPECT_EQ(status.code(), ErrorCode::Corrupt)
                << int{tag} << ": " << status.toString();
        }
    }
}

TEST(Primitive, SeqHashDiffers)
{
    PrimitiveSeq a, b;
    Primitive p;
    p.kind = PrimKind::CI;
    p.addNum(1);
    a.prims.push_back(p);
    p.params[0] = static_cast<int64_t>(2);
    b.prims.push_back(p);
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_EQ(a.hash(), a.hash());
}

TEST(State, InitialStagesMatchOps)
{
    auto sg = denseSubgraph();
    State state(sg, false);
    ASSERT_EQ(state.numStages(), 3);
    EXPECT_TRUE(state.stage(0).is_placeholder);
    EXPECT_TRUE(state.stage(1).is_placeholder);
    ASSERT_EQ(state.stage(2).iters.size(), 3u);
    EXPECT_EQ(state.stage(2).iters[2].extent, 128);
}

TEST(State, SplitProducesParts)
{
    auto sg = denseSubgraph();
    State state(sg, false);
    state.split(2, 0, {4, 8});
    const auto &iters = state.stage(2).iters;
    ASSERT_EQ(iters.size(), 5u);
    EXPECT_EQ(iters[0].extent, 2);    // 64 / 32
    EXPECT_EQ(iters[1].extent, 4);
    EXPECT_EQ(iters[2].extent, 8);
    // Total extent conserved.
    EXPECT_EQ(iters[0].extent * iters[1].extent * iters[2].extent, 64);
    EXPECT_EQ(state.steps().size(), 1);
    EXPECT_EQ(state.steps().prims[0].kind, PrimKind::SP);
}

TEST(State, SplitNonDivisibleRoundsUp)
{
    auto sg = denseSubgraph(10, 64, 128);
    State state(sg, false);
    state.split(2, 0, {3});
    const auto &iters = state.stage(2).iters;
    EXPECT_EQ(iters[0].extent, 4);   // ceil(10/3)
    EXPECT_EQ(iters[1].extent, 3);
}

TEST(State, FuseConcatenatesCoverage)
{
    auto sg = denseSubgraph();
    State state(sg, false);
    state.fuse(2, {0, 1});
    const auto &iters = state.stage(2).iters;
    ASSERT_EQ(iters.size(), 2u);
    EXPECT_EQ(iters[0].extent, 64 * 64);
    ASSERT_EQ(iters[0].coverage.size(), 2u);
}

TEST(State, ReorderPermutes)
{
    auto sg = denseSubgraph();
    State state(sg, false);
    state.reorder(2, {2, 0, 1});
    const auto &iters = state.stage(2).iters;
    EXPECT_TRUE(iters[0].is_reduction);
    EXPECT_EQ(iters[0].extent, 128);
}

TEST(State, FollowSplitUsesSourceLengths)
{
    auto sg = denseSubgraph();
    State state(sg, false);
    state.split(2, 0, {4, 8});
    // Follow with n_split=1: innermost length 8.
    state.followSplit(2, 3, 0, 1);
    const auto &iters = state.stage(2).iters;
    // j (extent 64) split into [8, 8].
    EXPECT_EQ(iters[3].extent, 8);
    EXPECT_EQ(iters[4].extent, 8);
}

TEST(State, CacheWriteSplitsComputeAndCopy)
{
    auto sg = denseSubgraph();
    State state(sg, false);
    const int local = state.cacheWrite(2);
    ASSERT_EQ(state.numStages(), 4);
    const Stage &copy = state.stage(2);
    const Stage &compute = state.stage(local);
    EXPECT_TRUE(compute.is_cache_stage);
    EXPECT_EQ(compute.iters.size(), 3u);     // full loops incl. reduction
    EXPECT_EQ(copy.iters.size(), 2u);        // spatial only
    // The copy stage reads the local buffer.
    bool reads_local = false;
    for (const auto &access : copy.spec->accesses)
        if (!access.is_write && access.buffer == compute.name)
            reads_local = true;
    EXPECT_TRUE(reads_local);
}

TEST(State, ComputeAtAndInline)
{
    auto sg = convReluSubgraph();
    State state(sg, false);
    const int anchor = sg->anchorIndex();
    const int output = sg->outputIndex();
    state.computeAt(anchor, output, 0);
    EXPECT_EQ(state.stage(anchor).loc, ComputeLoc::At);
    state.computeRoot(anchor);
    EXPECT_EQ(state.stage(anchor).loc, ComputeLoc::Root);
    state.computeInline(anchor);
    EXPECT_EQ(state.stage(anchor).loc, ComputeLoc::Inlined);
    EXPECT_EQ(state.steps().size(), 3);
}

TEST(State, CacheReadRedirectsConsumer)
{
    auto sg = denseSubgraph();
    State state(sg, true);
    const int sh = state.cacheRead(0, 2);
    const Stage &shared = state.stage(sh);
    EXPECT_TRUE(shared.is_cache_stage);
    const Stage &consumer = state.stage(2);
    ASSERT_EQ(consumer.redirects.size(), 1u);
    EXPECT_EQ(consumer.redirects.front().second, shared.name);
}

TEST(State, CacheReadTwiceKeepsOneRedirect)
{
    auto sg = denseSubgraph();
    State state(sg, true);
    state.cacheRead(0, 2);
    const int second = state.cacheRead(0, 2);
    const Stage &consumer = state.stage(2);
    ASSERT_EQ(consumer.redirects.size(), 1u);
    EXPECT_EQ(consumer.redirects.front().second, state.stage(second).name);
}

TEST(State, SplitAndFuseDropAnnotationsAndComposeNames)
{
    auto sg = denseSubgraph();
    State state(sg, false);
    state.annotate(2, 0, Annotation::Parallel);
    state.split(2, 0, {4});          // i -> [i.0, i.1]
    EXPECT_EQ(state.stage(2).iters[0].ann, Annotation::None);
    state.annotate(2, 0, Annotation::Parallel);
    state.fuse(2, {0, 1});
    const Stage &stage = state.stage(2);
    EXPECT_EQ(stage.iters[0].ann, Annotation::None);
    EXPECT_EQ(stage.iterName(0), "i.0@i.1");
    state.split(2, 0, {2});
    EXPECT_EQ(std::get<std::string>(state.steps().prims.back().params.back()),
              "i.0@i.1");
    EXPECT_EQ(state.stage(2).iterName(1), "i.0@i.1.1");
}

TEST(State, RfactorCreatesPartialStage)
{
    ir::ComputeGraph g("t");
    auto x = g.input({8, 1024});
    g.reduceMean(x);
    auto sg = std::make_shared<ir::Subgraph>(g.nodes(), 1);
    State state(sg, false);
    state.split(1, 1, {64});
    const int rf = state.rfactor(1, 1);
    const Stage &partial = state.stage(rf);
    EXPECT_FALSE(partial.iters[1].is_reduction);
    const Stage &final_stage = state.stage(1);
    // Final stage: spatial + one partial-reduction iterator.
    ASSERT_EQ(final_stage.iters.size(), 2u);
    EXPECT_TRUE(final_stage.iters[1].is_reduction);
    EXPECT_EQ(final_stage.iters[1].extent, 1024 / 64);
}

TEST(State, AnnotationLegality)
{
    auto sg = denseSubgraph();
    State cpu(sg, false);
    cpu.annotate(2, 0, Annotation::Parallel);
    EXPECT_EQ(cpu.stage(2).iters[0].ann, Annotation::Parallel);
    State gpu(sg, true);
    gpu.annotate(2, 0, Annotation::BlockX);
    EXPECT_EQ(gpu.stage(2).iters[0].ann, Annotation::BlockX);
}

TEST(State, PragmaAndStorageAlign)
{
    auto sg = denseSubgraph();
    State state(sg, false);
    state.pragmaUnroll(2, 64);
    state.storageAlign(2, 32);
    EXPECT_EQ(state.stage(2).pragma_unroll, 64);
    EXPECT_EQ(state.stage(2).storage_align, 32);
}

TEST(State, ReplayReproducesStateExactly)
{
    auto sg = denseSubgraph();
    State state(sg, false);
    const int local = state.cacheWrite(2);
    state.split(local, 0, {4, 8});
    state.split(local, 4, {16});
    // Iterators are now [i0, i1, i2, j, k0, k1].
    state.reorder(local, {0, 3, 4, 1, 5, 2});
    state.fuse(2, {0, 1});
    state.annotate(2, 0, Annotation::Parallel);
    state.computeAt(local, 2, 0);
    state.pragmaUnroll(local, 64);

    const State replayed = replaySteps(sg, false, state.steps());
    ASSERT_EQ(replayed.numStages(), state.numStages());
    EXPECT_EQ(replayed.steps(), state.steps());
    for (int i = 0; i < state.numStages(); ++i) {
        const Stage &a = state.stage(i);
        const Stage &b = replayed.stage(i);
        ASSERT_EQ(a.iters.size(), b.iters.size());
        for (size_t q = 0; q < a.iters.size(); ++q) {
            EXPECT_EQ(a.iters[q].extent, b.iters[q].extent);
            EXPECT_EQ(a.iters[q].ann, b.iters[q].ann);
            EXPECT_EQ(a.iters[q].coverage, b.iters[q].coverage);
        }
        EXPECT_EQ(a.loc, b.loc);
        EXPECT_EQ(a.pragma_unroll, b.pragma_unroll);
    }
}

TEST(Lower, TileExtentsBelowTracksSplits)
{
    auto sg = denseSubgraph();
    State state(sg, false);
    state.split(2, 0, {16});       // i -> [4, 16]
    state.split(2, 3, {32});       // k -> [4, 32]
    const LoweredNest nest = lower(state);
    const LoweredStage &stage = nest.stages[2];
    // Inside everything: tiles are 1 except clamping.
    const auto innermost =
        stage.tileExtentsBelow(static_cast<int>(stage.loops.size()) - 1);
    EXPECT_EQ(innermost, (std::vector<int64_t>{1, 1, 1}));
    // Inside loop 0 (i outer): i tile 16, j full, k full.
    const auto below0 = stage.tileExtentsBelow(0);
    EXPECT_EQ(below0[0], 16);
    EXPECT_EQ(below0[1], 64);
    EXPECT_EQ(below0[2], 128);
}

TEST(Lower, IterationCounts)
{
    auto sg = denseSubgraph();
    State state(sg, false);
    const LoweredNest nest = lower(state);
    EXPECT_EQ(nest.stages[2].totalIterations(), 64 * 64 * 128);
    EXPECT_EQ(nest.stages[2].iterationsDownTo(0), 64);
}

TEST(Lower, PrettyPrintMentionsLoopsAndBuffers)
{
    auto sg = convReluSubgraph();
    State state(sg, false);
    state.annotate(sg->anchorIndex(), 0, Annotation::Parallel);
    const LoweredNest nest = lower(state);
    const std::string text = nest.prettyPrint();
    EXPECT_NE(text.find("parallel for"), std::string::npos);
    EXPECT_NE(text.find("conv2d"), std::string::npos);
}

TEST(Lower, AttachedStagesListed)
{
    auto sg = convReluSubgraph();
    State state(sg, false);
    state.computeAt(sg->anchorIndex(), sg->outputIndex(), 0);
    const LoweredNest nest = lower(state);
    const auto attached = nest.attachedTo(sg->outputIndex());
    ASSERT_EQ(attached.size(), 1u);
    EXPECT_EQ(attached[0].first, sg->anchorIndex());
}

} // namespace
} // namespace tlp::sched
