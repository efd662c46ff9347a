/**
 * @file
 * Unit tests for the compute-graph IR: shapes, ops, graphs, loop specs,
 * and the model zoo.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "ir/graph.h"
#include "ir/loops.h"
#include "ir/model_zoo.h"
#include "ir/subgraph.h"

namespace tlp::ir {
namespace {

TEST(Dtype, BytesAndNames)
{
    EXPECT_EQ(dtypeBytes(DataType::Float32), 4);
    EXPECT_EQ(dtypeBytes(DataType::Float16), 2);
    EXPECT_EQ(dtypeBytes(DataType::Int8), 1);
}

TEST(Shape, NumElementsAndPrint)
{
    EXPECT_EQ(numElements({2, 3, 4}), 24);
    EXPECT_EQ(numElements({}), 1);
    EXPECT_EQ(shapeToString({1, 64}), "[1, 64]");
}

TEST(Graph, DenseShapeInference)
{
    ComputeGraph g("t");
    auto x = g.input({4, 128});
    auto y = g.dense(x, 256);
    EXPECT_EQ(g.desc(y).shape, (Shape{4, 256}));
    // dense creates a weight constant [units, k].
    const auto &node = g.node(y);
    EXPECT_EQ(g.nodes()[node.inputs[1]].out.shape, (Shape{256, 128}));
}

TEST(Graph, Conv2dShapeInference)
{
    ComputeGraph g("t");
    auto x = g.input({1, 3, 224, 224});
    auto y = g.conv2d(x, 64, 7, 2);
    EXPECT_EQ(g.desc(y).shape, (Shape{1, 64, 112, 112}));
    auto z = g.conv2d(y, 64, 3, 1);
    EXPECT_EQ(g.desc(z).shape, (Shape{1, 64, 112, 112}));
}

TEST(Graph, DepthwiseAndGroupConv)
{
    ComputeGraph g("t");
    auto x = g.input({1, 32, 56, 56});
    auto d = g.depthwiseConv2d(x, 3, 2);
    EXPECT_EQ(g.desc(d).shape, (Shape{1, 32, 28, 28}));
    auto gc = g.groupConv2d(d, 64, 3, 32);
    EXPECT_EQ(g.desc(gc).shape, (Shape{1, 64, 28, 28}));
}

TEST(Graph, BatchMatmulShape)
{
    ComputeGraph g("t");
    auto a = g.input({8, 128, 64});
    auto b = g.input({8, 64, 128});
    auto c = g.batchMatmul(a, b);
    EXPECT_EQ(g.desc(c).shape, (Shape{8, 128, 128}));
}

TEST(Graph, PoolAndGlobalPool)
{
    ComputeGraph g("t");
    auto x = g.input({1, 64, 56, 56});
    auto p = g.maxPool2d(x, 3, 2);
    EXPECT_EQ(g.desc(p).shape, (Shape{1, 64, 28, 28}));
    auto gp = g.globalAvgPool(p);
    EXPECT_EQ(g.desc(gp).shape, (Shape{1, 64}));
}

TEST(Graph, FlopCounts)
{
    ComputeGraph g("t");
    auto x = g.input({1, 128});
    g.dense(x, 64);
    // 2 * 1 * 64 * 128 flops.
    EXPECT_EQ(g.totalFlops(), 2 * 64 * 128);
}

TEST(Graph, ReshapeValidation)
{
    ComputeGraph g("t");
    auto x = g.input({4, 4});
    auto y = g.reshape(x, {2, 8});
    EXPECT_EQ(g.desc(y).shape, (Shape{2, 8}));
}

TEST(Subgraph, KeyIsStableAndDistinct)
{
    auto make = [](int64_t units) {
        ComputeGraph g("t");
        auto x = g.input({4, 128});
        g.dense(x, units);
        std::vector<OpNode> ops = g.nodes();
        return Subgraph(std::move(ops), 2);
    };
    const auto a1 = make(64);
    const auto a2 = make(64);
    const auto b = make(32);
    EXPECT_EQ(a1.key(), a2.key());
    EXPECT_NE(a1.key(), b.key());
    EXPECT_GT(a1.flops(), 0);
}

TEST(Subgraph, SerializeRoundTrip)
{
    ComputeGraph g("t");
    auto x = g.input({1, 16, 8, 8});
    auto y = g.conv2d(x, 16, 3);
    g.relu(y);
    std::vector<OpNode> ops = g.nodes();
    Subgraph sg(std::move(ops), 2);

    std::stringstream ss;
    BinaryWriter writer(ss);
    sg.serialize(writer);
    BinaryReader reader(ss);
    const Subgraph copy = Subgraph::deserialize(reader);
    EXPECT_EQ(copy.key(), sg.key());
    EXPECT_EQ(copy.flops(), sg.flops());
    EXPECT_EQ(copy.anchorIndex(), sg.anchorIndex());
}

TEST(Loops, DenseSpec)
{
    ComputeGraph g("t");
    auto x = g.input({4, 128});
    g.dense(x, 64);
    Subgraph sg(g.nodes(), 2);
    const LoopSpec spec = describeLoops(sg, 2);
    ASSERT_EQ(spec.iters.size(), 3u);
    EXPECT_EQ(spec.iters[0].extent, 4);
    EXPECT_EQ(spec.iters[1].extent, 64);
    EXPECT_EQ(spec.iters[2].extent, 128);
    EXPECT_TRUE(spec.iters[2].is_reduction);
    EXPECT_EQ(spec.totalPoints(), 4 * 64 * 128);
    ASSERT_EQ(spec.accesses.size(), 3u);
}

TEST(Loops, ConvFootprintWindows)
{
    ComputeGraph g("t");
    auto x = g.input({1, 16, 32, 32});
    g.conv2d(x, 8, 3, 1);
    Subgraph sg(g.nodes(), 2);
    const LoopSpec spec = describeLoops(sg, 2);
    // iters: n oc oh ow rc rh rw
    ASSERT_EQ(spec.iters.size(), 7u);
    // Tile of 1 output point reads a 3x3 input window per channel.
    std::vector<int64_t> tiles = {1, 1, 1, 1, 16, 3, 3};
    const auto &input_access = spec.accesses[0];
    EXPECT_EQ(input_access.footprintElems(tiles), 1 * 16 * 3 * 3);
    // A full row of outputs reads a full padded-width window.
    tiles = {1, 1, 1, 32, 16, 3, 3};
    EXPECT_EQ(input_access.footprintElems(tiles), 16 * 3 * (32 + 2));
}

TEST(Loops, ElementwiseTailSpec)
{
    ComputeGraph g("t");
    auto x = g.input({1, 8, 4, 4});
    auto y = g.relu(x);
    g.add(y, g.input({1, 8, 4, 4}));
    Subgraph sg(g.nodes(), -1);
    const LoopSpec spec = describeLoops(sg, 3);
    EXPECT_EQ(spec.iters.size(), 4u);
    for (const IterSpec &iter : spec.iters)
        EXPECT_FALSE(iter.is_reduction);
}

TEST(ModelZoo, AllNetworksBuild)
{
    for (const auto &name : allNetworkNames()) {
        const ComputeGraph g = buildNetwork(name);
        EXPECT_GT(g.totalFlops(), 0) << name;
        EXPECT_GT(g.nodes().size(), 5u) << name;
    }
}

TEST(ModelZoo, TestSetMatchesPaper)
{
    const auto names = testNetworkNames();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "resnet-50");
    EXPECT_EQ(names[1], "mobilenet-v2");
    EXPECT_EQ(names[2], "resnext-50");
    EXPECT_EQ(names[3], "bert-tiny");
    EXPECT_EQ(names[4], "bert-base");
}

TEST(ModelZoo, ResNet50FlopsInRange)
{
    const ComputeGraph g = buildResNet(50);
    // ~4.1 GFLOPs for batch-1 ResNet-50 (2 flops per MAC).
    EXPECT_GT(g.totalFlops(), 3'000'000'000LL);
    EXPECT_LT(g.totalFlops(), 12'000'000'000LL);
}

} // namespace
} // namespace tlp::ir
