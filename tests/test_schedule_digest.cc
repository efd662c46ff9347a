/**
 * @file
 * Golden digests of the schedule layer: sampling, mutation, replay and
 * lowering over every zoo network, on CPU and on GPU.
 *
 * For each subgraph of a network a seeded policy samples a small
 * population and mutates every member three times (each child mutated from
 * the previous one). Each state contributes its serialized primitive
 * sequence, its lowered nest's fingerprint and the lowered program's
 * pretty-printed text to one FNV-1a digest per network, which must equal
 * the pinned value. Everything digested is integers and strings, so the
 * pins hold on any target ISA. Any change to which primitives are
 * recorded, to their parameters (including the split extent and
 * iterator-name parameters recomputed from the state), to the RNG draw
 * order, or to what lowering produces moves a digest.
 *
 * Every mutated child must also replay to its own steps: replaying
 * `child.steps()` on the naive program records the same sequence.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "schedule/lower.h"
#include "sketch/policy.h"
#include "support/rng.h"

namespace tlp {
namespace {

struct Pin
{
    const char *network;
    uint64_t cpu;
    uint64_t gpu;
};

/** Captured before the lean-State layout; see the file comment. */
constexpr Pin kPins[] = {
    {"resnet-18", 0x1773d8ec2616ea30ull, 0x4484c92f369a6414ull},
    {"resnet-34", 0xbe815c6adbfbde33ull, 0x93aeef51a068a955ull},
    {"wide-resnet-50", 0x51d5e11e263347f4ull, 0xd8165cb62415d894ull},
    {"vgg-16", 0xc464186a5cd9d89dull, 0x43e97c5158c13a20ull},
    {"squeezenet", 0x8da98beae97862a8ull, 0xd1283c6d67631351ull},
    {"inception-lite", 0xfa7d2114d30943c8ull, 0xd99648a20370bf07ull},
    {"mlp-mixer", 0xa781cd3d766059d8ull, 0x2faf413fd5613720ull},
    {"bert-small", 0xa8e9544f32e4f5d2ull, 0x3502567f8cbeab2aull},
    {"bert-medium", 0x278cc258e84e4f06ull, 0x6d2c27d15dae91b5ull},
    {"gpt2-lite", 0x3b9786de11ca1825ull, 0x1d727f1e0d04a8f0ull},
    {"resnet-50", 0x58144293536e2be7ull, 0x834d1524674e733dull},
    {"mobilenet-v2", 0x34677df0449ae880ull, 0xcf039723fd217d4bull},
    {"resnext-50", 0x3533d4bc50025e7bull, 0xbc9f95e0f1602a87ull},
    {"bert-tiny", 0xa7ccf23f9ad307d4ull, 0xc28e5ea1b188d4e8ull},
    {"bert-base", 0x60b61bc348f8d65dull, 0xc21b74863b043b30ull},
};

uint64_t
mixBytes(uint64_t digest, const std::string &bytes)
{
    return fnv1a(bytes.data(), bytes.size(), digest);
}

uint64_t
mixState(uint64_t digest, const sched::State &state)
{
    std::ostringstream os;
    BinaryWriter writer(os);
    state.steps().serialize(writer);
    digest = mixBytes(digest, os.str());
    const sched::LoweredNest nest = sched::lower(state);
    digest = hashCombine(digest, nest.fingerprint());
    return mixBytes(digest, nest.prettyPrint());
}

/** Digest of one network's schedules on one platform kind. */
uint64_t
networkDigest(const std::string &network, bool is_gpu)
{
    const ir::Workload workload =
        ir::partitionGraph(ir::buildNetwork(network));
    uint64_t digest = fnv1a(network.data(), network.size());
    Rng rng(hashCombine(digest, is_gpu ? 2 : 1));
    for (const ir::SubgraphPtr &sg : workload.subgraphs) {
        const sketch::SchedulePolicy policy(sg, is_gpu);
        for (const sched::State &state :
             policy.sampleInitPopulation(8, rng)) {
            digest = mixState(digest, state);
            const sched::State *parent = &state;
            std::optional<sched::State> child;
            for (int round = 0; round < 3; ++round) {
                child = policy.mutate(*parent, rng);
                if (!child)
                    break;
                const sched::State replayed =
                    sched::replaySteps(sg, is_gpu, child->steps());
                EXPECT_EQ(replayed.steps(), child->steps())
                    << network << " " << sg->key();
                digest = mixState(digest, *child);
                parent = &*child;
            }
        }
    }
    return digest;
}

void
checkZoo(bool is_gpu)
{
    const auto names = ir::allNetworkNames();
    ASSERT_EQ(names.size(), std::size(kPins));
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_EQ(names[i], kPins[i].network);
        const uint64_t digest = networkDigest(names[i], is_gpu);
        EXPECT_EQ(digest, is_gpu ? kPins[i].gpu : kPins[i].cpu)
            << names[i] << (is_gpu ? " gpu" : " cpu") << " digest 0x"
            << std::hex << digest;
    }
}

TEST(ScheduleDigest, CpuZoo)
{
    checkZoo(false);
}

TEST(ScheduleDigest, GpuZoo)
{
    checkZoo(true);
}

} // namespace
} // namespace tlp
