/**
 * @file
 * Deterministic corruption fuzzer for every on-disk artifact format:
 * datasets, model snapshots, tuning checkpoints, and bench memos.
 *
 * Each format's golden bytes are mutated >= 500 times with seeded byte
 * flips, truncations (random and at section boundaries), zeroed spans,
 * and inflated length prefixes; every mutant must come back as a clean
 * Status (or, rarely, as a still-valid artifact) — never a crash, hang,
 * or allocation proportional to a hostile length field. Salvage-mode
 * recovery and version-skew reporting are pinned down exactly.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "bench/bench_common.h"
#include "dataset/collect.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "models/snapshot.h"
#include "models/supervisor.h"
#include "support/io_env.h"
#include "support/rng.h"
#include "support/serialize.h"
#include "tuner/session.h"
#include "scratch.h"

namespace tlp {
namespace {

constexpr int kMutationsPerFormat = 500;

// --- golden artifacts (built once, reused across mutations) ------------

const data::Dataset &
goldenDataset()
{
    static const data::Dataset dataset = [] {
        data::CollectOptions options;
        options.networks = {"resnet-18"};
        options.platforms = {"platinum-8272"};
        options.programs_per_subgraph = 48;   // > 256 records: 2+ chunks
        options.seed = 11;
        return data::collectDataset(options);
    }();
    return dataset;
}

/** A second, smaller dataset: the "previous generation" in the
 *  write-side crash drills (distinct bytes from the golden one). */
const data::Dataset &
tinyDataset()
{
    static const data::Dataset dataset = [] {
        data::CollectOptions options;
        options.networks = {"resnet-18"};
        options.platforms = {"platinum-8272"};
        options.programs_per_subgraph = 4;
        options.seed = 12;
        return data::collectDataset(options);
    }();
    return dataset;
}

std::string
goldenDatasetBytes()
{
    std::ostringstream os;
    goldenDataset().save(os);
    return os.str();
}

std::string
goldenSnapshotBytes()
{
    Rng rng(3);
    model::TlpNet net(model::TlpNetConfig{}, rng);
    std::ostringstream os;
    model::saveTlpSnapshot(os, net);
    return os.str();
}

std::string
goldenCheckpointBytes()
{
    static const std::string bytes = [] {
        const std::string path = test::scratchDir("golden") + "/golden.ckpt";
        ir::Workload full =
            ir::partitionGraph(ir::buildNetwork("resnet-18"));
        ir::Workload slim;
        slim.name = "resnet-18-slice";
        for (size_t i = 0; i < 2 && i < full.subgraphs.size(); ++i) {
            slim.subgraphs.push_back(full.subgraphs[i]);
            slim.weights.push_back(full.weights[i]);
        }
        tune::TuneOptions options;
        options.rounds = 4;
        options.measures_per_round = 4;
        options.evolution.population = 16;
        options.evolution.iterations = 1;
        options.evolution.children_per_iter = 8;
        options.checkpoint_path = path;
        options.checkpoint_every = 2;
        model::RandomCostModel cost_model(5);
        tune::tuneWorkload(slim,
                           hw::HardwarePlatform::preset("platinum-8272"),
                           cost_model, options);
        std::ifstream is(path, std::ios::binary);
        std::string contents((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
        return contents;
    }();
    return bytes;
}

constexpr uint64_t kMemoFingerprint = 0xf00dface;

std::string
goldenMemoBytes()
{
    std::ostringstream os;
    bench::writeBenchMemo(os, kMemoFingerprint, goldenDataset());
    return os.str();
}

std::string
goldenTrainCheckpointBytes()
{
    static const std::string bytes = [] {
        Rng rng(13);
        nn::Tensor w = nn::Tensor::randn({8}, rng, 1.0);
        nn::Adam adam({w}, {.lr = 0.01});
        model::SupervisorOptions options;
        options.enabled = true;
        model::TrainSupervisor supervisor({w}, adam, options);
        for (int i = 0; i < 3; ++i) {
            supervisor.step([&] {
                adam.zeroGrad();
                auto &grad = w.grad();
                for (size_t j = 0; j < grad.size(); ++j)
                    grad[j] = 0.1f * static_cast<float>(j + 1);
                return 1.0 + 0.1 * i;
            });
        }
        std::ostringstream os(std::ios::binary);
        model::writeTrainCheckpoint(os, supervisor.makeCheckpoint(2));
        return os.str();
    }();
    return bytes;
}

// --- section walking (for boundary-targeted mutations) ------------------

/** One section frame located in a byte string. */
struct Frame
{
    size_t offset = 0;        ///< of the tag field
    size_t payload_offset = 0;
    uint64_t payload_size = 0;
    uint32_t tag = 0;
};

/**
 * Walk the section frames of @p bytes starting just past a @p header
 * bytes long prefix. Stops at the first frame that doesn't fit.
 */
std::vector<Frame>
walkFrames(const std::string &bytes, size_t header)
{
    std::vector<Frame> frames;
    size_t at = header;
    while (at + 16 <= bytes.size()) {
        Frame frame;
        frame.offset = at;
        std::memcpy(&frame.tag, bytes.data() + at, 4);
        std::memcpy(&frame.payload_size, bytes.data() + at + 4, 8);
        frame.payload_offset = at + 16;
        if (frame.payload_size > bytes.size() - frame.payload_offset)
            break;
        frames.push_back(frame);
        at = frame.payload_offset + frame.payload_size;
    }
    return frames;
}

// --- the mutation engine -------------------------------------------------

/** Apply one seeded mutation; @p header is the fixed prefix size. */
std::string
mutate(const std::string &golden, size_t header, Rng &rng)
{
    std::string bytes = golden;
    const auto offset = [&] {
        return static_cast<size_t>(rng.randint(
            static_cast<int64_t>(bytes.size())));
    };
    switch (rng.randint(6)) {
      case 0:   // flip 1..8 random bytes
        for (int64_t i = 0, n = rng.randint(1, 8); i < n; ++i)
            bytes[offset()] ^= static_cast<char>(rng.randint(1, 255));
        break;
      case 1:   // truncate to a random prefix
        bytes.resize(offset());
        break;
      case 2: { // truncate at or just past a section boundary
        const auto frames = walkFrames(bytes, header);
        if (frames.empty()) {
            bytes.resize(offset());
            break;
        }
        const Frame &frame = frames[static_cast<size_t>(
            rng.randint(static_cast<int64_t>(frames.size())))];
        const size_t cut = frame.offset + static_cast<size_t>(rng.randint(
                                              17));   // inside the frame
        bytes.resize(std::min(cut, bytes.size()));
        break;
      }
      case 3: { // inflate a section length field
        const auto frames = walkFrames(bytes, header);
        const uint64_t huge = 1ull << rng.randint(20, 62);
        if (frames.empty()) {
            // No parseable frame: plant the hostile length anywhere.
            const size_t at = offset();
            std::memcpy(bytes.data() + at, &huge,
                        std::min<size_t>(8, bytes.size() - at));
            break;
        }
        const Frame &frame = frames[static_cast<size_t>(
            rng.randint(static_cast<int64_t>(frames.size())))];
        std::memcpy(bytes.data() + frame.offset + 4, &huge, 8);
        break;
      }
      case 4: { // zero a 16-byte span
        const size_t at = offset();
        for (size_t i = at; i < std::min(at + 16, bytes.size()); ++i)
            bytes[i] = 0;
        break;
      }
      default: { // scribble over the version field
        if (bytes.size() >= 8) {
            const uint32_t version =
                static_cast<uint32_t>(rng.randint(0, 1000));
            std::memcpy(bytes.data() + 4, &version, 4);
        }
        break;
      }
    }
    return bytes;
}

/**
 * Fuzz @p load with kMutationsPerFormat seeded mutants of @p golden.
 * @p load returns true when the mutant still parsed OK (possible when a
 * flip lands in dead bytes); all other outcomes must be clean Statuses,
 * which the callee asserts. Returns the number of surviving mutants.
 */
template <typename LoadFn>
int
fuzzFormat(const std::string &golden, size_t header, uint64_t seed,
           LoadFn &&load)
{
    Rng rng(seed);
    int survivors = 0;
    for (int i = 0; i < kMutationsPerFormat; ++i)
        survivors += load(mutate(golden, header, rng)) ? 1 : 0;
    return survivors;
}

// --- fuzzing: every mutant parses or fails cleanly ----------------------

TEST(CorruptionFuzz, DatasetNeverCrashes)
{
    const std::string golden = goldenDatasetBytes();
    const int survivors =
        fuzzFormat(golden, 8, 0xda7a1, [](const std::string &bytes) {
            std::istringstream is(bytes);
            return data::Dataset::tryLoad(is).ok();
        });
    // Corruption overwhelmingly loses: the CRCs catch nearly everything.
    EXPECT_LT(survivors, kMutationsPerFormat / 10);
}

TEST(CorruptionFuzz, DatasetSalvageNeverCrashes)
{
    const std::string golden = goldenDatasetBytes();
    fuzzFormat(golden, 8, 0xda7a2, [&](const std::string &bytes) {
        std::istringstream is(bytes);
        data::LoadOptions options;
        options.salvage = true;
        auto result = data::Dataset::tryLoad(is, options);
        if (!result.ok())
            return false;
        // Whatever survived salvage must be internally consistent.
        const auto dataset = result.take();
        for (const auto &record : dataset.records) {
            EXPECT_LT(record.group, dataset.groups.size());
            EXPECT_EQ(record.latency_ms.size(), dataset.platforms.size());
        }
        return true;
    });
}

TEST(CorruptionFuzz, SnapshotNeverCrashes)
{
    const std::string golden = goldenSnapshotBytes();
    const int survivors =
        fuzzFormat(golden, 8, 0x5a95, [](const std::string &bytes) {
            std::istringstream is(bytes);
            return model::loadTlpSnapshot(is).ok();
        });
    EXPECT_LT(survivors, kMutationsPerFormat / 10);
}

TEST(CorruptionFuzz, CheckpointNeverCrashes)
{
    const std::string golden = goldenCheckpointBytes();
    ASSERT_FALSE(golden.empty());
    const int survivors =
        fuzzFormat(golden, 8, 0xc4ec, [](const std::string &bytes) {
            std::istringstream is(bytes);
            return tune::verifyCheckpoint(is).ok();
        });
    EXPECT_LT(survivors, kMutationsPerFormat / 10);
}

TEST(CorruptionFuzz, TrainCheckpointNeverCrashes)
{
    const std::string golden = goldenTrainCheckpointBytes();
    ASSERT_FALSE(golden.empty());
    const int survivors =
        fuzzFormat(golden, 8, 0x717c, [](const std::string &bytes) {
            std::istringstream is(bytes);
            return model::verifyTrainCheckpoint(is).ok();
        });
    EXPECT_LT(survivors, kMutationsPerFormat / 10);
}

TEST(CorruptionFuzz, BenchMemoNeverCrashes)
{
    const std::string golden = goldenMemoBytes();
    // Frames start past the memo header (16) plus the embedded dataset
    // header (8).
    const int survivors =
        fuzzFormat(golden, 24, 0x3e30, [](const std::string &bytes) {
            std::istringstream is(bytes);
            return bench::loadBenchMemo(is, kMemoFingerprint).ok();
        });
    EXPECT_LT(survivors, kMutationsPerFormat / 10);
}

// --- golden sanity: the unmutated bytes round-trip ----------------------

TEST(Corruption, GoldenArtifactsLoadCleanly)
{
    {
        std::istringstream is(goldenDatasetBytes());
        auto result = data::Dataset::tryLoad(is);
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_EQ(result.value().records.size(),
                  goldenDataset().records.size());
        EXPECT_TRUE(result.value().corruption_counts.empty());
    }
    {
        std::istringstream is(goldenSnapshotBytes());
        auto result = model::loadTlpSnapshot(is);
        ASSERT_TRUE(result.ok()) << result.status().toString();
    }
    {
        std::istringstream is(goldenCheckpointBytes());
        const Status status = tune::verifyCheckpoint(is);
        EXPECT_TRUE(status.ok()) << status.toString();
    }
    {
        std::istringstream is(goldenMemoBytes());
        auto result = bench::loadBenchMemo(is, kMemoFingerprint);
        ASSERT_TRUE(result.ok()) << result.status().toString();
    }
    {
        std::istringstream is(goldenTrainCheckpointBytes());
        auto result = model::loadTrainCheckpoint(is);
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_EQ(result.value().epoch, 2);
        EXPECT_EQ(result.value().steps_done, 3);
    }
}

// --- salvage semantics ---------------------------------------------------

/** Serialized bytes of one record, for bit-identity comparison. */
std::string
recordBytes(const data::ProgramRecord &record)
{
    std::ostringstream os;
    BinaryWriter writer(os);
    writer.writePod(record.group);
    record.seq.serialize(writer);
    writer.writeVector(record.latency_ms);
    return os.str();
}

TEST(Corruption, SalvageKeepsPrefixBitIdenticallyAndSkipsBadChunk)
{
    const data::Dataset &original = goldenDataset();
    ASSERT_GT(original.records.size(), 512u);   // at least 3 chunks

    std::string bytes = goldenDatasetBytes();
    const auto frames = walkFrames(bytes, 8);
    std::vector<const Frame *> record_frames;
    for (const auto &frame : frames)
        if (frame.tag == sectionTag("RECS"))
            record_frames.push_back(&frame);
    ASSERT_GE(record_frames.size(), 3u);

    // Flip one payload byte in the SECOND record chunk.
    bytes[record_frames[1]->payload_offset + 40] ^= 0x20;

    // Strict load refuses; the message names the failing section.
    {
        std::istringstream is(bytes);
        auto strict = data::Dataset::tryLoad(is);
        ASSERT_FALSE(strict.ok());
        EXPECT_EQ(strict.status().code(), ErrorCode::Corrupt);
        EXPECT_NE(strict.status().message().find("records"),
                  std::string::npos);
    }

    // Salvage skips exactly that chunk and keeps everything else.
    std::istringstream is(bytes);
    data::LoadOptions options;
    options.salvage = true;
    auto result = data::Dataset::tryLoad(is, options);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const auto salvaged = result.take();

    EXPECT_EQ(salvaged.corruption_counts.at("records_crc"), 1);
    EXPECT_EQ(salvaged.records.size(), original.records.size() - 256);

    // Every record before the corrupted chunk is bit-identical...
    for (size_t r = 0; r < 256; ++r) {
        ASSERT_EQ(recordBytes(salvaged.records[r]),
                  recordBytes(original.records[r]))
            << "record " << r;
    }
    // ...and the chunks after it were recovered too, shifted left.
    for (size_t r = 256; r < salvaged.records.size(); ++r) {
        ASSERT_EQ(recordBytes(salvaged.records[r]),
                  recordBytes(original.records[r + 256]))
            << "record " << r;
    }
}

TEST(Corruption, SalvageSurvivesTruncationAfterFirstChunk)
{
    const data::Dataset &original = goldenDataset();
    std::string bytes = goldenDatasetBytes();
    const auto frames = walkFrames(bytes, 8);
    std::vector<const Frame *> record_frames;
    for (const auto &frame : frames)
        if (frame.tag == sectionTag("RECS"))
            record_frames.push_back(&frame);
    ASSERT_GE(record_frames.size(), 2u);

    // Cut the file in the middle of the second record chunk.
    bytes.resize(record_frames[1]->payload_offset + 10);

    std::istringstream is(bytes);
    data::LoadOptions options;
    options.salvage = true;
    auto result = data::Dataset::tryLoad(is, options);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const auto salvaged = result.take();

    EXPECT_EQ(salvaged.records.size(), 256u);
    EXPECT_FALSE(salvaged.corruption_counts.empty());
    for (size_t r = 0; r < salvaged.records.size(); ++r) {
        ASSERT_EQ(recordBytes(salvaged.records[r]),
                  recordBytes(original.records[r]));
    }
}

TEST(Corruption, SalvageCannotRecoverWithoutTheSpine)
{
    // Corrupt the META section: no salvage is possible without the
    // platform axis.
    std::string bytes = goldenDatasetBytes();
    const auto frames = walkFrames(bytes, 8);
    ASSERT_FALSE(frames.empty());
    ASSERT_EQ(frames[0].tag, sectionTag("META"));
    bytes[frames[0].payload_offset] ^= 0xff;

    std::istringstream is(bytes);
    data::LoadOptions options;
    options.salvage = true;
    auto result = data::Dataset::tryLoad(is, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::Corrupt);
    EXPECT_NE(result.status().message().find("meta"), std::string::npos);
}

// --- version skew: every format reports it cleanly ----------------------

/** Overwrite the version field (bytes 4..7 after @p at) of @p bytes. */
std::string
withVersion(std::string bytes, uint32_t version, size_t at = 4)
{
    std::memcpy(bytes.data() + at, &version, 4);
    return bytes;
}

TEST(Corruption, DatasetVersionSkewIsClean)
{
    // A future (v+1) file and an ancient v1 file both get VersionSkew.
    for (const uint32_t version :
         {data::Dataset::kFormatVersion + 1, 1u}) {
        std::istringstream is(withVersion(goldenDatasetBytes(), version));
        auto result = data::Dataset::tryLoad(is);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), ErrorCode::VersionSkew)
            << result.status().toString();
        EXPECT_NE(result.status().message().find("version"),
                  std::string::npos);
    }
}

TEST(Corruption, SnapshotVersionSkewIsClean)
{
    for (const uint32_t version : {model::kSnapshotVersion + 1, 0u}) {
        std::istringstream is(withVersion(goldenSnapshotBytes(), version));
        auto result = model::loadTlpSnapshot(is);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), ErrorCode::VersionSkew)
            << result.status().toString();
    }
}

TEST(Corruption, CheckpointVersionSkewIsClean)
{
    // v2 (pre-guarded-search) checkpoints still load; v5 and v1 do not.
    for (const uint32_t version : {5u, 1u}) {
        std::istringstream is(
            withVersion(goldenCheckpointBytes(), version));
        const Status status = tune::verifyCheckpoint(is);
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), ErrorCode::VersionSkew)
            << status.toString();
    }
}

/** Hand-built v3 checkpoint bytes (narrow curve points, no phase byte);
 *  a valid-but-different artifact for skew and crash-drill tests. */
std::string
v3CheckpointBytes()
{
    struct NarrowCurvePoint
    {
        int64_t measurements;
        double search_seconds;
        double workload_latency_ms;
    };
    std::ostringstream os;
    BinaryWriter writer(os);
    writeHeader(writer, 0x544c5053, 3);
    writeSection(writer, sectionTag("STAT"), [&](BinaryWriter &w) {
        w.writePod<uint64_t>(0xfeedULL);    // digest (unchecked on verify)
        w.writePod<int32_t>(2);             // rounds_done
        Rng rng(7);
        rng.serialize(w);
        hw::Measurer measurer(hw::HardwarePlatform::preset("i7-10510u"),
                              hw::MeasureOptions{}, 7);
        measurer.serializeState(w);
        w.writePod<double>(0.25);           // model_seconds
        w.writePod<int64_t>(8);             // total_measurements
        std::vector<NarrowCurvePoint> curve{{4, 0.5, 9.0}, {8, 1.0, 7.5}};
        w.writeVector(curve);
        std::vector<double> best{7.5};
        w.writeVector(best);
        w.writePod<uint32_t>(1);            // num_tasks
        w.writePod<double>(7.5);            // best_ms
        w.writePod<int32_t>(2);             // rounds_done
        w.writePod<double>(0.1);            // last_improvement
        std::vector<uint64_t> hashes{1, 2, 3};
        w.writeVector(hashes);
        w.writePod<uint64_t>(0);            // num history rounds
        w.writeString("random:5");          // v3: model name
        w.writeString("");                  // v3: model state blob
    });
    return os.str();
}

TEST(Corruption, CheckpointV3StillLoads)
{
    // The format bump to v4 must not orphan existing v3 checkpoints.
    std::istringstream is(v3CheckpointBytes());
    const Status status = tune::verifyCheckpoint(is);
    EXPECT_TRUE(status.ok()) << status.toString();
}

TEST(Corruption, TrainCheckpointVersionSkewIsClean)
{
    for (const uint32_t version :
         {model::kTrainCheckpointVersion + 1, 0u}) {
        std::istringstream is(
            withVersion(goldenTrainCheckpointBytes(), version));
        const Status status = model::verifyTrainCheckpoint(is);
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), ErrorCode::VersionSkew)
            << status.toString();
    }
}

TEST(Corruption, BenchMemoVersionSkewIsClean)
{
    for (const uint32_t version : {bench::kMemoVersion + 1, 1u}) {
        std::istringstream is(withVersion(goldenMemoBytes(), version));
        auto result = bench::loadBenchMemo(is, kMemoFingerprint);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), ErrorCode::VersionSkew)
            << result.status().toString();
    }
}

TEST(Corruption, BenchMemoStaleFingerprintIsClean)
{
    std::istringstream is(goldenMemoBytes());
    auto result = bench::loadBenchMemo(is, kMemoFingerprint + 1);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::Invalid);
    EXPECT_NE(result.status().message().find("stale"), std::string::npos);
}

// --- write-side crash consistency (DESIGN.md §14) ------------------------
//
// For every artifact format: save generation 1, then attempt a
// generation-2 overwrite under every injectable fault point — open
// failure, torn write truncated at each section boundary +/- 1 byte,
// flush failure, rename failure, each leaving crash debris. After every
// fault the on-disk file must still be gen-1 bit for bit and must still
// load cleanly: a torn artifact must never be observable through the
// loaders.

/** Every interesting truncation point of @p bytes: file edges plus each
 *  frame's tag / payload / end offsets, each +/- 1. */
std::vector<size_t>
tornCuts(const std::string &bytes, size_t header)
{
    std::set<size_t> cuts{0, 1, header};
    for (const Frame &frame : walkFrames(bytes, header)) {
        const size_t marks[3] = {
            frame.offset, frame.payload_offset,
            frame.payload_offset +
                static_cast<size_t>(frame.payload_size)};
        for (const size_t mark : marks) {
            if (mark > 0)
                cuts.insert(mark - 1);
            cuts.insert(mark);
            cuts.insert(mark + 1);
        }
    }
    std::vector<size_t> out;
    for (const size_t cut : cuts)
        if (cut <= bytes.size())
            out.push_back(cut);
    return out;
}

/**
 * Run the full save-fault enumeration for one format. @p load is the
 * real path-level loader; it must succeed on an intact artifact and
 * report a clean Status otherwise.
 */
void
runSaveDrill(const std::string &name, const std::string &gen1,
             const std::string &gen2, size_t header,
             const std::function<Status(const std::string &)> &load)
{
    namespace fs = std::filesystem;
    ASSERT_FALSE(gen1.empty());
    ASSERT_FALSE(gen2.empty());
    ASSERT_NE(gen1, gen2);

    const std::string path = test::scratchDir(name) + "/" + name + ".bin";
    ScopedIoFaults scope{IoFaultProfile{}};   // chaos off; counters reset

    IoEnv &env = IoEnv::global();
    const auto write = [&](const std::string &bytes) {
        return atomicWriteFile(path, [&](std::ostream &os) {
            os.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
        });
    };
    const auto readBack = [&] {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    };

    // Fault during the very first save: no artifact may appear, and the
    // loader reports a clean miss — never a parse of torn bytes.
    IoFaultDecision first;
    first.kind = IoFaultKind::TornWrite;
    first.torn_at = static_cast<int64_t>(gen1.size() / 2);
    first.crash_debris = true;
    env.armNextWrite(first);
    EXPECT_FALSE(write(gen1).ok());
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(load(path).ok());

    ASSERT_TRUE(write(gen1).ok());
    ASSERT_EQ(readBack(), gen1);
    {
        const Status loaded = load(path);
        ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.toString();
    }

    // Every fault point of the gen-2 overwrite, with crash debris.
    std::vector<IoFaultDecision> points;
    for (const IoFaultKind kind :
         {IoFaultKind::OpenFail, IoFaultKind::FlushFail,
          IoFaultKind::RenameFail}) {
        IoFaultDecision decision;
        decision.kind = kind;
        decision.crash_debris = true;
        points.push_back(decision);
    }
    for (const size_t cut : tornCuts(gen2, header)) {
        IoFaultDecision decision;
        decision.kind = IoFaultKind::TornWrite;
        decision.torn_at = static_cast<int64_t>(cut);
        decision.crash_debris = true;
        points.push_back(decision);
    }

    for (const IoFaultDecision &decision : points) {
        env.armNextWrite(decision);
        const Status status = write(gen2);
        const std::string what = name + std::string(" under ") +
                                 ioFaultKindName(decision.kind) +
                                 " torn_at=" +
                                 std::to_string(decision.torn_at);
        EXPECT_FALSE(status.ok()) << what;
        ASSERT_EQ(readBack(), gen1) << what;
        const Status loaded = load(path);
        ASSERT_TRUE(loaded.ok()) << what << ": " << loaded.toString();
    }

    // Every fault past open stranded a debris temp; OpenFail never made
    // one but the first-save fault did, so the tally is points.size().
    const int swept = sweepStaleTempsFor(path);
    EXPECT_EQ(swept, static_cast<int>(points.size()));
    EXPECT_TRUE(fs::exists(path));

    // With chaos gone the overwrite commits and loads as gen-2.
    ASSERT_TRUE(write(gen2).ok());
    EXPECT_EQ(readBack(), gen2);
    {
        const Status loaded = load(path);
        EXPECT_TRUE(loaded.ok()) << name << ": " << loaded.toString();
    }
    EXPECT_EQ(env.counters().writes_committed, 2);
}

TEST(CrashConsistency, DatasetSaveFaultsKeepPreviousArtifact)
{
    std::ostringstream os;
    tinyDataset().save(os);
    runSaveDrill("dataset", os.str(), goldenDatasetBytes(), 8,
                 [](const std::string &path) {
                     return data::Dataset::tryLoad(path).status();
                 });
}

TEST(CrashConsistency, SnapshotSaveFaultsKeepPreviousArtifact)
{
    Rng rng(21);
    model::TlpNet net(model::TlpNetConfig{}, rng);
    std::ostringstream os;
    model::saveTlpSnapshot(os, net);
    runSaveDrill("snapshot", os.str(), goldenSnapshotBytes(), 8,
                 [](const std::string &path) {
                     return model::loadTlpSnapshot(path).status();
                 });
}

TEST(CrashConsistency, CheckpointSaveFaultsKeepPreviousArtifact)
{
    runSaveDrill("checkpoint", v3CheckpointBytes(),
                 goldenCheckpointBytes(), 8,
                 [](const std::string &path) {
                     return tune::verifyCheckpoint(path);
                 });
}

TEST(CrashConsistency, TrainCheckpointSaveFaultsKeepPreviousArtifact)
{
    Rng rng(14);
    nn::Tensor w = nn::Tensor::randn({8}, rng, 1.0);
    nn::Adam adam({w}, {.lr = 0.01});
    model::SupervisorOptions options;
    options.enabled = true;
    model::TrainSupervisor supervisor({w}, adam, options);
    supervisor.step([&] {
        adam.zeroGrad();
        auto &grad = w.grad();
        for (size_t j = 0; j < grad.size(); ++j)
            grad[j] = 0.2f * static_cast<float>(j + 1);
        return 2.0;
    });
    std::ostringstream os(std::ios::binary);
    model::writeTrainCheckpoint(os, supervisor.makeCheckpoint(1));
    runSaveDrill("train_ckpt", os.str(), goldenTrainCheckpointBytes(), 8,
                 [](const std::string &path) {
                     return model::loadTrainCheckpoint(path).status();
                 });
}

TEST(CrashConsistency, BenchMemoSaveFaultsKeepPreviousArtifact)
{
    std::ostringstream os;
    bench::writeBenchMemo(os, kMemoFingerprint, tinyDataset());
    runSaveDrill("memo", os.str(), goldenMemoBytes(), 24,
                 [](const std::string &path) {
                     return bench::loadBenchMemo(path, kMemoFingerprint)
                         .status();
                 });
}

// --- model snapshots: cross-architecture and dimension bombs ------------

TEST(Corruption, SnapshotArchMismatchIsClean)
{
    Rng rng(5);
    model::TensetMlpNet mlp(model::MlpConfig{}, rng);
    std::ostringstream os;
    model::saveMlpSnapshot(os, mlp);

    std::istringstream is(os.str());
    auto result = model::loadTlpSnapshot(is);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::Invalid);
    EXPECT_NE(result.status().message().find("architecture"),
              std::string::npos);
}

TEST(Corruption, SnapshotRoundTripPredictsIdentically)
{
    Rng rng(9);
    model::TlpNet net(model::TlpNetConfig{}, rng);
    std::ostringstream os;
    model::saveTlpSnapshot(os, net);
    std::istringstream is(os.str());
    auto result = model::loadTlpSnapshot(is);
    ASSERT_TRUE(result.ok()) << result.status().toString();

    // Same config and bit-identical parameters => identical bytes when
    // saved again.
    std::ostringstream os2;
    model::saveTlpSnapshot(os2, *result.value());
    EXPECT_EQ(os.str(), os2.str());
}

} // namespace
} // namespace tlp
