/**
 * @file
 * Deterministic corruption fuzzer for every on-disk artifact format:
 * datasets, model snapshots, and tuning checkpoints.
 *
 * Each format's golden bytes are mutated >= 500 times with seeded byte
 * flips, truncations (random and at section boundaries), zeroed spans,
 * and inflated length prefixes; every mutant must come back as a clean
 * Status (or, rarely, as a still-valid artifact) — never a crash, hang,
 * or allocation proportional to a hostile length field. Salvage-mode
 * recovery and version-skew reporting are pinned down exactly, and so
 * is the shared read path every loader goes through (ArtifactIo.*).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "dataset/collect.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "models/snapshot.h"
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
    // v2 (pre-guarded-search) checkpoints still load; v6 and v1 do not.
    for (const uint32_t version : {6u, 1u}) {
        std::istringstream is(
            withVersion(goldenCheckpointBytes(), version));
        const Status status = tune::verifyCheckpoint(is);
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), ErrorCode::VersionSkew)
            << status.toString();
    }
}

/** Hand-built checkpoint bytes of the wall-clock-carrying layouts: v3
 *  (narrow curve points, no phase byte) or v4 (wide curve points and a
 *  phase byte). A valid-but-different artifact for skew and crash-drill
 *  tests. @p measurer_state replaces a fresh measurer's state bytes
 *  when non-empty. */
std::string
legacyCheckpointBytes(uint32_t version,
                      const std::string &measurer_state = "")
{
    struct NarrowCurvePoint
    {
        int64_t measurements;
        double search_seconds;
        double workload_latency_ms;
    };
    std::ostringstream os;
    BinaryWriter writer(os);
    writeHeader(writer, 0x544c5053, version);
    writeSection(writer, sectionTag("STAT"), [&](BinaryWriter &w) {
        w.writePod<uint64_t>(0xfeedULL);    // digest (unchecked on verify)
        w.writePod<int32_t>(2);             // rounds_done
        Rng rng(7);
        rng.serialize(w);
        if (measurer_state.empty()) {
            hw::Measurer measurer(
                hw::HardwarePlatform::preset("i7-10510u"),
                hw::MeasureOptions{}, 7);
            measurer.serializeState(w);
        } else {
            w.writeBytes(measurer_state);
        }
        w.writePod<double>(0.25);           // model_seconds
        w.writePod<int64_t>(8);             // total_measurements
        if (version >= 4) {
            std::vector<tune::CurvePoint> curve{{4, 0.5, 9.0, 0.25},
                                                {8, 1.0, 7.5, 0.75}};
            w.writeVector(curve);
        } else {
            std::vector<NarrowCurvePoint> curve{{4, 0.5, 9.0},
                                                {8, 1.0, 7.5}};
            w.writeVector(curve);
        }
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
        if (version >= 4)
            w.writePod<uint8_t>(1);         // v4: phase (running)
    });
    return os.str();
}

TEST(Corruption, CheckpointV3StillLoads)
{
    // Later format bumps must not orphan existing v3 checkpoints.
    std::istringstream is(legacyCheckpointBytes(3));
    const Status status = tune::verifyCheckpoint(is);
    EXPECT_TRUE(status.ok()) << status.toString();
}

TEST(Corruption, CheckpointV4StillLoads)
{
    // v5 dropped the wall-clock fields; v4 files carrying them still load.
    std::istringstream is(legacyCheckpointBytes(4));
    const Status status = tune::verifyCheckpoint(is);
    EXPECT_TRUE(status.ok()) << status.toString();
}

/** A fresh measurer's state bytes with one quarantined candidate of
 *  status byte @p status: the quarantine map is the last field, so its
 *  zero count is rewritten and the entry appended. */
std::string
measurerStateQuarantining(uint8_t status)
{
    std::ostringstream head;
    BinaryWriter head_writer(head);
    hw::Measurer(hw::HardwarePlatform::preset("i7-10510u"),
                 hw::MeasureOptions{}, 7)
        .serializeState(head_writer);
    std::string bytes = head.str();
    bytes.resize(bytes.size() - sizeof(uint64_t));
    std::ostringstream tail;
    BinaryWriter tail_writer(tail);
    tail_writer.writePod<uint64_t>(1);        // quarantined entries
    tail_writer.writePod<uint64_t>(0xbadc0de); // candidate key
    tail_writer.writePod<uint8_t>(status);
    return bytes + tail.str();
}

TEST(Corruption, QuarantinedStatusMustBeAFailure)
{
    // The writer quarantines failures only. An Ok or out-of-range status
    // byte would index the status counters out of bounds when that
    // candidate is measured again, so verification calls it Corrupt.
    const auto failure =
        static_cast<uint8_t>(hw::MeasureStatus::Timeout);
    std::istringstream good(
        legacyCheckpointBytes(4, measurerStateQuarantining(failure)));
    const Status accepted = tune::verifyCheckpoint(good);
    EXPECT_TRUE(accepted.ok()) << accepted.toString();
    for (const int status : {0, hw::kNumMeasureStatuses, 255}) {
        std::istringstream is(legacyCheckpointBytes(
            4, measurerStateQuarantining(static_cast<uint8_t>(status))));
        const Status verdict = tune::verifyCheckpoint(is);
        ASSERT_FALSE(verdict.ok()) << status;
        EXPECT_EQ(verdict.code(), ErrorCode::Corrupt) << verdict.toString();
    }
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
    runSaveDrill("checkpoint", legacyCheckpointBytes(3),
                 goldenCheckpointBytes(), 8,
                 [](const std::string &path) {
                     return tune::verifyCheckpoint(path);
                 });
}

// --- model snapshots: cross-architecture and dimension bombs ------------

TEST(Corruption, SnapshotArchMismatchIsClean)
{
    // A well-framed snapshot whose CONF section names an architecture
    // other than TLP (arch byte 1).
    std::ostringstream os;
    BinaryWriter writer(os);
    writeHeader(writer, model::kSnapshotMagic, model::kSnapshotVersion);
    writeSection(writer, sectionTag("CONF"),
                 [](BinaryWriter &w) { w.writePod<uint8_t>(1); });
    writeSectionRaw(writer, kEndSectionTag, "");

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

// --- the shared read path (support/serialize) ---------------------------

/** Framed sections (no file header) for the readSectionsToEnd tests. */
std::string
framedSections(const std::vector<std::pair<uint32_t, std::string>> &sections)
{
    std::ostringstream os(std::ios::binary);
    BinaryWriter writer(os);
    for (const auto &[tag, payload] : sections)
        writeSectionRaw(writer, tag, payload);
    return os.str();
}

/** Run readSectionsToEnd over @p bytes, recording every handed tag. */
Status
walkSections(const std::string &bytes, std::vector<uint32_t> &seen)
{
    return guardedParse([&] {
        std::istringstream is(bytes);
        BinaryReader reader(is);
        readSectionsToEnd(reader, "test",
                          [&](uint32_t tag, BinaryReader &) {
                              seen.push_back(tag);
                          });
    });
}

TEST(ArtifactIo, SectionsToEndHandsOverEverySectionUpToTheMarker)
{
    const uint32_t data = sectionTag("DATA");
    const uint32_t unknown = sectionTag("ZZZZ");
    std::vector<uint32_t> seen;
    const Status status = walkSections(
        framedSections({{data, "a"}, {unknown, "b"}, {kEndSectionTag, ""},
                        {data, "after the marker"}}),
        seen);
    ASSERT_TRUE(status.ok()) << status.toString();
    EXPECT_EQ(seen, (std::vector<uint32_t>{data, unknown}));
}

TEST(ArtifactIo, SectionsToEndChecksumMismatchIsCorrupt)
{
    std::string bytes = framedSections(
        {{sectionTag("DATA"), "payload"}, {kEndSectionTag, ""}});
    bytes[16] ^= 0x01;   // first payload byte, past the 16-byte frame head
    std::vector<uint32_t> seen;
    const Status status = walkSections(bytes, seen);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::Corrupt) << status.toString();
    EXPECT_TRUE(seen.empty());
}

TEST(ArtifactIo, SectionsToEndMissingMarkerIsTruncated)
{
    std::vector<uint32_t> seen;
    const Status status =
        walkSections(framedSections({{sectionTag("DATA"), "x"}}), seen);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::Truncated) << status.toString();
    EXPECT_EQ(seen.size(), 1u);
}

TEST(ArtifactIo, StrictLoadersSkipUnknownSections)
{
    // Splice an unknown section in front of the closing TEND frame (the
    // last 16 bytes: an empty payload's tag, length and CRC).
    const std::string unknown =
        framedSections({{sectionTag("ZZZZ"), "from a newer writer"}});
    const auto splice = [&](const std::string &golden) {
        return golden.substr(0, golden.size() - 16) + unknown +
               golden.substr(golden.size() - 16);
    };
    std::istringstream is(splice(goldenSnapshotBytes()));
    const auto result = model::loadTlpSnapshot(is);
    EXPECT_TRUE(result.ok()) << result.status().toString();
}

TEST(ArtifactIo, EveryPathLoadMakesExactlyOneReadCheck)
{
    // Golden bytes first: building the tuning checkpoint does I/O.
    const std::vector<std::pair<std::string, std::string>> files = {
        {"dataset", goldenDatasetBytes()},
        {"snapshot", goldenSnapshotBytes()},
        {"checkpoint", goldenCheckpointBytes()},
    };
    const std::map<std::string,
                   std::function<Status(const std::string &)>>
        loaders = {
            {"dataset",
             [](const std::string &path) {
                 return data::Dataset::tryLoad(path).status();
             }},
            {"snapshot",
             [](const std::string &path) {
                 return model::loadTlpSnapshot(path).status();
             }},
            {"checkpoint",
             [](const std::string &path) {
                 return tune::verifyCheckpoint(path);
             }},
        };
    const std::string dir = test::scratchDir();
    for (const auto &[name, bytes] : files) {
        const std::string path = dir + "/" + name + ".bin";
        {
            std::ofstream os(path, std::ios::binary);
            os << bytes;
        }
        ScopedIoFaults scope{IoFaultProfile{}};   // counters reset
        const Status status = loaders.at(name)(path);
        EXPECT_TRUE(status.ok()) << name << ": " << status.toString();
        EXPECT_EQ(IoEnv::global().counters().read_checks, 1) << name;
    }
}

TEST(ArtifactIo, ReadFaultFailsBeforeTheFileIsOpened)
{
    const std::string path = test::scratchDir() + "/model.snap";
    {
        std::ofstream os(path, std::ios::binary);
        os << goldenSnapshotBytes();
    }
    IoFaultProfile always;
    always.fault_rate = 1.0;   // every read draw faults
    ScopedIoFaults scope(always);

    std::ifstream is;
    const Status opened = openArtifactFile(path, is);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.code(), ErrorCode::IoError);
    EXPECT_FALSE(is.is_open());

    bool parsed = false;
    const Status loaded = readArtifactFile(path, [&](std::istream &) {
        parsed = true;
        return Status();
    });
    EXPECT_EQ(loaded.code(), ErrorCode::IoError);
    EXPECT_FALSE(parsed);
    EXPECT_EQ(IoEnv::global().counters().read_faults, 2);
}

} // namespace
} // namespace tlp
