/**
 * @file
 * Unit tests for the support library: RNG, serialization, strings,
 * statistics, tables, and arg parsing.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "support/argparse.h"
#include "support/config.h"
#include "support/io_env.h"
#include "support/rng.h"
#include "support/serialize.h"
#include "support/stats.h"
#include "support/str_util.h"
#include "support/table.h"
#include "scratch.h"

namespace tlp {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, RandintBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.randint(10);
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 10);
    }
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.randint(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i)
        stat.add(rng.normal());
    EXPECT_NEAR(stat.mean(), 0.0, 0.05);
    EXPECT_NEAR(stat.stddev(), 1.0, 0.05);
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(13);
    std::vector<double> weights = {0.0, 1.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 4000; ++i)
        counts[rng.weightedIndex(weights)]++;
    EXPECT_EQ(counts[0], 0);
    EXPECT_GT(counts[2], counts[1]);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(17);
    std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
    auto shuffled = values;
    rng.shuffle(shuffled);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, values);
}

TEST(Hash, FnvAndCombineStable)
{
    const std::string text = "hello";
    EXPECT_EQ(fnv1a(text.data(), text.size()),
              fnv1a(text.data(), text.size()));
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

/** Expect @p body to throw SerializeError carrying @p code and @p text. */
template <typename Fn>
void
expectSerializeError(Fn &&body, ErrorCode code, const std::string &text)
{
    try {
        body();
        FAIL() << "expected SerializeError(" << errorCodeName(code) << ")";
    } catch (const SerializeError &error) {
        EXPECT_EQ(error.code(), code) << error.what();
        EXPECT_NE(std::string(error.what()).find(text), std::string::npos)
            << error.what();
    }
}

TEST(Serialize, RoundTripPodStringVector)
{
    std::stringstream ss;
    {
        BinaryWriter writer(ss);
        writeHeader(writer, 0xABCD, 3);
        writer.writePod<int64_t>(-17);
        writer.writeString("schedule");
        writer.writeVector<float>({1.5f, -2.5f});
    }
    BinaryReader reader(ss);
    readHeader(reader, 0xABCD, 1, 3);
    EXPECT_EQ(reader.readPod<int64_t>(), -17);
    EXPECT_EQ(reader.readString(), "schedule");
    const auto floats = reader.readVector<float>();
    ASSERT_EQ(floats.size(), 2u);
    EXPECT_FLOAT_EQ(floats[0], 1.5f);
    EXPECT_FLOAT_EQ(floats[1], -2.5f);
}

TEST(Serialize, ReadHeaderReturnsOlderVersion)
{
    std::stringstream ss;
    {
        BinaryWriter writer(ss);
        writeHeader(writer, 0xABCD, 1);
    }
    BinaryReader reader(ss);
    EXPECT_EQ(readHeader(reader, 0xABCD, 1, 3), 1u);
}

TEST(Serialize, WrongMagicThrowsCorrupt)
{
    std::stringstream ss;
    {
        BinaryWriter writer(ss);
        writeHeader(writer, 0x1111, 1);
    }
    BinaryReader reader(ss);
    expectSerializeError([&] { readHeader(reader, 0x2222, 1, 1); },
                         ErrorCode::Corrupt, "bad file magic");
}

TEST(Serialize, VersionOutsideRangeThrowsVersionSkew)
{
    std::stringstream future;
    {
        BinaryWriter writer(future);
        writeHeader(writer, 0xABCD, 9);
    }
    BinaryReader future_reader(future);
    expectSerializeError(
        [&] { readHeader(future_reader, 0xABCD, 1, 3); },
        ErrorCode::VersionSkew, "outside the supported range");

    std::stringstream past;
    {
        BinaryWriter writer(past);
        writeHeader(writer, 0xABCD, 1);
    }
    BinaryReader past_reader(past);
    expectSerializeError([&] { readHeader(past_reader, 0xABCD, 2, 3); },
                         ErrorCode::VersionSkew,
                         "outside the supported range");
}

TEST(Serialize, TruncatedStreamThrows)
{
    // A short header, a short string body, and a short vector body are
    // all recoverable parse failures, not internal bugs.
    std::stringstream empty;
    BinaryReader reader(empty);
    expectSerializeError([&] { readHeader(reader, 0xABCD, 1, 1); },
                         ErrorCode::Truncated, "truncated binary stream");

    std::stringstream short_string;
    {
        BinaryWriter writer(short_string);
        writer.writePod<uint64_t>(100);   // promises 100 bytes, has none
    }
    BinaryReader string_reader(short_string);
    expectSerializeError([&] { string_reader.readString(); },
                         ErrorCode::Truncated, "truncated binary stream");

    std::stringstream short_vector;
    {
        BinaryWriter writer(short_vector);
        writer.writePod<uint64_t>(5);
        writer.writePod<float>(1.0f);     // 1 of 5 promised floats
    }
    BinaryReader vector_reader(short_vector);
    expectSerializeError([&] { vector_reader.readVector<float>(); },
                         ErrorCode::Truncated, "exceeds");
}

TEST(Serialize, Crc32KnownAnswer)
{
    // The reflected IEEE polynomial's canonical check value.
    const std::string check = "123456789";
    EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Serialize, SectionRoundTripAndCorruptionDetection)
{
    std::stringstream ss;
    {
        BinaryWriter writer(ss);
        writeSection(writer, sectionTag("ABCD"),
                     [](BinaryWriter &w) { w.writeString("payload"); });
    }
    std::string bytes = ss.str();

    std::istringstream good(bytes);
    BinaryReader good_reader(good);
    Section section = readSection(good_reader);
    EXPECT_EQ(section.tag, sectionTag("ABCD"));
    EXPECT_TRUE(section.crc_ok);
    EXPECT_EQ(good_reader.remaining(), 0u);

    // Flip one payload byte: the frame still parses, the CRC flags it.
    bytes[bytes.size() - 1] ^= 0x40;
    std::istringstream bad(bytes);
    BinaryReader bad_reader(bad);
    EXPECT_FALSE(readSection(bad_reader).crc_ok);
}

TEST(Serialize, HugeLengthPrefixRejectedBeforeAllocation)
{
    // A section that advertises a multi-GB payload in a tiny stream must
    // fail by bounds check (cheap), not by allocating the advertised size.
    std::stringstream ss;
    {
        BinaryWriter writer(ss);
        writer.writePod<uint32_t>(sectionTag("EVIL"));
        writer.writePod<uint64_t>(1ull << 40);   // 1 TiB length prefix
        writer.writePod<uint32_t>(0);            // crc
    }
    BinaryReader reader(ss);
    expectSerializeError([&] { readSection(reader); },
                         ErrorCode::Truncated, "truncated binary stream");
}

TEST(Serialize, AtomicWriteFileCommitsAndCleansUp)
{
    const std::string path = test::scratchDir() + "/atomic_write.bin";

    Status status = atomicWriteFile(
        path, [](std::ostream &os) { os << "generation-1"; });
    EXPECT_TRUE(status.ok()) << status.toString();
    {
        std::ifstream is(path);
        std::string body((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        EXPECT_EQ(body, "generation-1");
    }
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());

    // A throwing body must leave the previous file untouched.
    status = atomicWriteFile(path, [](std::ostream &os) {
        os << "gen";
        throw std::runtime_error("simulated write failure");
    });
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::IoError);
    {
        std::ifstream is(path);
        std::string body((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        EXPECT_EQ(body, "generation-1");
    }
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

// --- I/O chaos environment (DESIGN.md §14) ------------------------------

TEST(IoEnv, DrawIsAPureFunctionOfSeedPathAndOp)
{
    IoFaultProfile profile;
    profile.fault_rate = 0.5;
    profile.seed = 0x5eed;

    const uint64_t fp = fnv1a("a/b.ckpt", 8);
    int faults = 0;
    for (uint64_t op = 0; op < 256; ++op) {
        const IoFaultDecision first = profile.draw(fp, op);
        const IoFaultDecision again = profile.draw(fp, op);
        EXPECT_EQ(first.kind, again.kind) << op;
        EXPECT_EQ(first.aux, again.aux) << op;
        faults += first.kind != IoFaultKind::None ? 1 : 0;
    }
    // Roughly rate-many faults; exact value pinned by the seed.
    EXPECT_GT(faults, 64);
    EXPECT_LT(faults, 192);

    // Another path or another seed draws a different schedule.
    IoFaultProfile reseeded = profile;
    reseeded.seed = 0x5eee;
    int diverged = 0;
    for (uint64_t op = 0; op < 64; ++op) {
        diverged +=
            profile.draw(fp, op).kind != profile.draw(fp + 1, op).kind;
        diverged +=
            profile.draw(fp, op).kind != reseeded.draw(fp, op).kind;
    }
    EXPECT_GT(diverged, 8);

    // Disabled profiles never fault.
    const IoFaultProfile off;
    for (uint64_t op = 0; op < 16; ++op)
        EXPECT_EQ(off.draw(fp, op).kind, IoFaultKind::None);
}

TEST(IoEnv, ArmNextWriteIsOneShot)
{
    ScopedIoFaults scope{IoFaultProfile{}};   // chaos off, counters reset
    IoEnv &env = IoEnv::global();

    IoFaultDecision torn;
    torn.kind = IoFaultKind::TornWrite;
    torn.torn_at = 7;
    env.armNextWrite(torn);

    const IoFaultDecision first = env.drawWrite("/tmp/x.bin");
    EXPECT_EQ(first.kind, IoFaultKind::TornWrite);
    EXPECT_EQ(first.torn_at, 7);
    EXPECT_EQ(env.drawWrite("/tmp/x.bin").kind, IoFaultKind::None);
    EXPECT_EQ(env.counters().writes_attempted, 2);
    EXPECT_EQ(env.counters().torn_faults, 1);
}

TEST(IoEnv, ScopedIoFaultsRestoresThePriorProfile)
{
    const IoFaultProfile before = IoEnv::global().profile();
    {
        IoFaultProfile chaos;
        chaos.fault_rate = 0.25;
        chaos.seed = 42;
        ScopedIoFaults scope(chaos);
        EXPECT_DOUBLE_EQ(IoEnv::global().profile().fault_rate, 0.25);
        EXPECT_EQ(IoEnv::global().profile().seed, 42u);
    }
    EXPECT_DOUBLE_EQ(IoEnv::global().profile().fault_rate,
                     before.fault_rate);
    EXPECT_EQ(IoEnv::global().profile().seed, before.seed);
}

TEST(IoEnv, AtomicWriteFaultsKeepThePreviousFileAndControlDebris)
{
    ScopedIoFaults scope{IoFaultProfile{}};
    IoEnv &env = IoEnv::global();
    const std::string path = test::scratchDir() + "/io_env_write.bin";

    ASSERT_TRUE(
        atomicWriteFile(path, [](std::ostream &os) { os << "v1"; }).ok());

    // Torn write without debris: error, previous file kept, no temps.
    IoFaultDecision torn;
    torn.kind = IoFaultKind::TornWrite;
    torn.torn_at = 1;
    env.armNextWrite(torn);
    Status status =
        atomicWriteFile(path, [](std::ostream &os) { os << "v2"; });
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::IoError);
    EXPECT_EQ(sweepStaleTempsFor(path), 0);

    // The same fault with crash debris strands exactly one temp.
    torn.crash_debris = true;
    env.armNextWrite(torn);
    EXPECT_FALSE(
        atomicWriteFile(path, [](std::ostream &os) { os << "v2"; }).ok());
    EXPECT_EQ(sweepStaleTempsFor(path), 1);

    std::ifstream is(path);
    std::string body((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(body, "v1");
}

TEST(IoEnv, CheckReadInjectsAReplayableSchedule)
{
    const char *path = "/tmp/never_opened.bin";
    std::vector<bool> first;
    for (int pass = 0; pass < 2; ++pass) {
        IoFaultProfile chaos;
        chaos.fault_rate = 0.5;
        chaos.seed = 0xbeef;
        ScopedIoFaults scope(chaos);
        std::vector<bool> outcomes;
        for (int i = 0; i < 64; ++i)
            outcomes.push_back(IoEnv::global().checkRead(path).ok());
        const int64_t faults = IoEnv::global().counters().read_faults;
        EXPECT_GT(faults, 8);
        EXPECT_LT(faults, 56);
        if (pass == 0)
            first = outcomes;
        else
            EXPECT_EQ(first, outcomes);
    }
    // Chaos off: reads always pass.
    EXPECT_TRUE(IoEnv::global().checkRead(path).ok());
}

TEST(IoEnv, QuarantineArtifactNeverOverwritesEvidence)
{
    const std::string path = test::scratchDir() + "/io_env_quarantine.bin";
    const auto plant = [&](const std::string &body) {
        std::ofstream os(path, std::ios::binary);
        os << body;
    };

    plant("damaged-gen-1");
    auto first = quarantineArtifact(path);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    EXPECT_EQ(first.value(), path + ".quarantined.1");

    plant("damaged-gen-2");
    auto second = quarantineArtifact(path);
    ASSERT_TRUE(second.ok()) << second.status().toString();
    EXPECT_EQ(second.value(), path + ".quarantined.2");

    // Both generations of evidence survive, with their own bytes.
    std::ifstream one(path + ".quarantined.1");
    std::ifstream two(path + ".quarantined.2");
    std::string b1((std::istreambuf_iterator<char>(one)),
                   std::istreambuf_iterator<char>());
    std::string b2((std::istreambuf_iterator<char>(two)),
                   std::istreambuf_iterator<char>());
    EXPECT_EQ(b1, "damaged-gen-1");
    EXPECT_EQ(b2, "damaged-gen-2");
    EXPECT_FALSE(std::ifstream(path).good());
}

TEST(IoEnv, SweepMatchesOnlyStaleTempNames)
{
    namespace fs = std::filesystem;
    const std::string dir = test::scratchDir();
    const auto plant = [&](const std::string &name) {
        std::ofstream os(dir + "/" + name, std::ios::binary);
        os << "x";
    };
    plant("model.bin");
    plant("model.bin.tmp.100.0");
    plant("model.bin.tmp.100.1");
    plant("model.bin.tmp.nope.2");   // non-numeric pid: kept
    plant("other.tmp");              // no pid/seq tail: kept

    EXPECT_EQ(sweepStaleTemps(dir), 2);
    EXPECT_EQ(sweepStaleTemps(dir), 0);   // idempotent
    EXPECT_TRUE(fs::exists(dir + "/model.bin"));
    EXPECT_TRUE(fs::exists(dir + "/model.bin.tmp.nope.2"));
    EXPECT_TRUE(fs::exists(dir + "/other.tmp"));
    // The single-artifact variant only reaps temps of that artifact.
    plant("model.bin.tmp.100.3");
    plant("rival.bin.tmp.100.4");
    EXPECT_EQ(sweepStaleTempsFor(dir + "/model.bin"), 1);
    EXPECT_TRUE(fs::exists(dir + "/rival.bin.tmp.100.4"));
}

TEST(Rng, SerializeRoundTripContinuesIdentically)
{
    Rng rng(99);
    for (int i = 0; i < 37; ++i)
        rng.next();
    rng.normal();   // leave a cached Box-Muller value in flight

    std::stringstream ss;
    {
        BinaryWriter writer(ss);
        rng.serialize(writer);
    }
    BinaryReader reader(ss);
    Rng restored = Rng::deserialize(reader);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(restored.next(), rng.next());
    EXPECT_DOUBLE_EQ(restored.normal(), rng.normal());
}

TEST(StrUtil, SplitJoin)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, "/"), "a/b//c");
}

TEST(StrUtil, PrefixSuffixStrip)
{
    EXPECT_TRUE(startsWith("tensor", "ten"));
    EXPECT_FALSE(startsWith("ten", "tensor"));
    EXPECT_TRUE(endsWith("buffer.local", ".local"));
    EXPECT_EQ(strip("  x \n"), "x");
}

TEST(StrUtil, Format)
{
    EXPECT_EQ(strFormat("%d-%s", 3, "x"), "3-x");
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(humanCount(1536000), "1.5M");
}

TEST(Stats, RunningStatMoments)
{
    RunningStat stat;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        stat.add(v);
    EXPECT_DOUBLE_EQ(stat.mean(), 2.5);
    EXPECT_DOUBLE_EQ(stat.min(), 1.0);
    EXPECT_DOUBLE_EQ(stat.max(), 4.0);
    EXPECT_NEAR(stat.variance(), 1.25, 1e-12);
}

TEST(Stats, HistogramModeAndCounts)
{
    IntHistogram hist;
    for (int64_t k : {3, 3, 3, 5, 7})
        hist.add(k);
    EXPECT_EQ(hist.total(), 5u);
    EXPECT_EQ(hist.countOf(3), 3u);
    EXPECT_EQ(hist.countOf(4), 0u);
    EXPECT_EQ(hist.modeKey(), 3);
    EXPECT_EQ(hist.minKey(), 3);
    EXPECT_EQ(hist.maxKey(), 7);
}

TEST(Stats, PearsonAndSpearman)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
    EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
    std::vector<double> zs = {10, 8, 6, 4, 2};
    EXPECT_NEAR(spearman(xs, zs), -1.0, 1e-12);
}

TEST(Table, RendersAlignedRows)
{
    TextTable table("title");
    table.setHeader({"a", "bbb"});
    table.addRow({"1", "2"});
    const std::string out = table.render();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("| a "), std::string::npos);
    EXPECT_NE(out.find("bbb"), std::string::npos);
}

TEST(ArgParse, ParsesTypes)
{
    ArgParser parser("test");
    parser.addInt("n", 5, "count");
    parser.addString("name", "x", "name");
    parser.addBool("flag", false, "flag");
    parser.addDouble("rate", 0.5, "rate");
    const char *argv[] = {"prog", "--n", "9", "--name=abc", "--flag",
                          "--rate", "0.25"};
    parser.parse(7, const_cast<char **>(argv));
    EXPECT_EQ(parser.getInt("n"), 9);
    EXPECT_EQ(parser.getString("name"), "abc");
    EXPECT_TRUE(parser.getBool("flag"));
    EXPECT_DOUBLE_EQ(parser.getDouble("rate"), 0.25);
}

TEST(Config, ScaledCountHasFloor)
{
    EXPECT_GE(scaledCount(100, 10), 10);
}

} // namespace
} // namespace tlp
