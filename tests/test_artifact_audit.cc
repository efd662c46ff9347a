/**
 * @file
 * Tests for the artifact audit & repair module (DESIGN.md §15): format
 * detection by magic across all three artifacts, the six-way state
 * classification, deterministic reports, repair (quarantine + sweep +
 * dataset salvage), and quarantine-generation collision handling.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "artifact/audit.h"
#include "dataset/collect.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "models/snapshot.h"
#include "support/rng.h"
#include "support/serialize.h"
#include "tuner/service/service.h"
#include "tuner/session.h"
#include "scratch.h"

namespace tlp {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory per test. */
class ArtifactAudit : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::scratchDir();
    }

    std::string
    path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    void
    plant(const std::string &name, const std::string &bytes) const
    {
        std::ofstream os(path(name), std::ios::binary);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }

    std::string
    slurp(const std::string &name) const
    {
        std::ifstream is(path(name), std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    }

    std::string dir_;
};

const data::Dataset &
smallDataset()
{
    static const data::Dataset dataset = [] {
        data::CollectOptions options;
        options.networks = {"resnet-18"};
        options.platforms = {"platinum-8272"};
        options.programs_per_subgraph = 4;
        options.seed = 21;
        return data::collectDataset(options);
    }();
    return dataset;
}

/** smallDataset() padded past one 256-record chunk, so a damaged tail
 *  chunk still leaves a whole chunk for salvage to keep. */
const data::Dataset &
chunkyDataset()
{
    static const data::Dataset dataset = [] {
        data::Dataset big = smallDataset();
        const size_t base = big.records.size();
        TLP_CHECK(base > 0);
        while (big.records.size() < 300)
            big.records.push_back(big.records[big.records.size() % base]);
        return big;
    }();
    return dataset;
}

std::string
datasetBytes(const data::Dataset &dataset)
{
    std::ostringstream os;
    dataset.save(os);
    return os.str();
}

std::string
snapshotBytes()
{
    Rng rng(7);
    model::TlpNet net(model::TlpNetConfig{}, rng);
    std::ostringstream os;
    model::saveTlpSnapshot(os, net);
    return os.str();
}

std::string
checkpointBytes()
{
    static const std::string bytes = [] {
        const std::string path = test::scratchDir("seed") + "/seed.ckpt";
        ir::Workload full =
            ir::partitionGraph(ir::buildNetwork("resnet-18"));
        ir::Workload slim;
        slim.name = "resnet-18-slice";
        slim.subgraphs.push_back(full.subgraphs[0]);
        slim.weights.push_back(full.weights[0]);
        tune::TuneOptions options;
        options.rounds = 2;
        options.measures_per_round = 4;
        options.evolution.population = 16;
        options.evolution.iterations = 1;
        options.evolution.children_per_iter = 8;
        options.checkpoint_path = path;
        options.checkpoint_every = 1;
        model::RandomCostModel cost_model(9);
        tune::tuneWorkload(slim,
                           hw::HardwarePlatform::preset("platinum-8272"),
                           cost_model, options);
        std::ifstream is(path, std::ios::binary);
        std::string contents((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
        fs::remove(path);
        return contents;
    }();
    return bytes;
}

std::string
curveBytes()
{
    tune::TuneResult result;
    return serve::formatCurveFile("s000", serve::SessionStatus::Finished,
                                  result);
}

TEST_F(ArtifactAudit, DetectsAllThreeFormatsByMagicPlusCurves)
{
    plant("d.bin", datasetBytes(smallDataset()));
    plant("w.bin", snapshotBytes());
    plant("s.bin", checkpointBytes());
    plant("c.curve", curveBytes());

    using K = artifact::ArtifactKind;
    const std::pair<const char *, K> expect[] = {
        {"d.bin", K::Dataset},          {"w.bin", K::Snapshot},
        {"s.bin", K::TuningCheckpoint}, {"c.curve", K::Curve},
    };
    for (const auto &[name, kind] : expect) {
        const artifact::ArtifactRecord record =
            artifact::auditFile(path(name));
        EXPECT_EQ(record.kind, kind) << name;
        EXPECT_EQ(record.state, artifact::ArtifactState::Intact)
            << name << ": " << record.detail;
    }
}

TEST_F(ArtifactAudit, RetiredTrainingCheckpointMagicIsUnrecognized)
{
    // Neither "TLPT" (a training checkpoint) nor "TLPM" (the bench memo
    // header older builds left in /tmp) is one of our magics: a
    // well-framed file carrying either is someone else's, not damage,
    // and repair leaves it where it is.
    constexpr uint32_t kRetiredTrainCheckpointMagic = 0x544c5054;
    constexpr uint32_t kRetiredBenchMemoMagic = 0x544c504d;
    std::ostringstream train(std::ios::binary);
    BinaryWriter train_writer(train);
    writeHeader(train_writer, kRetiredTrainCheckpointMagic, 1);
    writeSectionRaw(train_writer, sectionTag("STAT"), "epoch state");
    writeSectionRaw(train_writer, kEndSectionTag, "");
    std::ostringstream memo(std::ios::binary);
    BinaryWriter memo_writer(memo);
    writeHeader(memo_writer, kRetiredBenchMemoMagic, 2);
    memo_writer.writePod(uint64_t{0xfeedbeef});   // its fingerprint
    smallDataset().save(memo);
    const std::pair<const char *, std::string> files[] = {
        {"train.bin", train.str()},
        {"tlp_bench_cpu_i7-10510u_16.bin", memo.str()},
    };

    for (const auto &[name, bytes] : files) {
        plant(name, bytes);
        const artifact::ArtifactRecord record =
            artifact::auditFile(path(name));
        EXPECT_EQ(record.kind, artifact::ArtifactKind::Unknown) << name;
        EXPECT_EQ(record.state, artifact::ArtifactState::Unrecognized)
            << name;
    }
    EXPECT_FALSE(artifact::auditDirectory(dir_).damaged());

    const artifact::RepairReport repaired =
        artifact::repairDirectory(dir_);
    EXPECT_EQ(repaired.quarantined, 0);
    EXPECT_EQ(repaired.failures, 0);
    for (const auto &[name, bytes] : files) {
        EXPECT_EQ(slurp(name), bytes) << name;
        EXPECT_FALSE(fs::exists(path(std::string(name) + ".quarantined.1")))
            << name;
    }
}

TEST_F(ArtifactAudit, ClassifiesDamageDebrisEvidenceAndAliens)
{
    std::string corrupt = checkpointBytes();
    corrupt[corrupt.size() / 2] ^= 0x5a;
    plant("good.ckpt", checkpointBytes());
    plant("bad.ckpt", corrupt);
    plant("prose.ckpt", "definitely not a TLPS checkpoint\n");
    plant("x.ckpt.tmp.123.4", "stranded");
    plant("old.ckpt.quarantined.2", "torn evidence bytes");
    plant("README.txt", "not ours\n");

    const artifact::AuditReport report = artifact::auditDirectory(dir_);
    EXPECT_EQ(report.records.size(), 6u);
    EXPECT_EQ(report.intact, 1);
    EXPECT_EQ(report.corrupt, 2);
    EXPECT_EQ(report.stale_temps, 1);
    EXPECT_EQ(report.quarantine_evidence, 1);
    EXPECT_EQ(report.unrecognized, 1);
    EXPECT_TRUE(report.damaged());

    // The extension fallback names the format even with the magic gone.
    for (const auto &record : report.records) {
        if (record.name == "prose.ckpt") {
            EXPECT_EQ(record.kind,
                      artifact::ArtifactKind::TuningCheckpoint);
            EXPECT_EQ(record.state, artifact::ArtifactState::Corrupt);
        }
    }

    // Deterministic report: same directory, same bytes.
    EXPECT_EQ(
        artifact::formatAuditReport(report),
        artifact::formatAuditReport(artifact::auditDirectory(dir_)));
}

TEST_F(ArtifactAudit, VersionSkewIsDistinctFromCorrupt)
{
    std::string skewed = datasetBytes(smallDataset());
    // Header layout (DESIGN.md §8): u32 magic, then u32 version.
    const uint32_t future = 99;
    std::memcpy(skewed.data() + 4, &future, sizeof(future));
    plant("future.tlpd", skewed);
    const auto record = artifact::auditFile(path("future.tlpd"));
    EXPECT_EQ(record.kind, artifact::ArtifactKind::Dataset);
    EXPECT_EQ(record.state, artifact::ArtifactState::VersionSkew);
}

TEST_F(ArtifactAudit, RepairQuarantinesSweepsAndSalvages)
{
    std::string bad_ckpt = checkpointBytes();
    bad_ckpt[bad_ckpt.size() - 9] ^= 0xff;
    plant("bad.ckpt", bad_ckpt);
    plant("junk.ckpt.tmp.99.1", "debris");
    // Damage the tail record chunk of a two-chunk dataset: salvage must
    // keep the intact chunk and jail the damaged original. Walk the
    // section frames (8-byte header, then tag u32 / size u64 / crc u32
    // before each payload) to land the flip inside "RECS" payload.
    std::string hurt = datasetBytes(chunkyDataset());
    size_t last_recs_payload = 0;
    uint64_t last_recs_size = 0;
    for (size_t at = 8; at + 16 <= hurt.size();) {
        uint32_t tag = 0;
        uint64_t size = 0;
        std::memcpy(&tag, hurt.data() + at, 4);
        std::memcpy(&size, hurt.data() + at + 4, 8);
        if (size > hurt.size() - (at + 16))
            break;
        if (tag == sectionTag("RECS")) {
            last_recs_payload = at + 16;
            last_recs_size = size;
        }
        at += 16 + size;
    }
    ASSERT_GT(last_recs_size, 0u);
    hurt[last_recs_payload + last_recs_size / 2] ^= 0x5a;
    plant("data.tlpd", hurt);

    const artifact::RepairReport repaired =
        artifact::repairDirectory(dir_);
    EXPECT_EQ(repaired.quarantined, 1);
    EXPECT_EQ(repaired.swept, 1);
    EXPECT_EQ(repaired.salvaged_datasets, 1);
    EXPECT_GT(repaired.salvaged_records, 0);
    EXPECT_EQ(repaired.failures, 0);

    EXPECT_TRUE(fs::exists(path("bad.ckpt.quarantined.1")));
    EXPECT_FALSE(fs::exists(path("bad.ckpt")));
    EXPECT_FALSE(fs::exists(path("junk.ckpt.tmp.99.1")));
    // The salvaged dataset is strictly loadable; the damaged original
    // is kept as evidence.
    EXPECT_TRUE(fs::exists(path("data.tlpd.quarantined.1")));
    const auto reloaded = data::Dataset::tryLoad(path("data.tlpd"));
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().toString();
    EXPECT_GT(reloaded.value().records.size(), 0u);
    EXPECT_LT(reloaded.value().records.size(),
              chunkyDataset().records.size());

    // Idempotent: the repaired directory audits clean and a second
    // repair finds nothing.
    const artifact::AuditReport after = artifact::auditDirectory(dir_);
    EXPECT_FALSE(after.damaged());
    const artifact::RepairReport again = artifact::repairDirectory(dir_);
    EXPECT_EQ(again.quarantined, 0);
    EXPECT_EQ(again.swept, 0);
    EXPECT_EQ(again.salvaged_datasets, 0);
}

TEST_F(ArtifactAudit, QuarantineSkipsExistingGenerationsEvenSparse)
{
    // Pre-existing non-contiguous evidence: new quarantines must land
    // in the gaps, never overwriting any generation.
    plant("a.ckpt.quarantined.1", "gen one");
    plant("a.ckpt.quarantined.3", "gen three");

    plant("a.ckpt", "damaged A");
    const auto first = artifact::quarantineDamaged(path("a.ckpt"));
    EXPECT_EQ(first.jail, path("a.ckpt.quarantined.2"));

    plant("a.ckpt", "damaged B");
    const auto second = artifact::quarantineDamaged(path("a.ckpt"));
    EXPECT_EQ(second.jail, path("a.ckpt.quarantined.4"));

    EXPECT_EQ(slurp("a.ckpt.quarantined.1"), "gen one");
    EXPECT_EQ(slurp("a.ckpt.quarantined.2"), "damaged A");
    EXPECT_EQ(slurp("a.ckpt.quarantined.3"), "gen three");
    EXPECT_EQ(slurp("a.ckpt.quarantined.4"), "damaged B");
}

TEST_F(ArtifactAudit, QuarantineAtGenerationCapKeepsAllEvidence)
{
    plant("b.ckpt.quarantined.1", "gen one");
    plant("b.ckpt.quarantined.2", "gen two");
    plant("b.ckpt", "still damaged");

    // The raw primitive refuses: artifact untouched, evidence intact.
    const auto refused = quarantineArtifact(path("b.ckpt"), 2);
    EXPECT_FALSE(refused.ok());
    EXPECT_TRUE(fs::exists(path("b.ckpt")));

    // The policy wrapper falls back to unlinking the damaged file so
    // it can never be re-adopted — existing generations still intact.
    const auto action = artifact::quarantineDamaged(path("b.ckpt"), 2);
    EXPECT_TRUE(action.ok());
    EXPECT_TRUE(action.removed);
    EXPECT_FALSE(fs::exists(path("b.ckpt")));
    EXPECT_EQ(slurp("b.ckpt.quarantined.1"), "gen one");
    EXPECT_EQ(slurp("b.ckpt.quarantined.2"), "gen two");
}

TEST_F(ArtifactAudit, VerifyArtifactFileAutoDetects)
{
    plant("w.bin", snapshotBytes());
    const auto snap = artifact::verifyArtifactFile(path("w.bin"));
    EXPECT_EQ(snap.kind, artifact::ArtifactKind::Snapshot);
    EXPECT_TRUE(snap.status.ok()) << snap.status.toString();

    plant("alien.bin", "four score and seven artifacts ago");
    const auto alien = artifact::verifyArtifactFile(path("alien.bin"));
    EXPECT_EQ(alien.kind, artifact::ArtifactKind::Unknown);
    EXPECT_FALSE(alien.status.ok());

    const auto missing =
        artifact::verifyArtifactFile(path("no_such_file.bin"));
    EXPECT_FALSE(missing.status.ok());
    EXPECT_EQ(missing.status.code(), ErrorCode::IoError);
}

} // namespace
} // namespace tlp
