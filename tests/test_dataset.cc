/**
 * @file
 * Unit tests for dataset collection, storage, splits, and metrics.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "dataset/collect.h"
#include "dataset/metrics.h"
#include "dataset/splits.h"
#include "support/rng.h"
#include "support/stats.h"
#include "scratch.h"

namespace tlp::data {
namespace {

Dataset
smallDataset()
{
    CollectOptions options;
    options.networks = {"resnet-18", "bert-tiny"};
    options.platforms = {"platinum-8272", "e5-2673"};
    options.programs_per_subgraph = 24;
    options.seed = 7;
    return collectDataset(options);
}

TEST(Collect, ProducesGroupsAndRecords)
{
    const Dataset ds = smallDataset();
    EXPECT_GT(ds.groups.size(), 10u);
    EXPECT_EQ(ds.platforms.size(), 2u);
    EXPECT_GT(ds.records.size(), 10 * ds.groups.size());
    EXPECT_EQ(ds.network_groups.size(), 2u);
    // Every record labeled on both platforms.
    for (const auto &record : ds.records) {
        ASSERT_EQ(record.latency_ms.size(), 2u);
        EXPECT_TRUE(record.hasLabel(0));
        EXPECT_TRUE(record.hasLabel(1));
        EXPECT_GT(record.latency_ms[0], 0.0f);
    }
}

TEST(Collect, LabelsAreNormalizedToUnitInterval)
{
    const Dataset ds = smallDataset();
    int at_one = 0;
    for (size_t r = 0; r < ds.records.size(); ++r) {
        const float label = ds.label(static_cast<int>(r), 0);
        EXPECT_GT(label, 0.0f);
        EXPECT_LE(label, 1.0f);
        // tlp-lint: allow(float-eq) -- the best program's relative label is exactly min/min == 1.0 by construction
        at_one += label == 1.0f;
    }
    // Exactly one best program per group (up to ties).
    EXPECT_GE(at_one, static_cast<int>(ds.groups.size()));
}

TEST(Collect, DeterministicGivenSeed)
{
    const Dataset a = smallDataset();
    const Dataset b = smallDataset();
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t r = 0; r < a.records.size(); ++r) {
        EXPECT_EQ(a.records[r].seq.hash(), b.records[r].seq.hash());
        EXPECT_FLOAT_EQ(a.records[r].latency_ms[0],
                        b.records[r].latency_ms[0]);
    }
}

TEST(Dataset, SaveLoadRoundTrip)
{
    const Dataset ds = smallDataset();
    const std::string path = test::scratchDir() + "/dataset.bin";
    ASSERT_TRUE(ds.save(path).ok());
    auto result = Dataset::tryLoad(path);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const Dataset loaded = result.take();

    EXPECT_EQ(loaded.platforms, ds.platforms);
    EXPECT_EQ(loaded.groups.size(), ds.groups.size());
    ASSERT_EQ(loaded.records.size(), ds.records.size());
    for (size_t r = 0; r < ds.records.size(); ++r) {
        EXPECT_EQ(loaded.records[r].seq, ds.records[r].seq);
        EXPECT_EQ(loaded.records[r].latency_ms, ds.records[r].latency_ms);
    }
    EXPECT_EQ(loaded.network_groups.size(), ds.network_groups.size());
}

TEST(Dataset, StatisticsSaneRanges)
{
    const Dataset ds = smallDataset();
    IntHistogram hist;
    for (const auto &record : ds.records)
        hist.add(static_cast<int64_t>(record.seq.size()));
    EXPECT_EQ(hist.total(), ds.records.size());
    EXPECT_GT(hist.minKey(), 0);
    EXPECT_LE(hist.maxKey(), 100);

    const auto sizes = ds.maxEmbeddingSizes();
    EXPECT_GE(sizes.size(), 5u);   // several primitive kinds in use
    for (const auto &[kind, size] : sizes)
        EXPECT_GT(size, sched::kNumPrimKinds);

    EXPECT_LT(ds.repetitionRate(), 0.05);   // paper: ~1%
}

Dataset
faultyDataset()
{
    CollectOptions options;
    options.networks = {"resnet-18", "bert-tiny"};
    options.platforms = {"platinum-8272", "e5-2673"};
    options.programs_per_subgraph = 24;
    options.seed = 7;
    options.faults = hw::FaultProfile::uniform(0.3);
    return collectDataset(options);
}

TEST(Collect, FailedMeasurementsBecomeNanLabels)
{
    const Dataset ds = faultyDataset();
    int64_t missing = 0;
    for (const auto &record : ds.records)
        for (size_t p = 0; p < ds.platforms.size(); ++p)
            missing += !record.hasLabel(p);
    EXPECT_GT(missing, 0) << "30% faults should lose some labels";

    int64_t failures = 0;
    for (const auto &[status, count] : ds.failure_counts) {
        EXPECT_GT(count, 0) << status;
        failures += count;
    }
    EXPECT_EQ(failures, missing);

    // label() reports missing entries as NaN, never a bogus number.
    for (size_t r = 0; r < ds.records.size(); ++r)
        for (size_t p = 0; p < ds.platforms.size(); ++p)
            if (!ds.records[r].hasLabel(p)) {
                EXPECT_TRUE(std::isnan(
                    ds.label(static_cast<int>(r), static_cast<int>(p))));
            }
}

TEST(Dataset, NanLabelsRoundTripExactly)
{
    const Dataset ds = faultyDataset();
    const std::string path = test::scratchDir() + "/faulty_dataset.bin";
    ASSERT_TRUE(ds.save(path).ok());
    auto result = Dataset::tryLoad(path);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const Dataset loaded = result.take();

    ASSERT_EQ(loaded.records.size(), ds.records.size());
    for (size_t r = 0; r < ds.records.size(); ++r) {
        const auto &want = ds.records[r].latency_ms;
        const auto &got = loaded.records[r].latency_ms;
        ASSERT_EQ(got.size(), want.size());
        for (size_t p = 0; p < want.size(); ++p) {
            if (std::isnan(want[p]))
                EXPECT_TRUE(std::isnan(got[p]));
            else
                EXPECT_EQ(got[p], want[p]);
        }
    }
    EXPECT_EQ(loaded.failure_counts, ds.failure_counts);
}

TEST(Metrics, TopKToleratesNanLabels)
{
    const Dataset ds = faultyDataset();
    const auto split = makeSplit(ds, {"bert-tiny"});
    Rng rng(5);
    std::vector<double> scores;
    for (size_t i = 0; i < split.test_records.size(); ++i)
        scores.push_back(rng.uniform());
    const auto tk = topKScores(ds, {"bert-tiny"}, 0, split.test_records,
                               scores);
    EXPECT_TRUE(std::isfinite(tk.top1));
    EXPECT_TRUE(std::isfinite(tk.top5));
    EXPECT_GT(tk.top1, 0.0);
    EXPECT_LE(tk.top5, 1.0 + 1e-12);
}

TEST(Split, TestNetworksHeldOut)
{
    const Dataset ds = smallDataset();
    const auto split = makeSplit(ds, {"bert-tiny"});
    EXPECT_FALSE(split.test_records.empty());
    EXPECT_FALSE(split.train_records.empty());

    std::set<int> test_groups(split.test_groups.begin(),
                              split.test_groups.end());
    for (int r : split.train_records)
        EXPECT_EQ(test_groups.count(
                      static_cast<int>(ds.records[static_cast<size_t>(r)]
                                           .group)),
                  0u);
    for (int r : split.test_records)
        EXPECT_EQ(test_groups.count(
                      static_cast<int>(ds.records[static_cast<size_t>(r)]
                                           .group)),
                  1u);
    // Valid fraction roughly 10%.
    const double frac =
        static_cast<double>(split.valid_records.size()) /
        static_cast<double>(split.valid_records.size() +
                            split.train_records.size());
    EXPECT_NEAR(frac, 0.1, 0.03);
}

TEST(Split, TlpSetShapes)
{
    const Dataset ds = smallDataset();
    const auto split = makeSplit(ds, {"bert-tiny"});
    const auto set = buildTlpSet(ds, split.train_records, {0, 1});
    EXPECT_EQ(set.rows, static_cast<int>(split.train_records.size()));
    EXPECT_EQ(set.feature_dim, 25 * 22);
    EXPECT_EQ(set.num_tasks, 2);
    EXPECT_EQ(set.labels.size(), static_cast<size_t>(set.rows) * 2);
    for (float label : set.labels) {
        EXPECT_FALSE(std::isnan(label));
        EXPECT_LE(label, 1.0f);
    }
}

TEST(Split, AnsorSetShapes)
{
    const Dataset ds = smallDataset();
    const auto split = makeSplit(ds, {"bert-tiny"});
    // Keep it quick: a subset only.
    std::vector<int> subset(split.train_records.begin(),
                            split.train_records.begin() + 50);
    const auto set = buildAnsorSet(ds, subset, 1);
    EXPECT_EQ(set.rows, 50);
    EXPECT_EQ(set.feature_dim, 164);
    for (float f : set.features)
        ASSERT_TRUE(std::isfinite(f));
}

TEST(Metrics, OracleScoresGiveTopOne)
{
    const Dataset ds = smallDataset();
    const auto split = makeSplit(ds, {"bert-tiny"});
    // Oracle: score = true label.
    std::vector<double> scores;
    for (int r : split.test_records)
        scores.push_back(ds.label(r, 0));
    const auto tk = topKScores(ds, {"bert-tiny"}, 0, split.test_records,
                               scores);
    EXPECT_NEAR(tk.top1, 1.0, 1e-6);
    EXPECT_NEAR(tk.top5, 1.0, 1e-6);
}

TEST(Metrics, AntiOracleIsWorseThanOracle)
{
    const Dataset ds = smallDataset();
    const auto split = makeSplit(ds, {"bert-tiny"});
    std::vector<double> scores;
    for (int r : split.test_records)
        scores.push_back(-ds.label(r, 0));   // worst first
    const auto tk = topKScores(ds, {"bert-tiny"}, 0, split.test_records,
                               scores);
    EXPECT_LT(tk.top1, 0.9);
}

TEST(Metrics, Top5AtLeastTop1)
{
    const Dataset ds = smallDataset();
    const auto split = makeSplit(ds, {"bert-tiny"});
    Rng rng(3);
    std::vector<double> scores;
    for (size_t i = 0; i < split.test_records.size(); ++i)
        scores.push_back(rng.uniform());
    const auto tk = topKScores(ds, {"bert-tiny"}, 0, split.test_records,
                               scores);
    EXPECT_GE(tk.top5 + 1e-12, tk.top1);
    EXPECT_GT(tk.top1, 0.0);
}

} // namespace
} // namespace tlp::data
