/**
 * @file
 * Shared machinery for the benchmark harness.
 *
 * Every bench regenerates one table or figure of the paper at a reduced,
 * laptop-friendly scale and prints `paper` vs `measured` rows. Scale is
 * controlled by the TLP_BENCH_SCALE environment variable (default 1.0;
 * larger values move toward paper scale).
 *
 * Benches that measure the same thing share one driver here and keep
 * only their data: Figs. 12/13, Tables 6/7/9 and the fleet drills.
 */
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "artifact/audit.h"
#include "dataset/collect.h"
#include "dataset/metrics.h"
#include "dataset/splits.h"
#include "models/cost_model.h"
#include "models/tlp_model.h"
#include "support/config.h"
#include "support/table.h"
#include "tuner/service/service.h"
#include "tuner/session.h"

namespace tlp::bench {

/** Networks used for dataset collection in the benches. */
std::vector<std::string> benchTrainNetworks();

/** The paper's five held-out evaluation networks. */
std::vector<std::string> benchTestNetworks();

/** All bench networks (train + test). */
std::vector<std::string> benchNetworks();

/**
 * Collect (and memoize on disk under /tmp) the standard bench dataset
 * for @p platforms. GPU datasets use the GPU sketch rules.
 */
data::Dataset standardDataset(const std::vector<std::string> &platforms,
                              bool is_gpu);

// --- bench memo format (exposed for the corruption tests/bench) ---

/** Bench memo file magic ("TLPM"); the audit module owns the value so
 *  tlp_fsck recognizes memos without linking bench code. */
inline constexpr uint32_t kMemoMagic = artifact::kBenchMemoMagic;

/** Memo format version (v2: recoverable load + atomic write). */
inline constexpr uint32_t kMemoVersion = artifact::kBenchMemoVersion;

/** Atomically write a fingerprint-stamped dataset memo to @p path. */
Status writeBenchMemo(const std::string &path, uint64_t fingerprint,
                      const data::Dataset &dataset);

/** Stream variant of writeBenchMemo. */
void writeBenchMemo(std::ostream &os, uint64_t fingerprint,
                    const data::Dataset &dataset);

/**
 * Load a bench memo. Ok only when the file is intact AND stamped with
 * @p fingerprint; anything else (corruption, truncation, version skew,
 * stale fingerprint) comes back as a Status so the caller regenerates.
 */
Result<data::Dataset> loadBenchMemo(const std::string &path,
                                    uint64_t fingerprint);
Result<data::Dataset> loadBenchMemo(std::istream &is,
                                    uint64_t fingerprint);

/** Cap a record-index list to the scaled default training size. */
std::vector<int> capTrainRecords(std::vector<int> records,
                                 int64_t base_cap = 5000,
                                 uint64_t seed = 0xcab);

/** Default TLP training options at bench scale. */
model::TrainOptions benchTrainOptions();

/**
 * Train a TLP net on @p platform_indices (multi-task when several) and
 * return top-1/top-5 on the test split for the first platform index.
 */
struct TrainedTlp
{
    std::shared_ptr<model::TlpNet> net;
    data::TopKPair topk;
};

TrainedTlp trainAndEvalTlp(const data::Dataset &dataset,
                           const data::Split &split,
                           const std::vector<int> &platform_indices,
                           model::TlpNetConfig config,
                           model::TrainOptions options,
                           const std::vector<int> *train_records = nullptr);

/** Train + evaluate the TenSet-MLP baseline on one platform. */
struct TrainedMlp
{
    std::shared_ptr<model::TensetMlpNet> net;
    data::TopKPair topk;
};

TrainedMlp trainAndEvalMlp(const data::Dataset &dataset,
                           const data::Split &split, int platform_index,
                           model::TrainOptions options);

/** Format a top-k pair as "0.9194". */
std::string fmtScore(double value);

/**
 * The MTL-TLP recipe of Sec. 6.2: task 1 is the target platform with
 * only @p target_rows labeled training records (the "500K" subset),
 * tasks 2..n are donor platforms with all labels. Returns target-platform
 * top-k. Pass an empty donor list for the single-task reference row.
 */
data::TopKPair mtlTopK(const data::Dataset &dataset,
                       const data::Split &split, int target_platform,
                       const std::vector<int> &donor_platforms,
                       int64_t target_rows,
                       model::TrainOptions options);

/** The four cost models compared in the search experiments (Sec. 6.3). */
struct SearchModels
{
    std::unique_ptr<model::CostModel> ansor;   ///< online GBDT
    std::unique_ptr<model::CostModel> mlp;     ///< pretrained TenSet MLP
    std::unique_ptr<model::CostModel> tlp;     ///< pretrained TLP
    std::unique_ptr<model::CostModel> mtl;     ///< MTL-TLP (scarce target)
};

/**
 * Prepare all four models for search on platform 0 of @p dataset (the
 * second platform, when present, is MTL-TLP's donor).
 */
SearchModels prepareSearchModels(const data::Dataset &dataset,
                                 const data::Split &split);

/** Bench-scale tuning options for a workload with @p num_tasks tasks. */
tune::TuneOptions benchTuneOptions(int num_tasks);

/** Tune @p network with @p cost_model and return the result. */
tune::TuneResult tuneNetwork(const std::string &network,
                             const std::string &platform,
                             model::CostModel &cost_model);

/** A platform pair of the search experiments (Figs. 11-13): the
 *  target first, then MTL-TLP's donor. */
struct SearchPlatform
{
    const char *label;
    std::vector<std::string> platforms;
    bool gpu;
};

/** The CPU (i7-10510u) and GPU (tesla-t4) search platforms. */
std::vector<SearchPlatform> searchPlatforms();

/** The model a search-time figure races against. */
enum class SearchBaseline
{
    TensetMlp,   ///< Fig. 12
    Ansor,       ///< Fig. 13
};

/** A paper's average search-time speedups over the baseline. */
struct PaperSpeedups
{
    double tlp, mtl;
};

/**
 * Paper Figs. 12/13. On each search platform, tune three held-out
 * networks with @p baseline, TLP and MTL-TLP; print the search time
 * each needs to reach the baseline's final latency and the average
 * speedups next to the paper's @p cpu and @p gpu figures.
 */
void printSearchTimeFigure(const std::string &figure,
                           SearchBaseline baseline, PaperSpeedups cpu,
                           PaperSpeedups gpu);

/** One MTL table row: the target (platform 0) plus @p donors. */
struct MtlRow
{
    const char *label;
    std::vector<int> donors;
    double paper_top1, paper_top5;
};

/**
 * Paper Tables 6/7/9: for each row, mtlTopK with scarce target labels
 * over the standard dataset of @p platforms; print paper vs measured
 * top-1/top-5 in a table titled @p title.
 */
void printMtlTable(const std::string &title, const std::string &first_column,
                   const std::vector<std::string> &platforms, bool is_gpu,
                   const std::vector<MtlRow> &rows);

// --- fleet drills (service recovery, containment, I/O chaos) ---

/** The bytes of @p path; empty when it is missing or unreadable. */
std::string readFile(const std::string &path);

/**
 * A drill fleet of @p sessions two-subgraph resnet-18 slices with
 * @p rounds rounds each. Session i is named "s%03d", alternates the
 * i7-10510u / platinum-8272 platforms, runs kinds[i % kinds.size()]
 * and is seeded @p seed + i.
 */
std::vector<serve::SessionSpec>
drillFleet(int sessions, int rounds, uint64_t seed,
           const std::vector<serve::ModelKind> &kinds);

/** Service options over @p dir that admit the whole fleet at once. */
serve::ServiceOptions drillServiceOptions(const std::string &dir,
                                          int fleet_size);

/**
 * True when every session of @p fleet has a non-empty curve file in
 * @p golden_dir and a byte-identical one in @p drill_dir. A missing or
 * empty golden curve is a mismatch, never a vacuous match. Prints
 * "CURVE MISMATCH: <name>" for each session that differs.
 */
bool curvesMatch(const std::string &golden_dir, const std::string &drill_dir,
                 const std::vector<serve::SessionSpec> &fleet);

// --- BENCH_*.json reports ---

/** Open the report @p path for writing; null, said on stderr, when it
 *  cannot be opened. */
std::FILE *openReport(const std::string &path);

/**
 * Close a report from openReport. False, said on stderr, when a write
 * or the close failed (a full disk leaves a truncated file): the bench
 * must then exit non-zero.
 */
bool closeReport(std::FILE *report, const std::string &path);

} // namespace tlp::bench
