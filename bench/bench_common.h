/**
 * @file
 * Shared machinery for the benchmark harness.
 *
 * Every bench regenerates one table or figure of the paper at a reduced,
 * laptop-friendly scale and prints `paper` vs `measured` rows. Scale is
 * controlled by the TLP_BENCH_SCALE environment variable (default 1.0;
 * larger values move toward paper scale).
 *
 * Benches that share a job share its driver here and keep only their
 * data: Figs. 12/13, Tables 6/7/9, fleet drills, BENCH_*.json reports.
 */
#pragma once

#include <cstdio>
#include <string>
#include <vector>

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

/** The paper's five held-out evaluation networks. */
std::vector<std::string> benchTestNetworks();

/**
 * Collect the standard bench dataset for @p platforms, memoized as a
 * plain dataset at /tmp/tlp_bench_<key>_<fingerprint>.tlpd, where the
 * fingerprint covers everything that decides its contents. GPU datasets
 * use the GPU sketch rules.
 */
data::Dataset standardDataset(const std::vector<std::string> &platforms,
                              bool is_gpu);

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

/** Write @p bytes to @p path past the I/O seam: how a drill plants a
 *  torn checkpoint or stray debris on purpose. A failed write is said
 *  on stderr, and the drill's own checks then fail. */
void plantFile(const std::string &path, const std::string &bytes);

/** Tear @p path the way a dying disk would: flip 16 bytes mid-file.
 *  False, and the file untouched, when it is 64 bytes or smaller. */
bool tearMidFile(const std::string &path);

/**
 * A drill fleet of @p sessions two-subgraph resnet-18 slices with
 * @p rounds rounds each. Session i is named "s%03d", alternates the
 * i7-10510u / platinum-8272 platforms, runs kinds[i % kinds.size()]
 * (by default ansor, random, guarded-ansor, random) and is seeded
 * @p seed + i.
 */
std::vector<serve::SessionSpec>
drillFleet(int sessions, int rounds, uint64_t seed,
           const std::vector<serve::ModelKind> &kinds = {
               serve::ModelKind::Ansor, serve::ModelKind::Random,
               serve::ModelKind::GuardedAnsor, serve::ModelKind::Random});

/** Service options over @p dir that admit the whole fleet at once. */
serve::ServiceOptions drillServiceOptions(const std::string &dir,
                                          int fleet_size);

/** What one service incarnation did in runFleet. */
struct FleetRun
{
    serve::RecoveryReport recovery;
    serve::ServiceStats stats;
    int64_t ticks = 0;
    std::vector<serve::SessionStatus> status;   ///< at the end, fleet order
    double wall_seconds = 0.0;   ///< construction, recovery and ticks
};

/** One service incarnation over options.dir: recover @p fleet from what
 *  earlier ones left there, then tick until idle, or stop after
 *  @p max_ticks > 0 ticks and drop it mid-run (the in-process "kill -9"). */
FleetRun runFleet(const serve::ServiceOptions &options,
                  const std::vector<serve::SessionSpec> &fleet,
                  int64_t max_ticks = 0);

/**
 * True when every session of @p fleet has a non-empty curve file in
 * @p golden_dir and a byte-identical one in @p drill_dir. A missing or
 * empty golden curve is a mismatch, never a vacuous match. Prints
 * "CURVE MISMATCH: <name>" for each session that differs.
 */
bool curvesMatch(const std::string &golden_dir, const std::string &drill_dir,
                 const std::vector<serve::SessionSpec> &fleet);

// --- BENCH_*.json reports ---

/** A BENCH_*.json report, or an object nested in one: ordered fields
 *  that are scalars, objects under a key, or arrays of one-line rows,
 *  printed in the order first added. The only code in bench/ that
 *  knows JSON punctuation. */
class Report
{
  public:
    Report() = default;

    /** A report for @p path that opens with "bench": @p bench and the
     *  bench scale. */
    Report(std::string path, const char *bench);

    /** A scalar rendered with the printf @p format, e.g. "%.3f". A key
     *  added again keeps its place and takes the new value. */
    Report &add(const char *key, const char *format, ...)
        __attribute__((format(printf, 3, 4)));
    /** A JSON true / false. */
    Report &flag(const char *key, bool value)
    {
        return add(key, "%s", value ? "true" : "false");
    }
    /** A quoted string (bench names and labels; no escaping). */
    Report &text(const char *key, const std::string &value)
    {
        return add(key, "\"%s\"", value.c_str());
    }
    /** The object nested under @p key, created on first use; valid
     *  until the next object() or row() call on this report. */
    Report &object(const char *key);
    /** Append one row to the array under @p key; valid as above. */
    Report &row(const char *key);

    /** Write the report to its path and say so on stdout. False, said
     *  on stderr, when it cannot be opened, written or closed (a full
     *  disk leaves a truncated file): the bench must then fail. */
    bool write() const;

  private:
    struct Field
    {
        std::string key;
        std::string scalar;            ///< rendered scalar value
        std::vector<Report> children;  ///< nested object, or rows
        bool array;
    };

    Field &field(const char *key);
    /** Append this object, its fields indented past @p indent. */
    void render(std::string &out, int indent, bool one_line) const;

    std::string path_;
    std::vector<Field> fields_;
};

} // namespace tlp::bench
