#include "bench/bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "schedule/lower.h"
#include "sketch/policy.h"
#include "support/io_env.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/str_util.h"

namespace tlp::bench {

namespace {

uint64_t
mixDouble(uint64_t hash, double value)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return hashCombine(hash, bits);
}

/**
 * Fingerprint of everything that determines a memoized dataset's
 * contents: the on-disk format version, the collection options, and a
 * behavioral probe of the sampling + lowering + measurement pipeline
 * (one fixed schedule labeled on every platform), so simulator or
 * sketch-rule changes invalidate stale memos instead of being silently
 * served stale labels.
 */
uint64_t
collectionFingerprint(const data::CollectOptions &options)
{
    uint64_t hash = data::Dataset::kFormatVersion;
    for (const auto &network : options.networks)
        hash = hashCombine(hash, fnv1a(network.data(), network.size()));
    for (const auto &platform : options.platforms)
        hash = hashCombine(hash, fnv1a(platform.data(), platform.size()));
    hash = hashCombine(hash, options.is_gpu ? 1 : 0);
    hash = hashCombine(hash,
                       static_cast<uint64_t>(options.programs_per_subgraph));
    hash = hashCombine(hash, options.seed);
    const hw::MeasureOptions collect_measure;   // what collection uses
    hash = mixDouble(hash, hw::kMeasureNoiseStd);
    hash = hashCombine(hash, options.faults.digest());
    hash = hashCombine(hash,
                       static_cast<uint64_t>(collect_measure.max_retries));

    const ir::Workload probe_workload =
        ir::partitionGraph(ir::buildNetwork("resnet-18"));
    const auto &subgraph = probe_workload.subgraphs.front();
    sketch::SchedulePolicy policy(subgraph, options.is_gpu);
    Rng rng(0xbead);
    const auto population = policy.sampleInitPopulation(1, rng);
    TLP_CHECK(!population.empty(), "empty probe population");
    const auto nest = sched::lower(population.front());
    for (const auto &platform : options.platforms) {
        hw::Measurer measurer(hw::HardwarePlatform::preset(platform),
                              collect_measure, options.seed);
        hash = mixDouble(hash, measurer.measureMs(nest));
    }

    // Scoring-path probe: a fixed tiny net scored over a fixed
    // population through both the legacy (interpreted, uncached) and
    // the fast (fused, cached) inference paths. Any behavioral drift in
    // feature extraction or either forward — including a fused/cached
    // divergence, which must never happen — moves the fingerprint and
    // regenerates the memo instead of serving it stale.
    const auto score_states = policy.sampleInitPopulation(4, rng);
    TLP_CHECK(!score_states.empty(), "empty scoring probe population");
    model::TlpNetConfig probe_config;
    probe_config.hidden = 16;
    probe_config.heads = 4;
    probe_config.head_hidden = 8;
    probe_config.residual_blocks = 1;
    Rng probe_rng(0x70be);
    auto probe_net =
        std::make_shared<model::TlpNet>(probe_config, probe_rng);
    for (const auto &infer : {model::TlpInferOptions::legacy(),
                              model::TlpInferOptions{true, 64}}) {
        model::TlpCostModel cost_model(probe_net, {}, 0, infer);
        for (double score : cost_model.scoreStates(0, score_states))
            hash = mixDouble(hash, score);
    }
    return hash;
}

/**
 * Train the MTL-TLP net of Sec. 6.2 on @p platforms: task 1 (the
 * target) keeps labels on only @p target_rows training records, the
 * donor tasks keep all of theirs.
 */
std::shared_ptr<model::TlpNet>
trainMtlNet(const data::Dataset &dataset, const data::Split &split,
            const std::vector<int> &platforms, int64_t target_rows,
            const model::TrainOptions &options)
{
    model::TlpNetConfig config;
    config.num_tasks = static_cast<int>(platforms.size());
    auto train_set =
        data::buildTlpSet(dataset, capTrainRecords(split.train_records),
                          platforms, feat::TlpFeatureOptions{});

    Rng mask_rng(0x3a5c);
    std::vector<int> order(static_cast<size_t>(train_set.rows));
    for (int r = 0; r < train_set.rows; ++r)
        order[static_cast<size_t>(r)] = r;
    mask_rng.shuffle(order);
    const int64_t keep = std::min<int64_t>(target_rows, train_set.rows);
    for (int64_t i = keep; i < train_set.rows; ++i) {
        const int row = order[static_cast<size_t>(i)];
        train_set.labels[static_cast<size_t>(row) *
                         static_cast<size_t>(train_set.num_tasks)] =
            std::numeric_limits<float>::quiet_NaN();
    }

    Rng rng(options.seed);
    auto net = std::make_shared<model::TlpNet>(config, rng);
    trainTlpNet(*net, train_set, options);
    return net;
}

} // namespace

std::vector<std::string>
benchTrainNetworks()
{
    return {"resnet-18", "resnet-34", "vgg-16", "squeezenet",
            "mlp-mixer", "bert-small", "gpt2-lite"};
}

std::vector<std::string>
benchTestNetworks()
{
    return {"resnet-50", "mobilenet-v2", "resnext-50", "bert-tiny",
            "bert-base"};
}

std::vector<std::string>
benchNetworks()
{
    auto networks = benchTrainNetworks();
    for (const auto &name : benchTestNetworks())
        networks.push_back(name);
    return networks;
}

data::Dataset
standardDataset(const std::vector<std::string> &platforms, bool is_gpu)
{
    // Cache on disk so consecutive benches share the collection cost.
    std::string key = is_gpu ? "gpu" : "cpu";
    for (const auto &platform : platforms)
        key += "_" + platform;
    const int64_t programs = scaledCount(72, 16);
    key += "_" + std::to_string(programs);
    const std::string path = "/tmp/tlp_bench_" + key + ".bin";

    data::CollectOptions options;
    options.networks = benchNetworks();
    options.platforms = platforms;
    options.is_gpu = is_gpu;
    options.programs_per_subgraph = static_cast<int>(programs);
    options.seed = 0xda7a;

    // The memo is stamped with a fingerprint of the format version, the
    // collection options and a behavioral probe; any mismatch (including
    // a corrupt, truncated, or version-skewed file) regenerates instead
    // of serving stale labels or crashing.
    const uint64_t fingerprint = collectionFingerprint(options);
    std::error_code exists_ec;
    if (std::filesystem::exists(path, exists_ec)) {
        Result<data::Dataset> memo = loadBenchMemo(path, fingerprint);
        if (memo.ok())
            return memo.take();
        inform("bench memo ", path, " unusable (",
               memo.status().toString(), "); regenerating");
    }

    // Regeneration is also the moment to reap temp files a crashed
    // bench stranded next to this memo (scoped to this artifact: /tmp
    // is shared, a directory-wide sweep could race live writers) —
    // with the io_env sweeper, the same debris policy tlp_fsck runs.
    sweepStaleTempsFor(path);
    data::Dataset dataset = data::collectDataset(options);
    const Status status = writeBenchMemo(path, fingerprint, dataset);
    if (!status.ok()) {
        // The memo is only a cache: losing it costs re-collection time on
        // the next bench, never correctness.
        warn("bench memo not saved: ", status.toString());
    }
    return dataset;
}

void
writeBenchMemo(std::ostream &os, uint64_t fingerprint,
               const data::Dataset &dataset)
{
    BinaryWriter writer(os);
    writeHeader(writer, kMemoMagic, kMemoVersion);
    writer.writePod(fingerprint);
    dataset.save(os);
}

Status
writeBenchMemo(const std::string &path, uint64_t fingerprint,
               const data::Dataset &dataset)
{
    return atomicWriteFile(path, [&](std::ostream &os) {
        writeBenchMemo(os, fingerprint, dataset);
    });
}

Result<data::Dataset>
loadBenchMemo(std::istream &is, uint64_t fingerprint)
{
    uint64_t stamp = 0;
    const Status status = guardedParse([&] {
        BinaryReader reader(is);
        readHeader(reader, kMemoMagic, kMemoVersion, kMemoVersion);
        stamp = reader.readPod<uint64_t>();
    });
    if (!status.ok())
        return status;
    if (stamp != fingerprint) {
        return Status::error(ErrorCode::Invalid,
                             "memo fingerprint is stale (collection "
                             "options, format, or pipeline changed)");
    }
    return data::Dataset::tryLoad(is);
}

Result<data::Dataset>
loadBenchMemo(const std::string &path, uint64_t fingerprint)
{
    return readArtifactFile(path, [&](std::istream &is) {
        return loadBenchMemo(is, fingerprint);
    });
}

std::vector<int>
capTrainRecords(std::vector<int> records, int64_t base_cap, uint64_t seed)
{
    const int64_t cap = scaledCount(base_cap, 500);
    if (static_cast<int64_t>(records.size()) <= cap)
        return records;
    Rng rng(seed);
    rng.shuffle(records);
    // tlp-lint: allow(unbounded-alloc) -- cap derives from TLP_BENCH_SCALE, not from stream bytes; this only ever shrinks
    records.resize(static_cast<size_t>(cap));
    return records;
}

model::TrainOptions
benchTrainOptions()
{
    model::TrainOptions options;
    options.epochs = std::max<int>(3, static_cast<int>(5 * benchScale()));
    options.lr = 2e-3;
    return options;
}

TrainedTlp
trainAndEvalTlp(const data::Dataset &dataset, const data::Split &split,
                const std::vector<int> &platform_indices,
                model::TlpNetConfig config, model::TrainOptions options,
                const std::vector<int> *train_records)
{
    config.num_tasks = static_cast<int>(platform_indices.size());

    feat::TlpFeatureOptions feature_options;
    feature_options.seq_len = config.seq_len;
    feature_options.emb_size = config.emb_size;

    const std::vector<int> records =
        train_records ? *train_records
                      : capTrainRecords(split.train_records);
    auto train_set = data::buildTlpSet(dataset, records, platform_indices,
                                       feature_options);

    Rng rng(options.seed);
    TrainedTlp result;
    result.net = std::make_shared<model::TlpNet>(config, rng);
    trainTlpNet(*result.net, train_set, options);

    auto test_set = data::buildTlpSet(dataset, split.test_records,
                                      platform_indices, feature_options);
    const auto scores = predictTlpNet(*result.net, test_set, 0);
    result.topk = data::topKScores(dataset, benchTestNetworks(),
                                   platform_indices.at(0),
                                   split.test_records, scores);
    return result;
}

TrainedMlp
trainAndEvalMlp(const data::Dataset &dataset, const data::Split &split,
                int platform_index, model::TrainOptions options)
{
    const auto records = capTrainRecords(split.train_records);
    auto train_set = data::buildAnsorSet(dataset, records, platform_index);

    Rng rng(options.seed);
    TrainedMlp result;
    result.net = std::make_shared<model::TensetMlpNet>(model::MlpConfig{},
                                                       rng);
    trainMlp(*result.net, train_set, options);

    auto test_set =
        data::buildAnsorSet(dataset, split.test_records, platform_index);
    const auto scores = predictMlp(*result.net, test_set);
    result.topk =
        data::topKScores(dataset, benchTestNetworks(), platform_index,
                         split.test_records, scores);
    return result;
}

std::string
fmtScore(double value)
{
    return formatDouble(value, 4);
}

SearchModels
prepareSearchModels(const data::Dataset &dataset, const data::Split &split)
{
    SearchModels models;
    models.ansor = std::make_unique<model::AnsorOnlineCostModel>();

    auto options = benchTrainOptions();
    options.epochs = std::max(3, options.epochs - 2);

    auto mlp = trainAndEvalMlp(dataset, split, 0, options);
    models.mlp = std::make_unique<model::TensetMlpCostModel>(mlp.net);

    auto tlp = trainAndEvalTlp(dataset, split, {0},
                               model::TlpNetConfig{}, options);
    models.tlp = std::make_unique<model::TlpCostModel>(tlp.net);

    if (dataset.platforms.size() > 1) {
        // MTL-TLP: scarce target labels plus the donor platform.
        models.mtl = std::make_unique<model::TlpCostModel>(trainMtlNet(
            dataset, split, {0, 1}, scaledCount(800, 200), options));
    }
    return models;
}

tune::TuneOptions
benchTuneOptions(int num_tasks)
{
    tune::TuneOptions options;
    options.rounds = num_tasks * std::max(2, static_cast<int>(
                                                 2 * benchScale()));
    options.measures_per_round = 10;
    options.evolution.population = static_cast<int>(scaledCount(32, 16));
    options.evolution.iterations = 2;
    options.evolution.children_per_iter = 16;
    return options;
}

tune::TuneResult
tuneNetwork(const std::string &network, const std::string &platform,
            model::CostModel &cost_model)
{
    const ir::Workload workload =
        ir::partitionGraph(ir::buildNetwork(network));
    const auto hw = hw::HardwarePlatform::preset(platform);
    return tune::tuneWorkload(
        workload, hw, cost_model,
        benchTuneOptions(static_cast<int>(workload.subgraphs.size())));
}

std::vector<SearchPlatform>
searchPlatforms()
{
    return {{"CPU i7-10510u", {"i7-10510u", "platinum-8272"}, false},
            {"GPU tesla-t4", {"tesla-t4", "tesla-k80"}, true}};
}

void
printSearchTimeFigure(const std::string &figure, SearchBaseline baseline,
                      PaperSpeedups cpu, PaperSpeedups gpu)
{
    const bool ansor = baseline == SearchBaseline::Ansor;
    const std::string name = ansor ? "Ansor" : "TenSet-MLP";
    std::printf("=== %s: search time to reach %s-final performance ===\n",
                figure.c_str(), name.c_str());

    const std::vector<std::string> networks = {"resnet-50",
                                               "mobilenet-v2",
                                               "bert-tiny"};
    for (const SearchPlatform &spec : searchPlatforms()) {
        const PaperSpeedups paper = spec.gpu ? gpu : cpu;
        const auto dataset = standardDataset(spec.platforms, spec.gpu);
        const auto split = data::makeSplit(dataset, benchTestNetworks());
        auto models = prepareSearchModels(dataset, split);
        model::CostModel &base_model = ansor ? *models.ansor : *models.mlp;

        TextTable table(std::string(spec.label) + ": time to reach " +
                        name + "-final (s)");
        table.setHeader({"workload", ansor ? "ansor" : "tenset-mlp", "tlp",
                         "mtl-tlp", "tlp speedup", "mtl speedup"});
        double tlp_speedups = 0.0, mtl_speedups = 0.0;
        int counted = 0;
        for (const auto &network : networks) {
            const auto base_run =
                tuneNetwork(network, spec.platforms[0], base_model);
            const double target = base_run.best_workload_latency_ms;
            const double base_time = base_run.timeToReach(target);
            const double tlp_time =
                tuneNetwork(network, spec.platforms[0], *models.tlp)
                    .timeToReach(target);
            const double mtl_time =
                tuneNetwork(network, spec.platforms[0], *models.mtl)
                    .timeToReach(target);
            auto fmt = [](double value) {
                return std::isfinite(value) ? formatDouble(value, 1)
                                            : std::string("not reached");
            };
            auto fmtSpeedup = [](double speedup) {
                return speedup > 0 ? formatDouble(speedup, 2) + "x"
                                   : std::string("-");
            };
            const double tlp_speedup =
                std::isfinite(tlp_time) ? base_time / tlp_time : 0.0;
            const double mtl_speedup =
                std::isfinite(mtl_time) ? base_time / mtl_time : 0.0;
            if (tlp_speedup > 0 && mtl_speedup > 0) {
                tlp_speedups += tlp_speedup;
                mtl_speedups += mtl_speedup;
                ++counted;
            }
            table.addRow({network, fmt(base_time), fmt(tlp_time),
                          fmt(mtl_time), fmtSpeedup(tlp_speedup),
                          fmtSpeedup(mtl_speedup)});
            std::printf("done: %s / %s\n", spec.label, network.c_str());
        }
        table.print();
        if (counted > 0) {
            std::printf("average speedups (paper: tlp %.1fx, mtl %.1fx): "
                        "tlp %.2fx, mtl %.2fx\n",
                        paper.tlp, paper.mtl,
                        tlp_speedups / counted, mtl_speedups / counted);
        }
    }
}

void
printMtlTable(const std::string &title, const std::string &first_column,
              const std::vector<std::string> &platforms, bool is_gpu,
              const std::vector<MtlRow> &rows)
{
    const auto dataset = standardDataset(platforms, is_gpu);
    const auto split = data::makeSplit(dataset, benchTestNetworks());
    const int64_t scarce = scaledCount(800, 200);   // the "500K" subset

    TextTable table(title);
    table.setHeader({first_column, "top-1 (paper)", "top-1 (ours)",
                     "top-5 (paper)", "top-5 (ours)"});
    for (const MtlRow &row : rows) {
        const auto topk = mtlTopK(dataset, split, 0, row.donors, scarce,
                                  benchTrainOptions());
        table.addRow({row.label, fmtScore(row.paper_top1),
                      fmtScore(topk.top1), fmtScore(row.paper_top5),
                      fmtScore(topk.top5)});
        std::printf("done: %s\n", row.label);
    }
    table.print();
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

std::vector<serve::SessionSpec>
drillFleet(int sessions, int rounds, uint64_t seed,
           const std::vector<serve::ModelKind> &kinds)
{
    std::vector<serve::SessionSpec> fleet;
    for (int i = 0; i < sessions; ++i) {
        serve::SessionSpec spec;
        char name[16];
        std::snprintf(name, sizeof(name), "s%03d", i);
        spec.name = name;
        spec.network = "resnet-18";
        spec.platform = i % 2 == 0 ? "i7-10510u" : "platinum-8272";
        spec.model = kinds[static_cast<size_t>(i) % kinds.size()];
        spec.max_subgraphs = 2;
        spec.tune.rounds = rounds;
        spec.tune.measures_per_round = 4;
        spec.tune.evolution.population = 24;
        spec.tune.evolution.iterations = 2;
        spec.tune.evolution.children_per_iter = 12;
        spec.tune.seed = seed + static_cast<uint64_t>(i);
        fleet.push_back(std::move(spec));
    }
    return fleet;
}

serve::ServiceOptions
drillServiceOptions(const std::string &dir, int fleet_size)
{
    serve::ServiceOptions options;
    options.dir = dir;
    options.max_active = fleet_size;
    options.max_queued = fleet_size;
    return options;
}

bool
curvesMatch(const std::string &golden_dir, const std::string &drill_dir,
            const std::vector<serve::SessionSpec> &fleet)
{
    bool match = true;
    for (const auto &spec : fleet) {
        const std::string curve = "/" + spec.name + ".curve";
        const std::string golden = readFile(golden_dir + curve);
        if (golden.empty() || golden != readFile(drill_dir + curve)) {
            match = false;
            std::printf("CURVE MISMATCH: %s\n", spec.name.c_str());
        }
    }
    return match;
}

std::FILE *
openReport(const std::string &path)
{
    std::FILE *report = std::fopen(path.c_str(), "w");
    if (!report)
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return report;
}

bool
closeReport(std::FILE *report, const std::string &path)
{
    const bool written = std::ferror(report) == 0;
    const bool closed = std::fclose(report) == 0;
    if (!written || !closed)
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return written && closed;
}

data::TopKPair
mtlTopK(const data::Dataset &dataset, const data::Split &split,
        int target_platform, const std::vector<int> &donor_platforms,
        int64_t target_rows, model::TrainOptions options)
{
    std::vector<int> platforms = {target_platform};
    for (int donor : donor_platforms)
        platforms.push_back(donor);
    const auto net =
        trainMtlNet(dataset, split, platforms, target_rows, options);
    auto test_set = data::buildTlpSet(dataset, split.test_records,
                                      platforms, feat::TlpFeatureOptions{});
    const auto scores = predictTlpNet(*net, test_set, 0);
    return data::topKScores(dataset, benchTestNetworks(), target_platform,
                            split.test_records, scores);
}

} // namespace tlp::bench
