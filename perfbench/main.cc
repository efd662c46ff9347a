/**
 * @file
 * Entry point of the repo benchmark (see README.md in this directory).
 *
 * Usage: perfbench --workload pretrain|tune|fleet --seed N --seconds S
 *                  --trace 0|1 --dir DIR --expected expected_outputs.txt
 *
 * Prints human-readable lines, then as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * with --trace 0, the per-layer metrics of a traced unit with --trace 1.
 * Exit code 0 on a completed run (correct or not); 1 when the benchmark
 * itself could not run.
 */
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "support/argparse.h"
#include "support/thread_pool.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Worker threads of the global pool for every workload. */
constexpr int kThreads = 2;

/** One reported metric: name, unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Per-layer metrics, in BENCHMARK.json order. A traced unit reports
 *  each; layers a workload does not exercise read 0. */
const MetricSpec kLayerMetrics[] = {
    {"nn.train_s", "s"},
    {"nn.train_samples", "count"},
    {"nn.train_sys_s", "s"},
    {"nn.train_allocs", "count"},
    {"dataset.collect_s", "s"},
    {"dataset.records", "count"},
    {"sketch.sample_s", "s"},
    {"sketch.mutate_s", "s"},
    {"sketch.states", "count"},
    {"sketch.mutate_useful_ratio", "ratio"},
    {"features.tlp_extract_s", "s"},
    {"features.tlp_rows", "count"},
    {"features.ansor_extract_s", "s"},
    {"features.ansor_rows", "count"},
    {"models.score_s", "s"},
    {"models.score_calls", "count"},
    {"models.score_rows", "count"},
    {"models.forward_s", "s"},
    {"models.block_fill_ratio", "ratio"},
    {"models.cache_score_hit_ratio", "ratio"},
    {"models.cache_feature_hit_ratio", "ratio"},
    {"models.cache_evictions", "count"},
    {"models.allocs_per_score", "count"},
    {"models.update_s", "s"},
    {"models.update_calls", "count"},
    {"models.guard_failovers", "count"},
    {"schedule.lower_s", "s"},
    {"schedule.nests", "count"},
    {"hwmodel.measure_s", "s"},
    {"hwmodel.measurements", "count"},
    {"tuner.round_s", "s"},
    {"tuner.round_self_s", "s"},
    {"tuner.rounds", "count"},
    {"tuner.round_p50_ms", "ms"},
    {"tuner.round_p95_ms", "ms"},
    {"service.tick_s", "s"},
    {"service.ticks", "count"},
    {"service.tick_p50_ms", "ms"},
    {"service.tick_p95_ms", "ms"},
    {"service.rounds", "count"},
    {"service.idle_ticks", "count"},
    {"service.ckpt_writes", "count"},
    {"service.ckpt_write_s", "s"},
    {"service.ckpt_bytes", "bytes"},
    {"artifact.snapshot_load_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.untraced_s", "s"},
    {"trace.traced_s", "s"},
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Derive the ratio and self-time metrics from the raw sums. */
void
deriveLayerMetrics(std::map<std::string, double> &m)
{
    m["models.block_fill_ratio"] =
        ratio(m["models.forward_rows"],
              16.0 * m["models.forward_blocks"]);
    m["models.cache_score_hit_ratio"] =
        ratio(m["models.cache_score_hits"], m["models.cache_lookups"]);
    m["models.cache_feature_hit_ratio"] =
        ratio(m["models.cache_feature_hits"], m["models.cache_lookups"]);
    m["models.allocs_per_score"] =
        ratio(m["models.score_allocs"], m["models.score_calls"]);
    m["sketch.mutate_useful_ratio"] =
        ratio(m["sketch.mutate_useful"], m["sketch.mutate_attempts"]);
    if (m["tuner.rounds"] > 0.0) {
        m["tuner.round_self_s"] =
            m["tuner.round_s"] - m["models.score_s"] - m["models.update_s"] -
            m["hwmodel.measure_s"] - m["schedule.lower_for_measure_s"];
    }
}

/**
 * Pinned outputs, one "<workload> <variant> <key> <value>" per line
 * ('#' starts a comment). @return key -> value for one workload variant.
 */
std::map<std::string, std::string>
readExpected(const std::string &path, const std::string &workload,
             uint64_t variant)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pinned outputs " + path);
    std::map<std::string, std::string> expected;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, key, value;
        uint64_t v = 0;
        if (!(fields >> name >> v >> key >> value))
            throw std::runtime_error("malformed pinned output: " + line);
        if (name == workload && v == variant)
            expected[key] = value;
    }
    return expected;
}

/** Compare the run's outputs with the pinned ones; errors go to @p r. */
void
checkPinned(RunResult &r, const std::map<std::string, std::string> &expected)
{
    if (expected.empty())
        r.errors.push_back("no pinned outputs for this workload variant");
    for (const auto &[key, value] : expected) {
        const auto it = r.outputs.find(key);
        if (it == r.outputs.end())
            r.errors.push_back("missing output " + key);
        else if (it->second != value)
            r.errors.push_back(key + " = " + it->second + ", pinned " + value);
    }
}

/** "p50 12.3 ms, p95 14.1 ms (n=400)": only percentiles with at least
 *  ten samples beyond them. */
std::string
describeLatency(const std::vector<double> &ms)
{
    std::ostringstream os;
    char buf[64];
    bool any = false;
    for (double q : {0.50, 0.95}) {
        if ((1.0 - q) * static_cast<double>(ms.size()) + 1e-9 < 10.0)
            continue;
        std::snprintf(buf, sizeof(buf), "%sp%.0f %.3f ms", any ? ", " : "",
                      q * 100.0, percentile(ms, q));
        os << buf;
        any = true;
    }
    os << (any ? " " : "no percentile with ten samples beyond it ")
       << "(n=" << ms.size() << ")";
    return os.str();
}

void
printMetric(bool &first, const std::string &name, double value,
            const std::string &unit)
{
    if (!std::isfinite(value))
        value = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, unit.c_str());
    first = false;
}

} // namespace

int
main(int argc, char **argv)
{
    tlp::ArgParser args("TLP repo benchmark");
    args.addString("workload", "tune", "pretrain | tune | fleet");
    args.addInt("seed", 1, "input seed (selects variant seed mod 8)");
    args.addDouble("seconds", 10.0,
                   "seconds to measure for (sets the number of units)");
    args.addInt("trace", 0, "1: report per-layer metrics of a traced unit");
    args.addString("dir", "", "working directory (a per-run subdirectory is created, then removed)");
    args.addString("expected", "", "pinned outputs file");
    args.parse(argc, argv);

    const std::string workload = args.getString("workload");
    RunConfig config;
    config.seed = static_cast<uint64_t>(args.getInt("seed"));
    config.seconds = args.getDouble("seconds");
    config.trace = args.getInt("trace") != 0;
    if (args.getString("dir").empty() || args.getString("expected").empty()) {
        std::fprintf(stderr, "perfbench: --dir and --expected are required\n");
        return 1;
    }
    config.dir = args.getString("dir") + "/" + workload + "-" +
                 std::to_string(getpid());

    tlp::ThreadPool::setGlobalThreads(kThreads);
    namespace fs = std::filesystem;
    RunResult result;
    try {
        fs::remove_all(config.dir);
        fs::create_directories(config.dir);
        if (workload == "pretrain")
            result = runPretrain(config);
        else if (workload == "tune")
            result = runTune(config);
        else if (workload == "fleet")
            result = runFleet(config);
        else
            throw std::runtime_error("unknown workload " + workload);
        checkPinned(result, readExpected(args.getString("expected"),
                                         workload, config.variant()));
    } catch (const std::exception &e) {
        std::error_code ignored;
        fs::remove_all(config.dir, ignored);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    std::error_code ignored;
    fs::remove_all(config.dir, ignored);

    std::printf("workload %s, seed %llu (variant %llu), %d threads\n",
                workload.c_str(), static_cast<unsigned long long>(config.seed),
                static_cast<unsigned long long>(config.variant()), kThreads);
    for (const std::string &note : result.notes)
        std::printf("%s\n", note.c_str());
    for (const auto &[key, value] : result.outputs)
        std::printf("output %s %s\n", key.c_str(), value.c_str());
    std::printf("setup: %s\n", describeLatency([&] {
                    std::vector<double> ms;
                    for (double s : result.setup_s)
                        ms.push_back(s * 1e3);
                    return ms;
                }()).c_str());
    std::vector<double> steps_ms;
    for (const auto &unit : result.unit_step_ms)
        steps_ms.insert(steps_ms.end(), unit.begin(), unit.end());
    std::printf("%s latency: %s\n",
                workload == "pretrain" ? "training run"
                : workload == "tune"   ? "round"
                                       : "tick",
                describeLatency(steps_ms).c_str());
    for (const std::string &error : result.errors)
        std::printf("CHECK FAILED: %s\n", error.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                result.errors.empty() ? "true" : "false",
                static_cast<long long>(result.attempted),
                static_cast<long long>(result.failed));
    bool first = true;
    if (config.trace) {
        deriveLayerMetrics(result.layers);
        for (const MetricSpec &metric : kLayerMetrics)
            printMetric(first, metric.name, result.layers[metric.name],
                        metric.unit);
    } else {
        printMetric(first, "setup_s", percentile(result.setup_s, 0.5), "s");
        printMetric(first, "throughput_per_s",
                    result.throughput(), "1/s");
        printMetric(first, "peak_rss_mb", peakRssMb(), "MB");
    }
    std::printf("}}\n");
    return 0;
}
