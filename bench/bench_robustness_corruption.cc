/**
 * @file
 * Robustness of the artifact-I/O layer under random corruption: a
 * byte-flip sweep over a serialized dataset, with salvage off (strict
 * loads must refuse) and on (records recovered vs lost), plus the
 * load-throughput cost of CRC32 verification. Results go to stdout and
 * to BENCH_robustness.json (written in the working directory — run from
 * the repo root).
 */
#include <cstdio>
#include <sstream>
#include <vector>

#include "bench/bench_common.h"
#include "support/clock.h"
#include "support/rng.h"

using namespace tlp;

namespace {

/** Flip each byte of @p bytes with probability @p rate (seeded). */
std::string
corrupt(const std::string &bytes, double rate, uint64_t seed)
{
    std::string mutated = bytes;
    Rng rng(seed);
    // Expected flips = rate * size; draw the offsets directly so low
    // rates stay cheap on big files.
    const auto flips = static_cast<int64_t>(
        rate * static_cast<double>(bytes.size()) + 0.5);
    for (int64_t i = 0; i < flips; ++i) {
        const auto at = static_cast<size_t>(
            rng.randint(static_cast<int64_t>(mutated.size())));
        mutated[at] ^= static_cast<char>(rng.randint(1, 255));
    }
    return mutated;
}

struct SweepRow
{
    double rate;
    int trials;
    int strict_ok;              ///< strict loads that still succeeded
    int salvage_ok;             ///< salvage loads that returned a dataset
    double records_recovered;   ///< mean, over successful salvages
    double records_lost;        ///< mean
    double corruption_events;   ///< mean tallied corruption_counts sum
};

} // namespace

int
main()
{
    std::printf("=== Robustness: artifact corruption and salvage ===\n");

    data::CollectOptions collect;
    collect.networks = {"resnet-18", "bert-tiny"};
    collect.platforms = {"platinum-8272"};
    collect.programs_per_subgraph =
        static_cast<int>(scaledCount(64, 24));
    collect.seed = 41;
    const auto dataset = data::collectDataset(collect);

    std::ostringstream os;
    dataset.save(os);
    const std::string golden = os.str();
    const double total_records =
        static_cast<double>(dataset.records.size());
    std::printf("dataset: %zu records, %.2f MB serialized\n",
                dataset.records.size(),
                static_cast<double>(golden.size()) / 1e6);

    // --- corruption-rate sweep x salvage on/off -------------------------
    const std::vector<double> rates = {0.0, 1e-5, 1e-4, 1e-3, 1e-2};
    const int trials = static_cast<int>(scaledCount(8, 4));
    std::vector<SweepRow> rows;
    std::printf("\n%10s %10s %10s %12s %10s %10s\n", "flip_rate",
                "strict_ok", "salvage_ok", "recovered", "lost",
                "tallies");
    for (const double rate : rates) {
        SweepRow row{};
        row.rate = rate;
        row.trials = trials;
        double recovered_sum = 0.0;
        double tally_sum = 0.0;
        for (int trial = 0; trial < trials; ++trial) {
            const std::string bytes =
                corrupt(golden, rate, 0x9000 + static_cast<uint64_t>(
                                                   trial));
            {
                std::istringstream is(bytes);
                row.strict_ok += data::Dataset::tryLoad(is).ok() ? 1 : 0;
            }
            std::istringstream is(bytes);
            data::LoadOptions options;
            options.salvage = true;
            auto result = data::Dataset::tryLoad(is, options);
            if (!result.ok())
                continue;
            row.salvage_ok += 1;
            const auto salvaged = result.take();
            recovered_sum +=
                static_cast<double>(salvaged.records.size());
            for (const auto &[name, count] : salvaged.corruption_counts)
                tally_sum += static_cast<double>(count);
        }
        if (row.salvage_ok > 0) {
            row.records_recovered = recovered_sum / row.salvage_ok;
            row.records_lost = total_records - row.records_recovered;
            row.corruption_events = tally_sum / row.salvage_ok;
        }
        std::printf("%10.0e %7d/%-2d %7d/%-2d %12.1f %10.1f %10.1f\n",
                    row.rate, row.strict_ok, trials, row.salvage_ok,
                    trials, row.records_recovered, row.records_lost,
                    row.corruption_events);
        rows.push_back(row);
    }

    // --- checksum cost: load MB/s with verification on vs off -----------
    const int load_reps = static_cast<int>(scaledCount(12, 6));
    double mbps_on = 0.0;
    double mbps_off = 0.0;
    for (const bool verify : {true, false}) {
        data::LoadOptions options;
        options.verify_checksums = verify;
        const double t0 = wallSeconds();
        for (int rep = 0; rep < load_reps; ++rep) {
            std::istringstream is(golden);
            auto result = data::Dataset::tryLoad(is, options);
            if (!result.ok()) {
                std::fprintf(stderr, "clean load failed: %s\n",
                             result.status().toString().c_str());
                return 1;
            }
        }
        const double seconds = wallSeconds() - t0;
        const double mbps = static_cast<double>(golden.size()) *
                            load_reps / 1e6 / seconds;
        (verify ? mbps_on : mbps_off) = mbps;
        std::printf("load throughput (checksums %s): %8.1f MB/s\n",
                    verify ? "on " : "off", mbps);
    }
    std::printf("checksum overhead: %.1f%%\n",
                100.0 * (mbps_off - mbps_on) / mbps_off);

    FILE *json = std::fopen("BENCH_robustness.json", "w");
    if (!json) {
        std::fprintf(stderr, "cannot write BENCH_robustness.json\n");
        return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"robustness_corruption\",\n");
    std::fprintf(json, "  \"scale\": %.3f,\n", benchScale());
    std::fprintf(json, "  \"dataset_records\": %zu,\n",
                 dataset.records.size());
    std::fprintf(json, "  \"dataset_bytes\": %zu,\n", golden.size());
    std::fprintf(json, "  \"load_mbps_checksums_on\": %.2f,\n", mbps_on);
    std::fprintf(json, "  \"load_mbps_checksums_off\": %.2f,\n",
                 mbps_off);
    std::fprintf(json, "  \"sweep\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const auto &row = rows[i];
        std::fprintf(
            json,
            "    {\"flip_rate\": %g, \"trials\": %d, "
            "\"strict_ok\": %d, \"salvage_ok\": %d, "
            "\"records_recovered\": %.1f, \"records_lost\": %.1f, "
            "\"corruption_events\": %.1f}%s\n",
            row.rate, row.trials, row.strict_ok, row.salvage_ok,
            row.records_recovered, row.records_lost,
            row.corruption_events,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_robustness.json\n");

    // Sanity gates: a clean file always strict-loads; salvage never does
    // worse than strict.
    if (rows[0].strict_ok != trials || rows[0].salvage_ok != trials)
        return 1;
    for (const auto &row : rows)
        if (row.salvage_ok < row.strict_ok)
            return 1;
    return 0;
}
