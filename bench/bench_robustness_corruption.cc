/**
 * @file
 * Robustness of the artifact-I/O layer under random corruption: a
 * byte-flip sweep over a serialized dataset, with salvage off (strict
 * loads must refuse) and on (records recovered vs lost), plus the
 * load-throughput cost of CRC32 verification. Results go to stdout and
 * to BENCH_robustness.json (written in the working directory — run from
 * the repo root).
 */
#include <algorithm>
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

/** Median of @p values (the mean of the middle two for an even count). */
double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 != 0 ? values[mid]
                                  : (values[mid - 1] + values[mid]) / 2.0;
}

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

    // The load rates are set once measured, after the sweep.
    bench::Report json("BENCH_robustness.json", "robustness_corruption");
    json.add("dataset_records", "%zu", dataset.records.size())
        .add("dataset_bytes", "%zu", golden.size())
        .add("load_mbps_checksums_on", "%.2f", 0.0)
        .add("load_mbps_checksums_off", "%.2f", 0.0);

    // --- corruption-rate sweep x salvage on/off -------------------------
    // Sanity gates: a clean file always strict-loads; salvage never does
    // worse than strict.
    const std::vector<double> rates = {0.0, 1e-5, 1e-4, 1e-3, 1e-2};
    const int trials = static_cast<int>(scaledCount(8, 4));
    bool gates_hold = true;
    std::printf("\n%10s %10s %10s %12s %10s %10s\n", "flip_rate",
                "strict_ok", "salvage_ok", "recovered", "lost",
                "tallies");
    for (size_t r = 0; r < rates.size(); ++r) {
        int strict_ok = 0;    // strict loads that still succeeded
        int salvage_ok = 0;   // salvage loads that returned a dataset
        double recovered_sum = 0.0;
        double tally_sum = 0.0;
        for (int trial = 0; trial < trials; ++trial) {
            const std::string bytes =
                corrupt(golden, rates[r],
                        0x9000 + static_cast<uint64_t>(trial));
            {
                std::istringstream is(bytes);
                strict_ok += data::Dataset::tryLoad(is).ok() ? 1 : 0;
            }
            std::istringstream is(bytes);
            data::LoadOptions options;
            options.salvage = true;
            auto result = data::Dataset::tryLoad(is, options);
            if (!result.ok())
                continue;
            salvage_ok += 1;
            const auto salvaged = result.take();
            recovered_sum +=
                static_cast<double>(salvaged.records.size());
            for (const auto &[name, count] : salvaged.corruption_counts)
                tally_sum += static_cast<double>(count);
        }
        // Means over the successful salvages.
        double recovered = 0.0, lost = 0.0, events = 0.0;
        if (salvage_ok > 0) {
            recovered = recovered_sum / salvage_ok;
            lost = total_records - recovered;
            events = tally_sum / salvage_ok;
        }
        std::printf("%10.0e %7d/%-2d %7d/%-2d %12.1f %10.1f %10.1f\n",
                    rates[r], strict_ok, trials, salvage_ok, trials,
                    recovered, lost, events);
        json.row("sweep")
            .add("flip_rate", "%g", rates[r])
            .add("trials", "%d", trials)
            .add("strict_ok", "%d", strict_ok)
            .add("salvage_ok", "%d", salvage_ok)
            .add("records_recovered", "%.1f", recovered)
            .add("records_lost", "%.1f", lost)
            .add("corruption_events", "%.1f", events);
        if ((r == 0 && (strict_ok != trials || salvage_ok != trials)) ||
            salvage_ok < strict_ok)
            gates_hold = false;
    }

    // --- checksum cost: load MB/s with verification on vs off -----------
    // Each round times one load per side, the sides interleaved (and
    // their order alternated), so host noise falls on both alike; each
    // side reports its median round.
    const int load_rounds = static_cast<int>(scaledCount(12, 6));
    std::vector<double> rounds_on;
    std::vector<double> rounds_off;
    for (int round = 0; round < load_rounds; ++round) {
        for (const bool verify : {round % 2 == 0, round % 2 != 0}) {
            data::LoadOptions options;
            options.verify_checksums = verify;
            const double t0 = wallSeconds();
            std::istringstream is(golden);
            auto result = data::Dataset::tryLoad(is, options);
            const double seconds = wallSeconds() - t0;
            if (!result.ok()) {
                std::fprintf(stderr, "clean load failed: %s\n",
                             result.status().toString().c_str());
                return 1;
            }
            (verify ? rounds_on : rounds_off)
                .push_back(static_cast<double>(golden.size()) / 1e6 /
                           seconds);
        }
    }
    const double mbps_on = median(rounds_on);
    const double mbps_off = median(rounds_off);
    std::printf("load throughput (checksums on ): %8.1f MB/s\n", mbps_on);
    std::printf("load throughput (checksums off): %8.1f MB/s\n", mbps_off);
    std::printf("checksum overhead: %.1f%%\n",
                100.0 * (mbps_off - mbps_on) / mbps_off);

    json.add("load_mbps_checksums_on", "%.2f", mbps_on)
        .add("load_mbps_checksums_off", "%.2f", mbps_off);
    if (!json.write())
        return 1;
    return gates_hold ? 0 : 1;
}
