/**
 * @file
 * Robustness sweep: tuning quality under measurement faults.
 *
 * Real measurement campaigns lose a sizeable fraction of candidates to
 * compile errors, timeouts and runtime failures (TenSet reports such
 * losses; Sec. 4 of the paper trains on partially labeled tuples). This
 * bench sweeps injected fault rate x retry policy and reports the final
 * workload latency, the wasted measurement seconds, and the per-class
 * failure counts. Expected shape: the final latency degrades only mildly
 * up to ~30% faults (failed candidates are skipped, not mislabeled),
 * while wasted seconds grow with the fault rate and shrink with
 * retries + quarantine.
 */
#include <cstdio>
#include <iterator>

#include "bench/bench_common.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "support/str_util.h"

int
main()
{
    using namespace tlp;
    std::printf("=== Robustness: tuning under measurement faults ===\n");

    const std::string network = "resnet-18";
    const std::string platform = "platinum-8272";
    const ir::Workload workload =
        ir::partitionGraph(ir::buildNetwork(network));
    const auto hw_platform = hw::HardwarePlatform::preset(platform);

    std::printf("\nworkload: %s on %s (online model)\n", network.c_str(),
                platform.c_str());

    struct Policy
    {
        const char *label;
        int retries;
        int quarantine_after;
    };
    const Policy policies[] = {
        {"no-retry", 0, 1},
        {"retry-2", 2, 3},
    };
    const double fault_rates[] = {0.0, 0.1, 0.3};

    TextTable table("fault rate x retry policy");
    table.setHeader({"faults", "policy", "final ms", "failed", "quarant",
                     "wasted s", "search s"});
    for (const double rate : fault_rates) {
        for (const Policy &policy : policies) {
            if (!(rate > 0.0) && policy.retries > 0)
                continue;   // retries are a no-op without faults
            model::AnsorOnlineCostModel cost_model;
            auto options = bench::benchTuneOptions(
                static_cast<int>(workload.subgraphs.size()));
            options.measure.faults = hw::FaultProfile::uniform(rate);
            options.measure.max_retries = policy.retries;
            options.measure.quarantine_after = policy.quarantine_after;
            const auto result = tune::tuneWorkload(workload, hw_platform,
                                                   cost_model, options);
            table.addRow(
                {formatDouble(rate, 2), policy.label,
                 std::isfinite(result.best_workload_latency_ms)
                     ? formatDouble(result.best_workload_latency_ms, 3)
                     : std::string("inf"),
                 std::to_string(result.failed_measurements),
                 std::to_string(result.quarantined_candidates),
                 formatDouble(result.wasted_measure_seconds, 1),
                 formatDouble(result.total_search_seconds, 1)});
        }
        if (rate != fault_rates[std::size(fault_rates) - 1])
            table.addSeparator();
    }
    table.print();

    std::printf("\nexpected shape: final latency degrades only mildly up "
                "to 30%% faults;\nwasted seconds grow with the fault rate "
                "and shrink with retries.\n");
    return 0;
}
