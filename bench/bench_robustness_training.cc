/**
 * @file
 * Robustness sweep: training and search under injected numeric faults.
 *
 * The paper's pipeline rests on one long pretraining run (Sec. 6.1) and
 * a model-guided search (Sec. 6.3); a single NaN gradient or a cost
 * model whose scores collapse mid-campaign can waste all of it. This
 * bench sweeps injected training-fault rate x recovery policy
 * (abort-on-fault vs rollback-retry) on a real mini training run, then
 * runs one guarded search campaign whose preferred model collapses
 * after two online updates. Expected shape: abort-on-fault loses the
 * run as soon as a fault fires, rollback-retry finishes with a finite
 * loss close to the clean run at a small step cost, and the guarded
 * search fails over instead of aborting and still finishes its budget.
 * Results go to stdout and BENCH_robustness_training.json; the exit
 * status is non-zero when the run breaks that shape: a rollback-retry
 * run ends non-finite or aborted, an abort run that saw a fault did
 * not abort, or the guarded search never failed over or measured less
 * than the clean run.
 */
#include <cmath>
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench/bench_common.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/guarded_model.h"
#include "support/str_util.h"

using namespace tlp;

namespace {

struct TrainRun
{
    double fault_rate = 0.0;
    const char *policy = "";
    double final_loss = 0.0;
    bool aborted = false;
    int64_t rollbacks = 0;
    int64_t retries_exhausted = 0;
    int64_t nan_events = 0;
};

} // namespace

int
main()
{
    std::printf("=== Robustness: training & search under numeric faults "
                "===\n");

    // --- a real mini training set (memoized collection) -----------------
    data::CollectOptions collect;
    collect.networks = {"resnet-18"};
    collect.platforms = {"platinum-8272"};
    collect.programs_per_subgraph = static_cast<int>(scaledCount(48, 16));
    collect.seed = 41;
    const auto dataset = data::collectDataset(collect);
    std::vector<int> all_records;
    for (size_t r = 0; r < dataset.records.size(); ++r)
        all_records.push_back(static_cast<int>(r));
    const auto set = data::buildTlpSet(dataset, all_records, {0});
    std::printf("training set: %d rows\n", set.rows);

    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;

    const double fault_rates[] = {0.0, 0.1, 0.3};
    struct Policy
    {
        const char *label;
        model::RecoveryPolicy policy;
    };
    const Policy policies[] = {
        {"abort", model::RecoveryPolicy::AbortOnFault},
        {"rollback-retry", model::RecoveryPolicy::RollbackRetry},
    };

    std::vector<TrainRun> runs;
    bool shape_holds = true;
    TextTable table("training fault rate x recovery policy");
    table.setHeader({"faults", "policy", "final loss", "aborted",
                     "rollbacks", "skipped"});
    for (const double rate : fault_rates) {
        for (const Policy &policy : policies) {
            // tlp-lint: allow(float-eq) -- rate is copied verbatim from the literal sweep list; exact 0.0 means injection disabled
            if (rate == 0.0 && policy.policy ==
                                   model::RecoveryPolicy::AbortOnFault)
                continue;   // no faults: both policies are the clean run
            Rng rng(7);
            model::TlpNet net(config, rng);
            model::TrainOptions options;
            options.epochs = static_cast<int>(scaledCount(2, 1));
            options.batch_size = 64;
            options.supervisor.enabled = true;
            options.supervisor.policy = policy.policy;
            options.supervisor.faults =
                model::TrainFaultProfile::uniform(rate, 0x6e);
            model::HealthCounters health;
            options.supervisor.health_out = &health;

            TrainRun run;
            run.fault_rate = rate;
            run.policy = policy.label;
            run.final_loss = trainTlpNet(net, set, options);
            run.aborted = health[model::HealthEvent::AbortPolicy] > 0;
            run.rollbacks = health[model::HealthEvent::Rollback];
            run.retries_exhausted =
                health[model::HealthEvent::RetryExhausted];
            run.nan_events = health[model::HealthEvent::NanLoss] +
                             health[model::HealthEvent::NanGrad] +
                             health[model::HealthEvent::LossDivergence];
            runs.push_back(run);
            // Every unhealthy attempt rolls back, so rollbacks > 0 means
            // the run saw a fault.
            const bool run_ok =
                policy.policy == model::RecoveryPolicy::RollbackRetry
                    ? std::isfinite(run.final_loss) && !run.aborted
                    : run.rollbacks == 0 || run.aborted;
            if (!run_ok) {
                std::printf("SHAPE VIOLATED: %s run at fault rate %.2f\n",
                            run.policy, rate);
                shape_holds = false;
            }

            table.addRow({formatDouble(rate, 2), policy.label,
                          std::isfinite(run.final_loss)
                              ? formatDouble(run.final_loss, 4)
                              : std::string("nan"),
                          run.aborted ? "yes" : "no",
                          std::to_string(run.rollbacks),
                          std::to_string(run.retries_exhausted)});
        }
        if (rate != fault_rates[std::size(fault_rates) - 1])
            table.addSeparator();
    }
    table.print();

    // --- guarded search: the preferred model collapses mid-campaign -----
    std::printf("\nguarded search: preferred model collapses after 2 "
                "online updates\n");
    ir::Workload full = ir::partitionGraph(ir::buildNetwork("resnet-18"));
    ir::Workload slim;
    slim.name = "resnet-18-slice";
    for (size_t i = 0; i < 3 && i < full.subgraphs.size(); ++i) {
        slim.subgraphs.push_back(full.subgraphs[i]);
        slim.weights.push_back(full.weights[i]);
    }
    const auto hw_platform = hw::HardwarePlatform::preset("platinum-8272");
    const auto tune_options = bench::benchTuneOptions(
        static_cast<int>(slim.subgraphs.size()));

    model::AnsorOnlineCostModel baseline;
    const auto clean = tune::tuneWorkload(slim, hw_platform, baseline,
                                          tune_options);

    auto sick = std::make_shared<model::FaultInjectedCostModel>(
        std::make_shared<model::AnsorOnlineCostModel>(), 2);
    auto guarded = model::makeGuardedLadder(sick);
    const auto degraded = tune::tuneWorkload(slim, hw_platform, *guarded,
                                             tune_options);

    TextTable search_table("search under cost-model collapse");
    search_table.setHeader({"campaign", "final ms", "measurements",
                            "active rung", "failovers"});
    search_table.addRow(
        {"healthy ansor", formatDouble(clean.best_workload_latency_ms, 3),
         std::to_string(clean.total_measurements), "0", "0"});
    search_table.addRow(
        {"collapsing+guard",
         formatDouble(degraded.best_workload_latency_ms, 3),
         std::to_string(degraded.total_measurements),
         std::to_string(guarded->activeIndex()),
         std::to_string(
             guarded->health()[model::HealthEvent::Failover])});
    search_table.print();

    std::printf("\nexpected shape: rollback-retry finishes every run with "
                "a finite loss;\nabort loses the run at the first fault; "
                "the guarded search fails over\nand completes its full "
                "measurement budget.\n");
    if (guarded->health()[model::HealthEvent::Failover] < 1 ||
        degraded.total_measurements != clean.total_measurements) {
        std::printf("SHAPE VIOLATED: guarded search\n");
        shape_holds = false;
    }

    FILE *json = bench::openReport("BENCH_robustness_training.json");
    if (!json)
        return 1;
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"robustness_training\",\n");
    std::fprintf(json, "  \"scale\": %.3f,\n", benchScale());
    std::fprintf(json, "  \"train_rows\": %d,\n", set.rows);
    std::fprintf(json, "  \"training_runs\": [\n");
    for (size_t i = 0; i < runs.size(); ++i) {
        const TrainRun &run = runs[i];
        std::fprintf(json,
                     "    {\"fault_rate\": %.2f, \"policy\": \"%s\", "
                     "\"final_loss\": %.6f, \"aborted\": %s, "
                     "\"rollbacks\": %lld, \"retries_exhausted\": %lld, "
                     "\"numeric_events\": %lld}%s\n",
                     run.fault_rate, run.policy, run.final_loss,
                     run.aborted ? "true" : "false",
                     static_cast<long long>(run.rollbacks),
                     static_cast<long long>(run.retries_exhausted),
                     static_cast<long long>(run.nan_events),
                     i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"guarded_search\": {\n");
    std::fprintf(json, "    \"clean_final_ms\": %.4f,\n",
                 clean.best_workload_latency_ms);
    std::fprintf(json, "    \"degraded_final_ms\": %.4f,\n",
                 degraded.best_workload_latency_ms);
    std::fprintf(json, "    \"clean_measurements\": %lld,\n",
                 static_cast<long long>(clean.total_measurements));
    std::fprintf(json, "    \"degraded_measurements\": %lld,\n",
                 static_cast<long long>(degraded.total_measurements));
    std::fprintf(json, "    \"active_rung\": %d,\n",
                 guarded->activeIndex());
    std::fprintf(json, "    \"failovers\": %lld\n",
                 static_cast<long long>(
                     guarded->health()[model::HealthEvent::Failover]));
    std::fprintf(json, "  }\n}\n");
    if (!bench::closeReport(json, "BENCH_robustness_training.json"))
        return 1;
    std::printf("wrote BENCH_robustness_training.json\n");
    return shape_holds ? 0 : 1;
}
