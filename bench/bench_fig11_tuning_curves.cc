/**
 * @file
 * Paper Fig. 11: tuning curves (workload latency vs search time) for the
 * five evaluation networks on CPU and GPU, under four cost models:
 * Ansor's online model, the TenSet MLP, TLP, and MTL-TLP. Paper shape:
 * TLP and MTL-TLP converge to low latency fastest, most pronounced on
 * CPU; Ansor's online model is slowest.
 */
#include <cstdio>

#include "bench/bench_common.h"
#include "support/str_util.h"

int
main()
{
    using namespace tlp;
    std::printf("=== Fig. 11: tuning curves ===\n");

    for (const bench::SearchPlatform &spec : bench::searchPlatforms()) {
        std::printf("\n--- %s ---\n", spec.label);
        const auto dataset = bench::standardDataset(spec.platforms,
                                                    spec.gpu);
        const auto split =
            data::makeSplit(dataset, bench::benchTestNetworks());
        auto models = bench::prepareSearchModels(dataset, split);

        for (const auto &network : bench::benchTestNetworks()) {
            std::printf("\nworkload: %s on %s\n", network.c_str(),
                        spec.platforms[0].c_str());
            TextTable table("tuning curve checkpoints "
                            "(workload latency in ms)");
            table.setHeader({"model", "25% budget", "50% budget",
                             "75% budget", "final", "search s"});

            std::vector<std::pair<std::string, model::CostModel *>> runs =
                {{"ansor-online", models.ansor.get()},
                 {"tenset-mlp", models.mlp.get()},
                 {"tlp", models.tlp.get()},
                 {"mtl-tlp", models.mtl.get()}};
            for (auto &[name, cost_model] : runs) {
                if (!cost_model)
                    continue;
                const auto result = bench::tuneNetwork(
                    network, spec.platforms[0], *cost_model);
                auto at = [&](double fraction) {
                    if (result.curve.empty())
                        return std::string("-");
                    const size_t idx = std::min(
                        result.curve.size() - 1,
                        static_cast<size_t>(fraction *
                                            static_cast<double>(
                                                result.curve.size())));
                    const double value =
                        result.curve[idx].workload_latency_ms;
                    return std::isfinite(value) ? formatDouble(value, 3)
                                                : std::string("inf");
                };
                table.addRow({name, at(0.25), at(0.5), at(0.75),
                              formatDouble(
                                  result.best_workload_latency_ms, 3),
                              formatDouble(result.total_search_seconds,
                                           1)});
            }
            table.print();
        }
    }
    std::printf("\npaper shape: TLP/MTL-TLP curves drop fastest; the "
                "online model needs far more measurements.\n");
    return 0;
}
