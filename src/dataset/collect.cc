#include "dataset/collect.h"

#include <limits>
#include <map>

#include "hwmodel/measurer.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "schedule/lower.h"
#include "sketch/policy.h"
#include "support/logging.h"
#include "support/thread_pool.h"

namespace tlp::data {

Dataset
collectDataset(const CollectOptions &options)
{
    TLP_CHECK(!options.networks.empty(), "no networks to collect");
    TLP_CHECK(!options.platforms.empty(), "no platforms to collect");

    Dataset dataset;
    dataset.platforms = options.platforms;
    dataset.is_gpu = options.is_gpu;

    std::vector<hw::Measurer> measurers;
    for (const auto &platform : options.platforms) {
        hw::MeasureOptions measure_options;
        measure_options.faults = options.faults;
        measurers.emplace_back(hw::HardwarePlatform::preset(platform),
                               measure_options, options.seed);
    }

    Rng rng(options.seed);
    std::map<std::string, int> group_of_key;

    for (const auto &network : options.networks) {
        const ir::Workload workload =
            ir::partitionGraph(ir::buildNetwork(network));
        auto &network_entry = dataset.network_groups[network];

        for (size_t s = 0; s < workload.subgraphs.size(); ++s) {
            const auto &subgraph = workload.subgraphs[s];
            int group_index;
            auto it = group_of_key.find(subgraph->key());
            if (it != group_of_key.end()) {
                group_index = it->second;
            } else {
                group_index = static_cast<int>(dataset.groups.size());
                group_of_key[subgraph->key()] = group_index;
                SubgraphGroup group;
                group.subgraph = subgraph;
                group.key = subgraph->key();
                dataset.groups.push_back(std::move(group));

                // Sample and label programs for the new group.
                sketch::SchedulePolicy policy(subgraph, options.is_gpu);
                auto population = policy.sampleInitPopulation(
                    options.programs_per_subgraph, rng);
                // Lower candidates in parallel (lowering is a pure
                // function of the State); measurement stays sequential
                // below because the per-platform noise streams are
                // order-sensitive and checkpointable.
                std::vector<sched::LoweredNest> nests(population.size());
                ThreadPool::global().parallelFor(
                    0, static_cast<int64_t>(population.size()), 1,
                    [&](int64_t begin, int64_t end) {
                        for (int64_t i = begin; i < end; ++i) {
                            nests[static_cast<size_t>(i)] = sched::lower(
                                population[static_cast<size_t>(i)]);
                        }
                    });
                for (size_t c = 0; c < population.size(); ++c) {
                    const auto &state = population[c];
                    ProgramRecord record;
                    record.group = static_cast<uint32_t>(group_index);
                    record.seq = state.steps();
                    const auto &nest = nests[c];
                    record.latency_ms.reserve(measurers.size());
                    for (auto &measurer : measurers) {
                        // Failed measurements become NaN labels — the
                        // same representation as MTL's partially labeled
                        // tuples, so downstream losses skip them.
                        const auto result = measurer.measure(nest);
                        record.latency_ms.push_back(
                            result.ok() ? static_cast<float>(
                                              result.latency_ms)
                                        : std::numeric_limits<
                                              float>::quiet_NaN());
                        if (!result.ok()) {
                            dataset.failure_counts[hw::measureStatusName(
                                result.status)] += 1;
                        }
                    }
                    dataset.records.push_back(std::move(record));
                }
            }
            network_entry.push_back(
                {group_index, workload.weights[s]});
        }
    }

    dataset.refreshMinLatencies();
    return dataset;
}

} // namespace tlp::data
