/**
 * @file
 * Build and save a TenSet-style dataset, then print its statistics —
 * the data-engineering side of the paper (Sec. 2, Fig. 6, Table 1).
 *
 * Usage: dataset_builder [--out /tmp/tlp_dataset.bin]
 *                        [--programs 64] [--gpu]
 *        dataset_builder --load /tmp/tlp_dataset.bin [--salvage]
 *
 * --load inspects an existing dataset file instead of collecting one.
 * A corrupt file is one clear fatal message; with --salvage, intact
 * record chunks are recovered and the per-class corruption tallies are
 * printed alongside the statistics.
 */
#include <cstdio>

#include "dataset/collect.h"
#include "hwmodel/platform.h"
#include "ir/model_zoo.h"
#include "support/argparse.h"
#include "support/stats.h"
#include "support/table.h"

using namespace tlp;

namespace {

/** The Fig. 6 / Table 1 / Sec. 4.3 statistics block. */
void
printStats(const data::Dataset &dataset)
{
    // Fig. 6: sequence-length distribution.
    IntHistogram histogram;
    for (const auto &record : dataset.records)
        histogram.add(record.seq.size());
    std::printf("sequence lengths: %lld..%lld, mode %lld\n",
                static_cast<long long>(histogram.minKey()),
                static_cast<long long>(histogram.maxKey()),
                static_cast<long long>(histogram.modeKey()));

    // Table 1: max embedding sizes.
    TextTable table("max embedding size per primitive kind");
    table.setHeader({"primitive", "size"});
    for (const auto &[kind, size] : dataset.maxEmbeddingSizes())
        table.addRow({kind, std::to_string(size)});
    table.print();

    std::printf("repetition rate: %.4f%% (paper: ~1%%)\n",
                100.0 * dataset.repetitionRate());
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("collect a tensor-program dataset");
    args.addString("out", "/tmp/tlp_dataset.bin", "output path");
    args.addInt("programs", 64, "programs per subgraph");
    args.addBool("gpu", false, "GPU schedules and platforms");
    args.addString("load", "",
                   "inspect an existing dataset file instead of "
                   "collecting");
    args.addBool("salvage", false,
                 "with --load: skip corrupt record chunks and report "
                 "what was lost");
    args.parse(argc, argv);

    if (!args.getString("load").empty()) {
        const std::string path = args.getString("load");
        data::LoadOptions load_options;
        load_options.salvage = args.getBool("salvage");
        auto loaded = data::Dataset::tryLoad(path, load_options);
        if (!loaded.ok()) {
            if (!load_options.salvage) {
                artifactFatal(loaded.status(), "cannot load dataset ",
                              path,
                              " (rerun with --salvage to recover the "
                              "intact records)");
            }
            artifactFatal(loaded.status(), "cannot load dataset ", path);
        }
        const auto dataset = loaded.take();
        std::printf("loaded %zu records over %zu subgraph groups from "
                    "%s\n",
                    dataset.records.size(), dataset.groups.size(),
                    path.c_str());
        if (!dataset.corruption_counts.empty()) {
            TextTable table("corruption skipped during salvage");
            table.setHeader({"class", "count"});
            for (const auto &[name, count] : dataset.corruption_counts)
                table.addRow({name, std::to_string(count)});
            table.print();
        }
        std::printf("\n");
        printStats(dataset);
        return 0;
    }

    data::CollectOptions options;
    options.networks = ir::allNetworkNames();
    options.platforms = args.getBool("gpu")
                            ? hw::HardwarePlatform::gpuPresetNames()
                            : hw::HardwarePlatform::cpuPresetNames();
    options.is_gpu = args.getBool("gpu");
    options.programs_per_subgraph =
        static_cast<int>(args.getInt("programs"));

    std::printf("collecting %zu networks x %zu platforms...\n",
                options.networks.size(), options.platforms.size());
    const auto dataset = data::collectDataset(options);
    const Status saved = dataset.save(args.getString("out"));
    if (!saved.ok()) {
        TLP_FATAL("cannot save dataset ", args.getString("out"), ": ",
                  saved.toString());
    }
    std::printf("saved %zu records over %zu subgraph groups to %s\n\n",
                dataset.records.size(), dataset.groups.size(),
                args.getString("out").c_str());

    printStats(dataset);
    return 0;
}
