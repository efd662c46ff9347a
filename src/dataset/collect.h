/**
 * @file
 * Dataset collection: networks + platforms -> labeled program records.
 *
 * Plays the role of TenSet's 50-day measurement campaign: for every
 * deduplicated subgraph of the requested networks, sample random
 * schedules with the sketch policy and label them on every requested
 * platform with the measurement harness (simulator + noise).
 */
#pragma once

#include "dataset/dataset.h"
#include "hwmodel/measurer.h"

namespace tlp::data {

/** Collection parameters. */
struct CollectOptions
{
    std::vector<std::string> networks;    ///< model-zoo names
    std::vector<std::string> platforms;   ///< hardware preset names
    bool is_gpu = false;                  ///< GPU sketch rules
    int programs_per_subgraph = 128;
    uint64_t seed = 0xda7a;
    /** Fault injection for the measurement campaign (default: none).
     *  Failed measurements become NaN labels and are tallied in
     *  Dataset::failure_counts. Noise and retries are
     *  hw::MeasureOptions' defaults. */
    hw::FaultProfile faults;
};

/** Collect a dataset according to @p options. */
Dataset collectDataset(const CollectOptions &options);

} // namespace tlp::data
