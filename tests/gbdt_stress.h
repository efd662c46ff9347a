/**
 * @file
 * Seeded GBDT training sets built to stress split-search ordering.
 *
 * Exact greedy splitting sorts each feature by (value, sample), so its
 * result hinges on how ties are broken. These matrices are full of
 * ties: quantized columns, mixed 0.0f / -0.0f columns, constant
 * columns and small-integer columns, next to a few continuous ones.
 * Targets are quantized too, so equal gains are common. The sets use
 * no libm and no arithmetic that FMA contraction could round
 * differently, so they are the same bits at every ISA level.
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "support/rng.h"

namespace tlp::test {

/** A row-major rows x dim feature matrix with its targets. */
struct GbdtStressSet
{
    int rows = 0;
    int dim = 0;
    std::vector<float> features;
    std::vector<float> targets;
};

/** Build a tie-heavy training set; the same seed gives the same bits. */
inline GbdtStressSet
gbdtStressSet(int rows, int dim, uint64_t seed)
{
    Rng rng(seed);
    GbdtStressSet set;
    set.rows = rows;
    set.dim = dim;
    set.features.resize(static_cast<size_t>(rows) *
                        static_cast<size_t>(dim));
    set.targets.resize(static_cast<size_t>(rows));
    for (int r = 0; r < rows; ++r) {
        float *row = set.features.data() +
                     static_cast<size_t>(r) * static_cast<size_t>(dim);
        for (int f = 0; f < dim; ++f) {
            switch (f % 5) {
            case 0:   // eighths in [-1, 1]: many ties
                row[f] = static_cast<float>(
                    std::round(rng.uniform(-8, 8)) / 8.0);
                break;
            case 1: { // signed zeros next to a few other values
                static constexpr float kValues[] = {0.0f, -0.0f, 0.5f,
                                                    -0.5f, 0.0f};
                row[f] = kValues[rng.randint(5)];
                break;
            }
            case 2:   // constant column
                row[f] = 3.0f;
                break;
            case 3:   // continuous
                row[f] = static_cast<float>(rng.uniform(-1, 1));
                break;
            default:  // small integers
                row[f] = static_cast<float>(rng.randint(4));
                break;
            }
        }
        // Every term is exact in double.
        const double noise = static_cast<double>(rng.randint(9) - 4) / 64.0;
        const double y =
            2.0 * row[0] + (row[1] > 0.0f ? 1.0 : 0.0) +
            (dim > 3 ? static_cast<double>(row[3]) * row[3] : 0.0) +
            (dim > 4 ? 0.25 * row[4] : 0.0) + noise;
        set.targets[static_cast<size_t>(r)] =
            static_cast<float>(std::round(y * 16.0) / 16.0);
    }
    return set;
}

/**
 * A 1024-row stress set whose root split is an exact gain tie between
 * columns @p first < @p second: @p first is 1 on rows r % 4 == 0,
 * @p second on rows r % 4 == 1, and the target is their sum plus
 * noise that each such pair of rows shares. Every residual at the
 * first root is a multiple of 2^-16, so both gains are the same
 * double, and exact split search must pick @p first. The two
 * subtrees then fit the noise differently, so a pick of @p second
 * moves predictions.
 */
inline GbdtStressSet
gbdtRootTieSet(int dim, int first, int second, uint64_t seed)
{
    GbdtStressSet set = gbdtStressSet(1024, dim, seed);
    Rng rng(seed + 1);
    double pair_noise = 0.0;
    for (int r = 0; r < set.rows; ++r) {
        float *row = set.features.data() +
                     static_cast<size_t>(r) * static_cast<size_t>(dim);
        row[first] = r % 4 == 0 ? 1.0f : 0.0f;
        row[second] = r % 4 == 1 ? 1.0f : 0.0f;
        double noise = static_cast<double>(rng.randint(9) - 4) / 64.0;
        if (r % 4 == 0)
            pair_noise = noise;
        else if (r % 4 == 1)
            noise = pair_noise;
        set.targets[static_cast<size_t>(r)] =
            static_cast<float>(row[first] + row[second] + noise);
    }
    return set;
}

} // namespace tlp::test
