/**
 * @file
 * Global experiment scaling knobs.
 *
 * The paper trains on millions of records per platform; on a laptop-class
 * box, benches default to a reduced scale and can be grown toward paper
 * scale with the TLP_BENCH_SCALE environment variable (a positive double;
 * 1.0 = quick default scale).
 */
#pragma once

#include <cstdint>
#include <string>

namespace tlp {

/** The value of TLP_BENCH_SCALE, clamped to [0.05, 1000]; default 1. */
double benchScale();

/** Scale a default count, with a floor so tiny scales stay functional. */
int64_t scaledCount(int64_t base, int64_t floor = 1);

/** Read a numeric environment variable with a default. */
double envOr(const std::string &name, double fallback);

} // namespace tlp
