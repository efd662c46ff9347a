/**
 * @file
 * The tree's one wall-clock read (DESIGN.md §11 `wallclock` rule).
 *
 * Wall time may feed timers, budgets and reports only: search-time
 * stats, the session and TrainSupervisor wall-clock budgets, and bench
 * timings. It must never reach a score, a curve, a checkpoint or a
 * search decision; those stay pure functions of seeded Rngs.
 */
#pragma once

#include <chrono>

namespace tlp {

/** Monotonic wall-clock seconds since an arbitrary fixed epoch. */
inline double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace tlp
