/**
 * @file
 * The three benchmark workloads. Each run repeats identical units of
 * fixed work (a training run, a tuning session, a fleet), as many as
 * fit the requested seconds at the unit's nominal length, times the
 * set-up of every unit on its own, and checks every unit's
 * deterministic outputs.
 *
 *   pretrain  trainTlpNet on the tune_workload mini dataset
 *   tune      one resnet-18 TuningSession behind a cached, fused
 *             TlpCostModel, stepped round by round
 *   fleet     one TuningService of 4 guarded-TLP + 4 guarded-Ansor
 *             sessions, ticked until idle
 *
 * A traced run (--trace 1) runs two untraced units and one traced unit
 * and reports the per-layer split of the traced one (see README.md).
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Number of input variants; the seed picks one (seed mod kVariants). */
inline constexpr uint64_t kVariants = 8;

/** What one benchmark invocation asks for. */
struct RunConfig
{
    uint64_t seed = 0;
    /** Measuring time; sets the number of units (see runUnits). */
    double seconds = 10.0;
    bool trace = false;
    /** Fresh working directory owned by this run. */
    std::string dir;

    uint64_t variant() const { return seed % kVariants; }
};

/** Everything a workload measured and checked. */
struct RunResult
{
    /** Output-check failures; empty means every check passed. */
    std::vector<std::string> errors;
    /** Operations attempted and failed, on the workload's own base. */
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Wall seconds of every set-up performed. */
    std::vector<double> setup_s;
    /** Work one unit does (training samples or session rounds). */
    int64_t unit_work = 0;
    /** Per untraced unit, the latency of each of its steps in order:
     *  the whole training run (pretrain), each round (tune) or each
     *  tick (fleet). Units are identical, so step i is the same work in
     *  every unit. */
    std::vector<std::vector<double>> unit_step_ms;
    /** Deterministic outputs of each unit, compared to pinned values. */
    std::map<std::string, std::string> outputs;
    /** Per-layer metrics of the traced unit (traced runs only). */
    std::map<std::string, double> layers;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;

    /** Record @p value for @p key; a unit disagreeing with an earlier
     *  unit on the same key is an error. */
    void output(const std::string &key, const std::string &value);

    /** Record one untraced unit: @p work done in steps of @p step_ms. */
    void addUnit(int64_t work, const std::vector<double> &step_ms);

    /**
     * Work per second of the fastest run of each step: unit_work over
     * the sum, over step i, of step i's least latency across units. The
     * machine's noise (CPU steal, neighbours) only ever adds time, so
     * the best of identical repeats is the steadiest estimate.
     */
    double throughput() const;
};

RunResult runPretrain(const RunConfig &config);
RunResult runTune(const RunConfig &config);
RunResult runFleet(const RunConfig &config);

/** Percentile @p q in [0, 1] of @p values (nearest rank); 0 if empty. */
double percentile(std::vector<double> values, double q);

} // namespace perfbench
