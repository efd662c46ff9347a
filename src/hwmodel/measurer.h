/**
 * @file
 * Measurement harness around the latency simulator.
 *
 * Mirrors the paper's description of on-hardware measurement: each
 * measurement compiles + loads + runs the program several times (hundreds
 * of milliseconds of wall clock per program), with run-to-run noise. The
 * Measurer adds that noise, takes the best of kMeasureRepeats runs, and
 * accounts the simulated wall-clock cost so the search-based benchmarks
 * (Figs. 11-13) can report search time.
 *
 * On real hardware, measurements fail constantly — Ansor carries an
 * explicit MeasureErrorNo taxonomy and TenSet records invalid runs. The
 * Measurer reproduces that failure surface with a deterministic fault
 * injector (FaultProfile): which fault class a candidate draws is a pure
 * function of (lowered-program fingerprint, platform, fault seed), never
 * of measurement order, so the simulator determinism invariant holds and
 * campaigns replay bit-identically. The run-to-run noise keeps its own
 * sequential stream (seeded per platform), which serializeState()
 * persists so a resumed campaign continues the stream exactly.
 * Transient faults (timeout, runtime error, outlier) are retried up to a
 * cap; compile errors are permanent and fail immediately; candidates
 * that keep failing are quarantined so the search stops burning wall
 * clock on them. Every attempt — successful or not — accrues
 * elapsedSeconds(), because failed measurements still cost search time.
 */
#pragma once

#include <array>
#include <limits>
#include <map>

#include "hwmodel/simulator.h"
#include "support/rng.h"
#include "support/serialize.h"

namespace tlp::hw {

/** Outcome classes of one measurement (Ansor's MeasureErrorNo, pruned). */
enum class MeasureStatus : uint8_t
{
    Ok = 0,         ///< valid latency obtained
    CompileError,   ///< candidate never builds (permanent)
    Timeout,        ///< run exceeded the watchdog (transient)
    RuntimeError,   ///< kernel crashed or device faulted (transient)
    Outlier,        ///< repeats disagreed wildly; latency discarded
    NumStatuses
};

/** Number of distinct measurement statuses. */
inline constexpr int kNumMeasureStatuses =
    static_cast<int>(MeasureStatus::NumStatuses);

/** Short status name, e.g. "timeout". */
std::string measureStatusName(MeasureStatus status);

/**
 * Deterministic fault injection profile.
 *
 * Each probability is the per-draw chance of that fault class. Draws are
 * derived by hashing (program fingerprint, platform, seed), never from a
 * sequential RNG, so whether a given candidate faults is independent of
 * measurement order. Compile errors are drawn once per candidate
 * (permanent); the transient classes are drawn per attempt, so retries
 * can succeed.
 */
struct FaultProfile
{
    double compile_error_prob = 0.0;
    double timeout_prob = 0.0;
    double runtime_error_prob = 0.0;
    double outlier_prob = 0.0;
    /** Wall clock burned by one timed-out run (the watchdog cap). */
    double timeout_seconds = 2.0;
    /** Seed of the fault draws (independent of the noise seed). */
    uint64_t seed = 0xfa17;

    /** True when any fault class has non-zero probability. */
    bool enabled() const;

    /** Split @p total_rate evenly over the four fault classes. */
    static FaultProfile uniform(double total_rate, uint64_t seed = 0xfa17);

    /** Mix the profile parameters into a config digest. */
    uint64_t digest() const;
};

/** Runs per successful measurement; the best one is kept. */
inline constexpr int kMeasureRepeats = 3;
/** Relative run-to-run noise of one run. */
inline constexpr double kMeasureNoiseStd = 0.02;
/** Simulated compile+load+run wall clock of one measurement attempt. */
inline constexpr double kSecondsPerMeasure = 0.25;

/** Options of the measurement pipeline. */
struct MeasureOptions
{
    FaultProfile faults;              ///< default: no faults injected
    int max_retries = 2;              ///< extra attempts for transient faults
    int quarantine_after = 3;         ///< failed calls before quarantine
};

/** Outcome of one measurement request. */
struct MeasureResult
{
    MeasureStatus status = MeasureStatus::Ok;
    /** Best-of-repeats latency; NaN unless status == Ok. */
    double latency_ms = std::numeric_limits<double>::quiet_NaN();
    /** Hardware attempts consumed (0 for a quarantine short-circuit). */
    int attempts = 0;
    /** Simulated wall clock consumed by this request. */
    double seconds_spent = 0.0;

    bool ok() const { return status == MeasureStatus::Ok; }
};

/** Simulated on-hardware measurer with fault injection. */
class Measurer
{
  public:
    Measurer(HardwarePlatform hw, MeasureOptions options = {},
             uint64_t seed = 0x5eed);

    const HardwarePlatform &platform() const { return sim_.platform(); }
    const LatencySimulator &simulator() const { return sim_; }
    const MeasureOptions &options() const { return options_; }

    /**
     * Measure @p nest with retries and quarantine. The fault class (ok
     * or which failure) is a pure function of (nest, platform, fault
     * seed) regardless of call order; a successful latency additionally
     * draws run-to-run noise from the measurer's sequential stream.
     */
    MeasureResult measure(const sched::LoweredNest &nest);

    /** Measure @p nest: latency in ms, NaN when the measurement failed. */
    double measureMs(const sched::LoweredNest &nest);

    /** Total simulated wall-clock seconds spent measuring so far. */
    double elapsedSeconds() const { return elapsed_seconds_; }

    /** Simulated seconds wasted on failed attempts (subset of elapsed). */
    double failureSeconds() const { return failure_seconds_; }

    /** Number of measurement requests performed. */
    int64_t count() const { return count_; }

    /** Final-status counts of all measure() calls, by MeasureStatus. */
    const std::array<int64_t, kNumMeasureStatuses> &
    statusCounts() const
    {
        return status_counts_;
    }

    /** Number of candidates currently quarantined. */
    int64_t quarantineSize() const
    {
        return static_cast<int64_t>(quarantined_.size());
    }

    /** True when @p nest has been quarantined. */
    bool isQuarantined(const sched::LoweredNest &nest) const;

    /** Number of measure() calls short-circuited by the quarantine. */
    int64_t quarantineHits() const { return quarantine_hits_; }

    /**
     * Persist / restore the noise stream + accounting + quarantine state
     * (for checkpointed tuning sessions). The fault injector itself is
     * stateless, so this is all the state a resume needs.
     */
    void serializeState(BinaryWriter &writer) const;
    void deserializeState(BinaryReader &reader);

  private:
    /** Fault-draw key of @p nest on this platform. */
    uint64_t faultKey(const sched::LoweredNest &nest) const;

    LatencySimulator sim_;
    MeasureOptions options_;
    uint64_t platform_hash_;
    Rng rng_;
    double elapsed_seconds_ = 0.0;
    double failure_seconds_ = 0.0;
    int64_t count_ = 0;
    int64_t quarantine_hits_ = 0;
    std::array<int64_t, kNumMeasureStatuses> status_counts_{};
    /** fingerprint -> consecutive failed measure() calls. */
    std::map<uint64_t, int> failure_streak_;
    /** fingerprint -> status that caused the quarantine. */
    std::map<uint64_t, MeasureStatus> quarantined_;
};

} // namespace tlp::hw
