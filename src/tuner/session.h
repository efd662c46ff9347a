/**
 * @file
 * End-to-end tuning session (the Ansor driver of paper Sec. 6.3).
 *
 * A session tunes every subgraph (task) of a workload on one platform:
 * each round, a task is chosen by the scheduler, one evolution round
 * proposes candidates, the top picks are "measured" on the simulated
 * hardware, the online model (if any) is updated, and the workload
 * latency curve — sum over tasks of weight x best latency — is recorded
 * against both measurement count and accumulated search time.
 *
 * Search time = simulated measurement wall clock (the dominant cost on
 * real hardware) + real wall clock spent in the cost model and feature
 * extraction. The latter is where TLP beats lowering-based baselines
 * (Fig. 10).
 *
 * The session tolerates measurement failures (hw::FaultProfile): failed
 * candidates never update the online model or the best-latency curve —
 * the curve stays monotone under any fault rate — but their wall clock
 * still counts as search time.
 *
 * A session is a fully resumable value (DESIGN.md §12): TuningSession
 * holds every piece of loop-carried state explicitly — phase, rng,
 * per-task state, measurer streams, measured history, partial result —
 * and round-trips it through the checksummed "TLPS" checkpoint artifact.
 * One step() call runs exactly one round, so a driver (tuneWorkload, or
 * the multi-session service in tuner/service) can interleave, kill, and
 * resume sessions at any round boundary; the resumed run reproduces the
 * uninterrupted run's curve exactly in measurement counts, latencies and
 * simulated measurement seconds (model wall clock is real time and
 * therefore only approximately reproducible).
 */
#pragma once

#include <iosfwd>

#include "hwmodel/measurer.h"
#include "ir/subgraph.h"
#include "models/cost_model.h"
#include "sketch/policy.h"
#include "support/result.h"
#include "tuner/evolution.h"

namespace tlp::tune {

/** Session parameters. */
struct TuneOptions
{
    int rounds = 200;              ///< total rounds across all tasks
    int measures_per_round = 10;   ///< paper: 10 -> 2000 measurements
    EvolutionOptions evolution;
    hw::MeasureOptions measure;
    uint64_t seed = 0x702e;
    bool verbose = false;

    // --- crash safety ---
    /** Checkpoint file path; empty disables checkpointing. */
    std::string checkpoint_path;
    /** Rounds between checkpoint writes (also written after the final
     *  round). */
    int checkpoint_every = 5;
    /** Resume from checkpoint_path when it exists; the session then
     *  continues to a curve bit-identical (in measurements and latency)
     *  to an uninterrupted run. */
    bool resume = false;
};

/** One point of the tuning curve. */
struct CurvePoint
{
    int64_t measurements = 0;
    double search_seconds = 0.0;
    double workload_latency_ms = 0.0;
    /** Simulated measurement seconds only (search_seconds minus the real
     *  model wall clock): the bit-reproducible part of the x axis. */
    double measure_seconds = 0.0;
};

/** Session outcome. */
struct TuneResult
{
    /** Identity of the cost model that drove the search (for a
     *  GuardedCostModel this is the whole ladder, e.g.
     *  "guarded:tlp>ansor-online>random"). */
    std::string cost_model_name;
    std::vector<CurvePoint> curve;
    double best_workload_latency_ms = 0.0;
    std::vector<double> best_per_task_ms;
    int64_t total_measurements = 0;
    double total_search_seconds = 0.0;
    double model_seconds = 0.0;      ///< cost model + features + lowering
    double measure_seconds = 0.0;    ///< simulated hardware time

    // --- measurement robustness accounting ---
    /** Measurement requests that ended in a failure class. */
    int64_t failed_measurements = 0;
    /** Simulated seconds wasted on failed attempts (incl. retries). */
    double wasted_measure_seconds = 0.0;
    /** Final-status counts indexed by hw::MeasureStatus. */
    std::vector<int64_t> status_counts;
    /** Candidates quarantined by the measurer. */
    int64_t quarantined_candidates = 0;

    /** First search time at which the curve reaches @p target latency;
     *  +inf when never reached (or the curve is empty). */
    double timeToReach(double target_latency_ms) const;
};

/** Lifecycle phase of a TuningSession (DESIGN.md §12). */
enum class SessionPhase : uint8_t
{
    Created = 0,    ///< constructed (or resumed at round 0); no round run
    Running,        ///< mid-campaign: rounds done, budget not exhausted
    Finished,       ///< finalized: budget exhausted or finished early
};

/** Short phase name, e.g. "running". */
std::string sessionPhaseName(SessionPhase phase);

/**
 * One tuning session as an explicit, resumable state machine.
 *
 * All loop-carried state lives in members (never in locals of a driver
 * loop): the search rng, per-task bests and measured-hash sets, the
 * measurer's noise stream and quarantine, the measured-round history the
 * online model is replayed from, and the partial TuneResult. step() runs
 * exactly one round and handles the checkpoint cadence; finish()
 * finalizes the result. Checkpoints are written atomically in the "TLPS"
 * format and survive kill -9 at any instant; resumeFromCheckpoint()
 * returns a Status (never aborts) so multi-session drivers can
 * quarantine a damaged checkpoint and keep serving.
 *
 * Phase transitions:
 *
 *    Created --step()--> Running --budget exhausted--> Finished
 *       |                                                 ^
 *       +--- finish() (empty run or early finalize) ------+
 */
class TuningSession
{
  public:
    /** Build a fresh session; no checkpoint I/O happens here. */
    TuningSession(const ir::Workload &workload,
                  const hw::HardwarePlatform &platform,
                  model::CostModel &cost_model,
                  const TuneOptions &options);

    TuningSession(const TuningSession &) = delete;
    TuningSession &operator=(const TuningSession &) = delete;

    SessionPhase phase() const { return phase_; }
    int roundsDone() const { return rounds_done_; }
    int roundBudget() const { return options_.rounds; }

    /** True when the round budget is exhausted (or finished early). */
    bool
    done() const
    {
        return phase_ == SessionPhase::Finished ||
               rounds_done_ >= options_.rounds;
    }

    /** Simulated measurement seconds consumed so far (deterministic,
     *  survives checkpoint/resume bit-exactly). */
    double simulatedSeconds() const;

    /** True when a checkpoint file exists at options.checkpoint_path. */
    bool checkpointExists() const;

    /**
     * Load the checkpoint at options.checkpoint_path and apply it:
     * restores rounds/rng/measurer/result/task state, replays the
     * measured history into the cost model, then applies the v3+ model
     * state blob. Any failure — unreadable, corrupt, truncated,
     * version-skewed, foreign configuration, or mismatched cost model —
     * comes back as a Status with the session untouched enough to start
     * fresh; it never terminates the process.
     */
    Status resumeFromCheckpoint();

    /**
     * Run exactly one tuning round: pick a task, evolve, measure, feed
     * the online model, extend the curve, and write a checkpoint when
     * the cadence (checkpoint_every, or the final round) says so — also
     * on rounds that yielded no candidates, so a checkpoint_every=1
     * session never re-runs a completed round after a crash.
     *
     * @return true while rounds remain in the budget.
     */
    bool step();

    /** Write a checkpoint immediately (step() handles the cadence). */
    Status saveCheckpoint() const;

    /** Status of the cadence-triggered checkpoint write of the most
     *  recent step(): Ok when none was due or it landed; the error
     *  otherwise. A service observes this to retry/degrade without the
     *  session's trajectory ever noticing (DESIGN.md §14). */
    const Status &lastCheckpointStatus() const
    {
        return last_ckpt_status_;
    }

    /**
     * Enable/disable checkpoint writes at runtime — the service's
     * Checkpointless degraded mode (DESIGN.md §14). Purely an I/O
     * policy switch: tuning state, rng draws, and the curve are
     * untouched; a crash while disabled costs re-running rounds on
     * resume, never correctness.
     */
    void setCheckpointingEnabled(bool enabled)
    {
        checkpointing_enabled_ = enabled;
    }

    /**
     * Finalize the result from the accumulated state and transition to
     * Finished (idempotent; also usable before the budget is exhausted,
     * e.g. by a service-level deadline watchdog).
     */
    const TuneResult &finish();

    /** The (partial until finish()) result accumulated so far. */
    const TuneResult &result() const { return result_; }

  private:
    /** Per-task tuning state. */
    struct TaskState
    {
        ir::SubgraphPtr subgraph;
        int weight = 1;
        double best_ms = std::numeric_limits<double>::infinity();
        int rounds_done = 0;
        double last_improvement = 1.0;
        std::set<uint64_t> measured_hashes;
    };

    /** Successful measurements of one round, kept for model replay. */
    struct RoundHistory
    {
        int task_id = 0;
        std::vector<sched::PrimitiveSeq> seqs;
        std::vector<double> latency_ms;
    };

    /** Sum over tasks of weight x best latency (inf until every task
     *  has a finite best). */
    double workloadLatency() const;

    /** Ansor-style task scheduler: next task to spend a round on. */
    size_t pickTask() const;

    const hw::HardwarePlatform platform_;
    model::CostModel &cost_model_;
    const TuneOptions options_;
    const uint64_t digest_;

    std::vector<TaskState> tasks_;
    std::vector<sketch::SchedulePolicy> policies_;
    hw::Measurer measurer_;

    SessionPhase phase_ = SessionPhase::Created;
    int rounds_done_ = 0;
    Rng rng_;
    TuneResult result_;
    std::vector<RoundHistory> history_;
    bool checkpointing_enabled_ = true;
    Status last_ckpt_status_;
};

/** Tune @p workload on @p platform guided by @p cost_model. */
TuneResult tuneWorkload(const ir::Workload &workload,
                        const hw::HardwarePlatform &platform,
                        model::CostModel &cost_model,
                        const TuneOptions &options);

/** On-disk header magic of the tuning-checkpoint artifact, "TLPS" —
 *  the artifact audit (src/artifact) keys format detection on it. */
inline constexpr uint32_t kSessionCheckpointMagic = 0x544c5053;

/**
 * Parse and integrity-check a checkpoint file (framing, checksum, every
 * field) without resuming from it. Ok means a resume would accept the
 * file structurally; a corrupt, truncated, or version-skewed file comes
 * back as a Status instead of killing the process.
 */
Status verifyCheckpoint(const std::string &path);

/** Stream variant of verifyCheckpoint, for tests and tools. */
Status verifyCheckpoint(std::istream &is);

} // namespace tlp::tune
