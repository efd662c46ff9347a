/**
 * @file
 * Training-run supervisor: numeric-anomaly detection, rollback-retry,
 * and budget watchdogs for every gradient-descent loop.
 *
 * TLP's value rests on one expensive offline pretraining run (paper
 * Sec. 6.1) and a long model-guided search; a single NaN gradient or
 * diverging loss aborts or silently poisons hours of work. The
 * supervisor wraps each optimizer step with health checks — NaN/Inf
 * loss, NaN/Inf or exploding gradient global norm, loss divergence
 * against an EWMA — and recovers by rolling the parameters and
 * optimizer state back to the last-good in-memory snapshot, backing the
 * learning rate off (seeded, deterministic), and retrying a bounded
 * number of times. Wall-clock and step budgets stop runaway runs with
 * the last-good weights intact, and epoch-level training checkpoints in
 * the DESIGN.md Sec. 8 checksummed format ("TLPT") survive crashes.
 * Every health event lands in a typed counter (HealthCounters).
 *
 * A deterministic TrainFaultProfile (mirroring hw::FaultProfile)
 * injects NaN gradients and loss spikes keyed by (step, attempt, seed)
 * — never by wall clock — so every recovery path is testable and
 * benchable bit-for-bit.
 *
 * With supervision disabled (the default) or enabled but healthy, the
 * checks are read-only: the trained weights are bit-identical to an
 * unsupervised run (tests/test_supervisor.cc pins this down).
 */
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "nn/optim.h"
#include "support/result.h"
#include "support/rng.h"
#include "support/serialize.h"

namespace tlp::model {

/** Typed health events recorded by the training & search supervisors. */
enum class HealthEvent : uint8_t
{
    NanLoss = 0,        ///< loss came back NaN/Inf
    NanGrad,            ///< a gradient is NaN/Inf
    GradExplosion,      ///< gradient global norm above the hard limit
    LossDivergence,     ///< loss far above its EWMA trend
    Rollback,           ///< parameters restored from the last-good snapshot
    RetryExhausted,     ///< a batch was skipped after bounded retries
    AbortPolicy,        ///< AbortOnFault policy stopped the run
    WallClockBudget,    ///< wall-clock watchdog stopped the run
    StepBudget,         ///< step-count watchdog stopped the run
    NanScore,           ///< cost model produced NaN/Inf scores
    ConstantScore,      ///< cost model output collapsed to a constant
    LowRankCorrelation, ///< model-vs-measured rank correlation below floor
    Failover,           ///< search switched to the next fallback model
    CheckpointWritten,  ///< a training checkpoint reached disk
    NumEvents
};

/** Number of distinct health events. */
inline constexpr int kNumHealthEvents =
    static_cast<int>(HealthEvent::NumEvents);

/** Short event name, e.g. "nan_grad". */
std::string healthEventName(HealthEvent event);

/**
 * The one cost-model score-health check, shared by the search-side
 * fallback ladder (GuardedCostModel) and the snapshot hot-swap probe
 * (probeSnapshotHealth). The spread is computed in T's own arithmetic,
 * so a float probe compares in float.
 *
 * @return NanScore when any score is NaN/Inf; ConstantScore when the
 *         scores span no more than @p eps (an empty population never
 *         does); otherwise NumEvents, meaning healthy. An @p eps of
 *         -infinity checks finiteness only. Defined for float and
 *         double.
 */
template <typename T>
HealthEvent scoreHealth(const std::vector<T> &scores, T eps);

/** Typed per-event counters; the unit all health telemetry flows into. */
struct HealthCounters
{
    std::array<int64_t, kNumHealthEvents> counts{};

    int64_t &operator[](HealthEvent event)
    {
        return counts[static_cast<size_t>(event)];
    }
    int64_t operator[](HealthEvent event) const
    {
        return counts[static_cast<size_t>(event)];
    }

    /** Sum of all counters. */
    int64_t total() const;

    /** "nan_grad=3 rollback=3" (only non-zero counters; "none" if all 0). */
    std::string toString() const;

    void serialize(BinaryWriter &writer) const;
    static HealthCounters deserialize(BinaryReader &reader);

    bool operator==(const HealthCounters &other) const
    {
        return counts == other.counts;
    }
};

/**
 * Deterministic training-fault injection (mirrors hw::FaultProfile).
 *
 * Each probability is the per-step-attempt chance of that fault. Draws
 * are pure functions of hash(step, attempt, seed) — never of wall clock
 * or call order — so faulty runs replay bit-identically and retries
 * (fresh attempt index) can succeed.
 */
struct TrainFaultProfile
{
    /** Chance a step attempt's gradients are scribbled with NaN. */
    double nan_grad_prob = 0.0;
    /** Chance a step attempt's observed loss is inflated 1e4x. */
    double loss_spike_prob = 0.0;
    /** Search side: cost-model scores collapse after this many online
     *  updates (0 = never). Consumed by FaultInjectedCostModel. */
    int collapse_after_updates = 0;
    /** Seed of the fault draws. */
    uint64_t seed = 0x7fa1;

    /** True when any fault has a non-zero probability/threshold. */
    bool enabled() const;

    /** Split @p total_rate evenly over nan-grad and loss-spike. */
    static TrainFaultProfile uniform(double total_rate,
                                     uint64_t seed = 0x7fa1);

    /** Mix the profile parameters into a config digest. */
    uint64_t digest() const;

    /** Deterministic Bernoulli draw for (step, attempt, stream). */
    bool draw(int64_t step, int attempt, uint64_t stream,
              double prob) const;
};

/** What the supervisor does when a step attempt is unhealthy. */
enum class RecoveryPolicy : uint8_t
{
    RollbackRetry = 0, ///< roll back, back off lr, retry (bounded)
    AbortOnFault,      ///< roll back and stop the run at the first fault
};

/** Supervisor parameters. */
struct SupervisorOptions
{
    /** Master switch; false = the supervisor is never consulted and the
     *  training loop behaves exactly as before. */
    bool enabled = false;

    RecoveryPolicy policy = RecoveryPolicy::RollbackRetry;

    /** Retry attempts per step before the batch is skipped. */
    int max_retries = 3;
    /** Learning-rate backoff factor applied on each rollback-retry. */
    double lr_backoff = 0.5;
    /** Seed of the deterministic backoff jitter. */
    uint64_t seed = 0x5afe;

    /** Hard gradient global-norm limit (NaN/Inf always unhealthy).
     *  Generous on purpose: OptimConfig::grad_clip handles the routine
     *  clipping; this catches true explosions. */
    double grad_norm_limit = 1e6;
    /** Loss EWMA smoothing factor. */
    double loss_ewma_alpha = 0.1;
    /** A loss above divergence_factor x EWMA (+ floor) is divergent. */
    double loss_divergence_factor = 10.0;
    /** Absolute slack added to the divergence threshold so tiny early
     *  losses don't trip it. */
    double loss_divergence_floor = 1.0;

    /** Wall-clock budget in seconds (0 = unlimited). Real time, so only
     *  the stop decision is nondeterministic — the weights returned are
     *  always a prefix of the unsupervised trajectory. */
    double max_wall_seconds = 0.0;
    /** Step budget across the whole run (0 = unlimited). */
    int64_t max_steps = 0;

    /** Epoch-level training checkpoint path ("" disables). */
    std::string checkpoint_path;
    /** Epochs between checkpoint writes. */
    int checkpoint_every = 1;

    /** Fault injection (off by default). */
    TrainFaultProfile faults;

    /** Where health counters accumulate (optional, caller-owned). */
    HealthCounters *health_out = nullptr;
};

/** Outcome of one supervised optimizer step. */
enum class StepOutcome : uint8_t
{
    Ok = 0,     ///< step applied (possibly after retries)
    Skipped,    ///< retries exhausted; batch skipped, weights last-good
    Stop,       ///< budget or abort policy: stop training now
};

// --- training checkpoints ("TLPT") --------------------------------------

/** Training-checkpoint file magic ("TLPT": TLP training state). */
inline constexpr uint32_t kTrainCheckpointMagic = 0x544c5054;

/** Current training-checkpoint format version. */
inline constexpr uint32_t kTrainCheckpointVersion = 1;

/** Everything an epoch-level training checkpoint persists. */
struct TrainCheckpoint
{
    int32_t epoch = 0;
    int64_t steps_done = 0;
    double loss_ewma = 0.0;
    bool ewma_ready = false;
    HealthCounters health;
    /** Parameter tensors, flattened, in parameters() order. */
    std::vector<std::vector<float>> params;
    /** Serialized Adam state (moments + step count + lr). */
    std::string optimizer_state;
};

/** Stream variant of the checkpoint writer (for tests/fuzzing). */
void writeTrainCheckpoint(std::ostream &os, const TrainCheckpoint &ckpt);

/**
 * Load a training checkpoint. Corruption, truncation, and version skew
 * come back as a clean Status (the DESIGN.md Sec. 8 contract).
 */
Result<TrainCheckpoint> loadTrainCheckpoint(std::istream &is);
Result<TrainCheckpoint> loadTrainCheckpoint(const std::string &path);

/** Parse + integrity-check a training checkpoint without applying it. */
Status verifyTrainCheckpoint(std::istream &is);

/**
 * The per-step supervisor. One instance wraps one training run: it owns
 * the last-good snapshot of (parameters, optimizer state) and decides,
 * for every step attempt, whether to apply, retry, skip, or stop.
 *
 * Usage (see trainTlpNet):
 *   TrainSupervisor supervisor(params, adam, options);
 *   for each batch:
 *       switch (supervisor.step([&] { zeroGrad; forward; backward;
 *                                     return loss; })) ...
 *   supervisor.endEpoch(epoch);   // EWMA checkpointing
 */
class TrainSupervisor
{
  public:
    /**
     * @p params must be the exact tensor list @p adam was built from.
     * With options.enabled == false every step() call simply runs the
     * attempt and adam.step() — zero behavioral change.
     */
    TrainSupervisor(std::vector<nn::Tensor> params, nn::Adam &adam,
                    SupervisorOptions options = {});

    /**
     * Run one supervised optimizer step. @p attempt must zero the
     * gradients, run forward + backward, and return the loss value; it
     * may be called up to 1 + max_retries times. On Ok the optimizer
     * stepped; on Skipped/Stop the parameters are the last-good ones.
     */
    StepOutcome step(const std::function<double()> &attempt);

    /**
     * Mark an epoch boundary: writes the epoch-level checkpoint when
     * configured (atomic, Sec. 8 framing; a failed write warns and
     * continues — the in-memory run is unaffected).
     */
    void endEpoch(int epoch);

    /** Loss of the last successful step attempt (NaN before any). */
    double lastLoss() const { return last_loss_; }

    /** Health counters accumulated so far. */
    const HealthCounters &health() const { return health_; }

    /** Steps applied (== optimizer steps) so far. */
    int64_t stepsDone() const { return steps_done_; }

    /** True once a budget watchdog or the abort policy fired. */
    bool stopped() const { return stopped_; }

    /** Build the checkpoint payload of the current state (for tests). */
    TrainCheckpoint makeCheckpoint(int epoch) const;

  private:
    /** Copy parameter values + optimizer state into the snapshot. */
    void takeSnapshot();

    /** Restore parameters + optimizer state from the snapshot. */
    void rollback();

    /** True when any gradient is non-finite; also yields the norm. */
    bool gradsUnhealthy(double *norm_out) const;

    /** Mirror the counters into options_.health_out (when set). */
    void publishHealth();

    std::vector<nn::Tensor> params_;
    nn::Adam &adam_;
    SupervisorOptions options_;
    Rng backoff_rng_;
    HealthCounters health_;

    std::vector<std::vector<float>> snapshot_params_;
    std::string snapshot_optimizer_;

    double loss_ewma_ = 0.0;
    bool ewma_ready_ = false;
    double last_loss_ = std::numeric_limits<double>::quiet_NaN();
    int64_t steps_done_ = 0;        ///< applied optimizer steps
    int64_t step_serial_ = 0;       ///< attempted steps (fault-draw key)
    bool stopped_ = false;
    double start_seconds_ = 0.0;    ///< wall clock at construction
};

} // namespace tlp::model
