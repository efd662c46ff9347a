/**
 * @file
 * Training-run supervisor: numeric-anomaly detection and retry for every
 * gradient-descent loop.
 *
 * TLP's value rests on one expensive offline pretraining run (paper
 * Sec. 6.1) and a long model-guided search; a single NaN gradient or
 * diverging loss aborts or silently poisons hours of work. The
 * supervisor wraps each optimizer step with health checks — NaN/Inf
 * loss, NaN/Inf or exploding gradient global norm, loss divergence
 * against an EWMA — before the optimizer applies it. An attempt only
 * zeroes the gradients and runs forward and backward, so a rejected
 * attempt leaves the parameters and optimizer state exactly as the last
 * applied step left them; recovery backs the learning rate off (seeded,
 * deterministic) and retries a bounded number of times. Every health
 * event lands in a typed counter (HealthCounters).
 *
 * A deterministic TrainFaultProfile (mirroring hw::FaultProfile)
 * injects NaN gradients and loss spikes keyed by (step, attempt, seed)
 * — never by wall clock — so every recovery path is testable and
 * benchable bit-for-bit.
 *
 * On a healthy step the checks are read-only: the step applies exactly
 * Adam::step(Adam::gradNorm()), so a clean run's weights are those of a
 * plain Adam loop (tests/test_supervisor.cc and TrainingDigest.* pin
 * this down).
 *
 * trainSupervised is the one epoch loop every learned model trains
 * through (trainTlpNet, trainMlp, GPT/BERT pretraining).
 */
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "nn/optim.h"
#include "support/rng.h"
#include "support/serialize.h"

namespace tlp::model {

/**
 * Typed health events recorded by the training & search supervisors.
 * HealthCounters serialize by position (inside the "TLPS" guarded-model
 * state), so events are only ever appended and retired slots stay.
 */
enum class HealthEvent : uint8_t
{
    NanLoss = 0,        ///< loss came back NaN/Inf
    NanGrad,            ///< a gradient is NaN/Inf
    GradExplosion,      ///< gradient global norm above the hard limit
    LossDivergence,     ///< loss far above its EWMA trend
    Rollback,           ///< an unhealthy attempt was rejected unapplied
    RetryExhausted,     ///< a batch was skipped after bounded retries
    AbortPolicy,        ///< AbortOnFault policy stopped the run
    WallClockBudget,    ///< never raised; slot kept for counter positions
    StepBudget,         ///< never raised; slot kept for counter positions
    NanScore,           ///< cost model produced NaN/Inf scores
    ConstantScore,      ///< cost model output collapsed to a constant
    LowRankCorrelation, ///< model-vs-measured rank correlation below floor
    Failover,           ///< search switched to the next fallback model
    CheckpointWritten,  ///< never raised; slot kept for counter positions
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
    /** Seed of the fault draws. */
    uint64_t seed = 0x7fa1;

    /** Split @p total_rate evenly over nan-grad and loss-spike. */
    static TrainFaultProfile uniform(double total_rate,
                                     uint64_t seed = 0x7fa1);

    /** Deterministic Bernoulli draw for (step, attempt, stream). */
    bool draw(int64_t step, int attempt, uint64_t stream,
              double prob) const;
};

/** What the supervisor does when a step attempt is unhealthy. */
enum class RecoveryPolicy : uint8_t
{
    RollbackRetry = 0, ///< reject the attempt, back off lr, retry (bounded)
    AbortOnFault,      ///< reject the attempt and stop the run
};

/** Learning-rate backoff factor applied on each retry. */
inline constexpr double kSupervisorLrBackoff = 0.5;
/** Hard gradient global-norm limit (NaN/Inf always unhealthy). Generous
 *  on purpose: Adam's nn::kAdamGradClip handles the routine clipping;
 *  this catches true explosions. */
inline constexpr double kSupervisorGradNormLimit = 1e6;
/** Loss EWMA smoothing factor. */
inline constexpr double kSupervisorLossEwmaAlpha = 0.1;
/** A loss above this factor x EWMA (+ floor) is divergent. */
inline constexpr double kSupervisorLossDivergenceFactor = 10.0;
/** Absolute slack added to the divergence threshold so tiny early
 *  losses don't trip it. */
inline constexpr double kSupervisorLossDivergenceFloor = 1.0;

/** Retry attempts per step before the batch is skipped. */
inline constexpr int kSupervisorMaxRetries = 3;
/** Seed of the deterministic learning-rate backoff jitter. */
inline constexpr uint64_t kSupervisorSeed = 0x5afe;

/** Supervisor parameters. */
struct SupervisorOptions
{
    RecoveryPolicy policy = RecoveryPolicy::RollbackRetry;

    /** Fault injection (off by default). */
    TrainFaultProfile faults;

    /** Where health counters accumulate (optional, caller-owned). */
    HealthCounters *health_out = nullptr;
};

/** Outcome of one supervised optimizer step. */
enum class StepOutcome : uint8_t
{
    Ok = 0,     ///< step applied (possibly after retries)
    Skipped,    ///< retries exhausted; batch skipped, weights untouched
    Stop,       ///< abort policy: stop training now
};

/**
 * The per-step supervisor. One instance wraps one training run and
 * decides, for every step attempt, whether to apply, retry, skip, or
 * stop.
 *
 * Usage (see trainSupervised):
 *   TrainSupervisor supervisor(params, adam, options);
 *   for each batch:
 *       switch (supervisor.step([&] { zeroGrad; forward; backward;
 *                                     return loss; })) ...
 */
class TrainSupervisor
{
  public:
    /** @p params must be the exact tensor list @p adam was built from. */
    TrainSupervisor(std::vector<nn::Tensor> params, nn::Adam &adam,
                    SupervisorOptions options = {});

    /**
     * Run one supervised optimizer step. @p attempt must zero the
     * gradients, run forward + backward, and return the loss value; it
     * may be called up to 1 + kSupervisorMaxRetries times and must not
     * change the parameter values or the optimizer state. On Ok the
     * optimizer stepped; on Skipped/Stop it did not.
     */
    StepOutcome step(const std::function<double()> &attempt);

    /** Health counters accumulated so far. */
    const HealthCounters &health() const { return health_; }

    /** Steps applied (== optimizer steps) so far. */
    int64_t stepsDone() const { return steps_done_; }

    /** True once the abort policy fired. */
    bool stopped() const { return stopped_; }

  private:
    /** Mirror the counters into options_.health_out (when set). */
    void publishHealth();

    std::vector<nn::Tensor> params_;
    nn::Adam &adam_;
    SupervisorOptions options_;
    Rng backoff_rng_;
    HealthCounters health_;

    double loss_ewma_ = 0.0;
    bool ewma_ready_ = false;
    int64_t steps_done_ = 0;        ///< applied optimizer steps
    int64_t step_serial_ = 0;       ///< attempted steps (fault-draw key)
    bool stopped_ = false;
};

/** One batch's forward pass, returning its scalar training loss. */
using LossFn = std::function<nn::Tensor()>;

/**
 * The supervised epoch loop shared by every learned model. It builds
 * Adam over @p params, the TrainSupervisor and one tape pool, then runs
 * up to @p epochs epochs:
 *   - @p epoch_batches returns the epoch's row batches (it may draw
 *     from the caller's rng: it is called once per epoch, in order);
 *   - @p batch_loss builds each batch's LossFn before any step attempt,
 *     so draws made while building (BERT masks) happen once per batch,
 *     not per retry; an empty LossFn skips the batch unstepped;
 *   - each attempt zeroes the gradients, runs the LossFn inside one
 *     TapePool::Scope and backpropagates the loss;
 *   - after each epoch the learning rate is scaled by
 *     @p lr_decay_per_epoch, and with a @p log_label (null = quiet)
 *     "<label> epoch E loss L lr X" is logged.
 * A Stop ends training inside its epoch.
 * @return mean loss of the last epoch's applied steps (0 when none).
 */
double trainSupervised(
    std::vector<nn::Tensor> params, const nn::AdamOptions &adam_options,
    const SupervisorOptions &supervisor_options, int epochs,
    double lr_decay_per_epoch, const char *log_label,
    const std::function<std::vector<std::vector<int>>()> &epoch_batches,
    const std::function<LossFn(const std::vector<int> &rows)> &batch_loss);

} // namespace tlp::model
