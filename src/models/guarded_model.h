/**
 * @file
 * Degraded-mode search: a health-probed cost-model fallback ladder.
 *
 * A learned cost model can go numerically sick mid-campaign — NaN
 * scores, output collapsed to a constant, or predictions that stop
 * correlating with measured latencies. Aborting throws away the whole
 * search; scoring with garbage silently wastes the measurement budget
 * (Pruner showed a cheap fallback scorer retains most search quality).
 * GuardedCostModel wraps an ordered ladder of models (typically
 * TlpCostModel -> AnsorOnlineCostModel -> RandomCostModel), probes the
 * active model's health on every scoring call and on measured feedback,
 * and quarantines a sick model by failing over to the next rung —
 * without aborting the campaign. Every transition lands in the shared
 * HealthCounters and the fallback position serializes into the tuning
 * checkpoint, so a resumed session continues in the same degraded mode.
 *
 * FaultInjectedCostModel deterministically breaks a wrapped model after
 * a fixed number of online updates, making every failover path testable.
 */
#pragma once

#include <memory>

#include "models/cost_model.h"
#include "models/supervisor.h"

namespace tlp::model {

/** Collapse is only judged on populations at least this large, and the
 *  rank-correlation probe only runs on at least this many records. */
inline constexpr size_t kGuardMinProbeCandidates = 8;
/** Rank-correlation probe cadence: every Nth update(). */
inline constexpr int64_t kGuardProbeEvery = 4;
/** Scores spanning no more than this over >= kGuardMinProbeCandidates
 *  candidates count as output collapse (see scoreHealth). */
inline constexpr double kGuardConstantEps = 1e-9;
/** Spearman(model scores, -latency) below this floor is sick. */
inline constexpr double kGuardRankCorrFloor = -0.2;
/** Measured records the correlation probe keeps (most recent). */
inline constexpr size_t kGuardProbeWindow = 64;

/**
 * A cost model that survives its own members: scores through the active
 * rung of a fallback ladder, failing over on NaN output, constant
 * collapse, or rank correlation below the floor.
 */
class GuardedCostModel : public CostModel
{
  public:
    /** @p ladder is tried in order; must be non-empty. The last rung is
     *  trusted unconditionally (nothing to fail over to). */
    explicit GuardedCostModel(
        std::vector<std::shared_ptr<CostModel>> ladder);

    /** Stable identity for checkpoint compatibility ("guarded:a>b>c"). */
    std::string name() const override;

    /** Name of the rung currently scoring, e.g. "ansor-online". */
    std::string activeName() const;

    /** Index of the active rung (0 = the preferred model). */
    int activeIndex() const { return active_; }

    /** Health counters accumulated so far. */
    const HealthCounters &health() const { return health_; }

    /** Score via the active rung, failing over until scores are sane. */
    std::vector<double>
    scoreStates(int task_id, const std::vector<sched::State> &states)
        override;

    /** Feedback goes to every live rung, active_ onward (keeps the
     *  online fallbacks warm so a later failover is seamless), then
     *  runs the correlation probe against the active rung. */
    void update(int task_id,
                const std::vector<const sched::State *> &states,
                const std::vector<double> &latency_ms) override;

    /** Lowering requirement of the ACTIVE rung (failover can only relax
     *  it in the standard tlp>ansor>random ladder's final rung). */
    bool needsLowering() const override;

    /** Ladder position, probe window, counters, and member states. */
    void serializeState(BinaryWriter &writer) const override;
    void deserializeState(BinaryReader &reader) override;

  private:
    /** scoreHealth of @p scores under this ladder's collapse rules:
     *  NumEvents when healthy, else the probe that tripped. */
    HealthEvent judgeScores(const std::vector<double> &scores) const;

    /** Advance to the next rung, recording the transition. */
    void failover(HealthEvent cause);

    std::vector<std::shared_ptr<CostModel>> ladder_;
    int active_ = 0;
    int64_t updates_seen_ = 0;
    HealthCounters health_;
    /** Most recent measured (state, latency) pairs for the probe. */
    std::vector<sched::State> probe_states_;
    std::vector<double> probe_latencies_;
};

/**
 * Deterministic model-sickness injection: forwards to @p inner until
 * @p collapse_after_updates update() calls have happened, then returns
 * alternating NaN / constant scores. The search-side counterpart of
 * TrainFaultProfile; never used outside tests and benches.
 */
class FaultInjectedCostModel : public CostModel
{
  public:
    FaultInjectedCostModel(std::shared_ptr<CostModel> inner,
                           int collapse_after_updates);

    /** "faulty:<inner>": a failover never names one model twice. */
    std::string name() const override
    {
        return std::string("faulty:") + inner_->name();
    }
    std::vector<double>
    scoreStates(int task_id, const std::vector<sched::State> &states)
        override;
    void update(int task_id,
                const std::vector<const sched::State *> &states,
                const std::vector<double> &latency_ms) override;
    bool needsLowering() const override
    {
        return inner_->needsLowering();
    }
    void serializeState(BinaryWriter &writer) const override;
    void deserializeState(BinaryReader &reader) override;

    /** True once the injected collapse has triggered. */
    bool collapsed() const;

  private:
    std::vector<double> maybeCollapse(std::vector<double> scores);

    std::shared_ptr<CostModel> inner_;
    int collapse_after_updates_;
    int64_t updates_seen_ = 0;
};

/** The standard ladder: @p preferred, then ansor-online (unless
 *  @p preferred is ansor-online itself), then random. */
std::shared_ptr<GuardedCostModel>
makeGuardedLadder(std::shared_ptr<CostModel> preferred);

} // namespace tlp::model
