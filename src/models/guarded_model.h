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
 * a fixed number of online updates (TrainFaultProfile::
 * collapse_after_updates), making every failover path testable.
 */
#pragma once

#include <memory>

#include "models/cost_model.h"
#include "models/supervisor.h"

namespace tlp::model {

/** GuardedCostModel knobs. */
struct GuardOptions
{
    /** Scores spanning no more than this over >= min_probe_candidates
     *  candidates count as output collapse (see scoreHealth). */
    double constant_eps = 1e-9;
    /** Collapse is only judged on populations at least this large. */
    int min_probe_candidates = 8;
    /** Rank-correlation probe cadence: every Nth update() (0 = off). */
    int probe_every = 4;
    /** Spearman(model scores, -latency) below this floor is sick. */
    double rank_corr_floor = -0.2;
    /** Measured records the correlation probe keeps (most recent). */
    int probe_window = 64;
    /** Where health counters accumulate (optional, caller-owned). */
    HealthCounters *health_out = nullptr;
};

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
    GuardedCostModel(std::vector<std::shared_ptr<CostModel>> ladder,
                     GuardOptions options = {});

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

    /** Feedback goes to EVERY rung (keeps the online fallbacks warm so
     *  a later failover is seamless), then runs the correlation probe
     *  against the active rung. */
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

    /** Mirror the counters into options_.health_out (when set). */
    void publishHealth();

    std::vector<std::shared_ptr<CostModel>> ladder_;
    GuardOptions options_;
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
 * alternating NaN / constant scores. Mirrors TrainFaultProfile on the
 * search side; never used outside tests and benches.
 */
class FaultInjectedCostModel : public CostModel
{
  public:
    FaultInjectedCostModel(std::shared_ptr<CostModel> inner,
                           int collapse_after_updates);

    std::string name() const override { return inner_->name(); }
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

/** The standard ladder: @p preferred, then ansor-online, then random. */
std::shared_ptr<GuardedCostModel>
makeGuardedLadder(std::shared_ptr<CostModel> preferred,
                  GuardOptions options = {});

} // namespace tlp::model
