#include "models/guarded_model.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "support/stats.h"

namespace tlp::model {

// --- GuardedCostModel ---------------------------------------------------

GuardedCostModel::GuardedCostModel(
    std::vector<std::shared_ptr<CostModel>> ladder, GuardOptions options)
    : ladder_(std::move(ladder)), options_(options)
{
    TLP_CHECK(!ladder_.empty(), "guarded ladder must be non-empty");
    for (const auto &model : ladder_)
        TLP_CHECK(model != nullptr, "null rung in guarded ladder");
    if (options_.health_out != nullptr)
        health_ = *options_.health_out;
}

std::string
GuardedCostModel::name() const
{
    std::string out = "guarded:";
    for (size_t i = 0; i < ladder_.size(); ++i) {
        if (i > 0)
            out += '>';
        out += ladder_[i]->name();
    }
    return out;
}

std::string
GuardedCostModel::activeName() const
{
    return ladder_[static_cast<size_t>(active_)]->name();
}

bool
GuardedCostModel::needsLowering() const
{
    return ladder_[static_cast<size_t>(active_)]->needsLowering();
}

HealthEvent
GuardedCostModel::judgeScores(const std::vector<double> &scores) const
{
    // Constant-output collapse is only judged on a meaningful population
    // and only once measured feedback exists — online models legitimately
    // return uniform scores before their first fit.
    const bool judge_spread =
        updates_seen_ > 0 &&
        scores.size() >=
            static_cast<size_t>(options_.min_probe_candidates);
    return scoreHealth(scores,
                       judge_spread
                           ? options_.constant_eps
                           : -std::numeric_limits<double>::infinity());
}

void
GuardedCostModel::failover(HealthEvent cause)
{
    health_[cause]++;
    if (active_ + 1 >= static_cast<int>(ladder_.size()))
        return; // last rung: nothing left to fail over to
    ++active_;
    health_[HealthEvent::Failover]++;
    warn("cost model '", ladder_[static_cast<size_t>(active_ - 1)]->name(),
         "' quarantined (", healthEventName(cause), "); search continues "
         "with '", activeName(), "'");
    publishHealth();
}

std::vector<double>
GuardedCostModel::scoreStates(int task_id,
                              const std::vector<sched::State> &states)
{
    while (true) {
        CostModel &model = *ladder_[static_cast<size_t>(active_)];
        std::vector<double> scores = model.scoreStates(task_id, states);
        const bool last_rung =
            active_ + 1 >= static_cast<int>(ladder_.size());
        const HealthEvent event =
            last_rung ? HealthEvent::NumEvents : judgeScores(scores);
        if (event == HealthEvent::NumEvents) {
            publishHealth();
            return scores;
        }
        failover(event); // advances active_; re-score with the next rung
    }
}

void
GuardedCostModel::update(int task_id,
                         const std::vector<const sched::State *> &states,
                         const std::vector<double> &latency_ms)
{
    // Every rung learns from every measurement, so a later failover
    // lands on a model that is already warm.
    for (auto &model : ladder_)
        model->update(task_id, states, latency_ms);
    ++updates_seen_;

    // Maintain the probe window of recent healthy measurements.
    for (size_t i = 0; i < states.size(); ++i) {
        if (!std::isfinite(latency_ms[i]) || latency_ms[i] <= 0.0)
            continue;
        probe_states_.push_back(*states[i]);
        probe_latencies_.push_back(latency_ms[i]);
    }
    const size_t window = static_cast<size_t>(
        std::max(1, options_.probe_window));
    if (probe_states_.size() > window) {
        const size_t drop = probe_states_.size() - window;
        probe_states_.erase(probe_states_.begin(),
                            probe_states_.begin() +
                                static_cast<long>(drop));
        probe_latencies_.erase(probe_latencies_.begin(),
                               probe_latencies_.begin() +
                                   static_cast<long>(drop));
    }

    // Rank-correlation probe: does the active model still order the
    // measured states the way the hardware did?
    const bool last_rung =
        active_ + 1 >= static_cast<int>(ladder_.size());
    if (last_rung || options_.probe_every <= 0 ||
        updates_seen_ % options_.probe_every != 0 ||
        probe_states_.size() <
            static_cast<size_t>(options_.min_probe_candidates)) {
        publishHealth();
        return;
    }
    CostModel &model = *ladder_[static_cast<size_t>(active_)];
    const auto scores = model.scoreStates(task_id, probe_states_);
    const HealthEvent event = judgeScores(scores);
    if (event != HealthEvent::NumEvents) {
        failover(event);
        publishHealth();
        return;
    }
    // Higher score must mean lower latency: correlate against -latency.
    std::vector<double> neg_latency(probe_latencies_.size());
    for (size_t i = 0; i < probe_latencies_.size(); ++i)
        neg_latency[i] = -probe_latencies_[i];
    const double corr = spearman(scores, neg_latency);
    if (std::isfinite(corr) && corr < options_.rank_corr_floor)
        failover(HealthEvent::LowRankCorrelation);
    publishHealth();
}

void
GuardedCostModel::publishHealth()
{
    if (options_.health_out != nullptr)
        *options_.health_out = health_;
}

void
GuardedCostModel::serializeState(BinaryWriter &writer) const
{
    writer.writePod<int32_t>(active_);
    writer.writePod<int64_t>(updates_seen_);
    health_.serialize(writer);
    // Member states as length-prefixed blobs: a rung whose state is pure
    // replay writes an empty blob, and the frame stays self-delimiting.
    writer.writePod<uint32_t>(static_cast<uint32_t>(ladder_.size()));
    for (const auto &model : ladder_) {
        std::ostringstream buffer(std::ios::binary);
        BinaryWriter blob(buffer);
        model->serializeState(blob);
        writer.writeString(buffer.str());
    }
    // The probe window itself is not serialized: the session resume
    // replays the measured history through update(), which rebuilds it.
}

void
GuardedCostModel::deserializeState(BinaryReader &reader)
{
    const auto active = reader.readPod<int32_t>();
    if (active < 0 || active >= static_cast<int32_t>(ladder_.size())) {
        throw SerializeError(ErrorCode::Invalid,
                             "checkpointed fallback position " +
                                 std::to_string(active) +
                                 " outside this ladder");
    }
    const auto updates = reader.readPod<int64_t>();
    HealthCounters health = HealthCounters::deserialize(reader);
    const auto count = reader.readPod<uint32_t>();
    if (count != ladder_.size()) {
        throw SerializeError(ErrorCode::Invalid,
                             "checkpoint holds " + std::to_string(count) +
                                 " ladder rungs, this session has " +
                                 std::to_string(ladder_.size()));
    }
    std::vector<std::string> blobs;
    blobs.reserve(count);
    for (uint32_t i = 0; i < count; ++i)
        blobs.push_back(reader.readString());
    // All validated: commit.
    active_ = active;
    updates_seen_ = updates;
    health_ = health;
    for (uint32_t i = 0; i < count; ++i) {
        if (blobs[i].empty())
            continue;
        std::istringstream buffer(blobs[i], std::ios::binary);
        BinaryReader blob(buffer);
        ladder_[i]->deserializeState(blob);
    }
    publishHealth();
}

// --- FaultInjectedCostModel ---------------------------------------------

FaultInjectedCostModel::FaultInjectedCostModel(
    std::shared_ptr<CostModel> inner, int collapse_after_updates)
    : inner_(std::move(inner)),
      collapse_after_updates_(collapse_after_updates)
{
    TLP_CHECK(inner_ != nullptr, "null inner model");
}

bool
FaultInjectedCostModel::collapsed() const
{
    return collapse_after_updates_ > 0 &&
           updates_seen_ >= collapse_after_updates_;
}

std::vector<double>
FaultInjectedCostModel::maybeCollapse(std::vector<double> scores)
{
    if (!collapsed())
        return scores;
    // Alternate the two sickness modes by update parity so both the NaN
    // probe and the constant-collapse probe get exercised.
    const bool nan_mode = updates_seen_ % 2 == 0;
    for (auto &score : scores) {
        score = nan_mode ? std::numeric_limits<double>::quiet_NaN()
                         : 0.5;
    }
    return scores;
}

std::vector<double>
FaultInjectedCostModel::scoreStates(int task_id,
                                    const std::vector<sched::State> &states)
{
    return maybeCollapse(inner_->scoreStates(task_id, states));
}

void
FaultInjectedCostModel::update(
    int task_id, const std::vector<const sched::State *> &states,
    const std::vector<double> &latency_ms)
{
    inner_->update(task_id, states, latency_ms);
    ++updates_seen_;
}

void
FaultInjectedCostModel::serializeState(BinaryWriter &writer) const
{
    writer.writePod<int64_t>(updates_seen_);
    std::ostringstream buffer(std::ios::binary);
    BinaryWriter blob(buffer);
    inner_->serializeState(blob);
    writer.writeString(buffer.str());
}

void
FaultInjectedCostModel::deserializeState(BinaryReader &reader)
{
    updates_seen_ = reader.readPod<int64_t>();
    const std::string bytes = reader.readString();
    if (!bytes.empty()) {
        std::istringstream buffer(bytes, std::ios::binary);
        BinaryReader blob(buffer);
        inner_->deserializeState(blob);
    }
}

std::shared_ptr<GuardedCostModel>
makeGuardedLadder(std::shared_ptr<CostModel> preferred,
                  GuardOptions options)
{
    std::vector<std::shared_ptr<CostModel>> ladder;
    ladder.push_back(std::move(preferred));
    ladder.push_back(std::make_shared<AnsorOnlineCostModel>());
    ladder.push_back(std::make_shared<RandomCostModel>());
    return std::make_shared<GuardedCostModel>(std::move(ladder), options);
}

} // namespace tlp::model
