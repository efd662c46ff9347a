#include "models/supervisor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace tlp::model {

namespace {

// Stream discriminators of the per-(step, attempt) fault draws, so the
// nan-grad and loss-spike Bernoullis are independent.
constexpr uint64_t kStreamNanGrad = 0x6772;   // "gr"
constexpr uint64_t kStreamLossSpike = 0x6c73; // "ls"

} // namespace

// --- HealthCounters -----------------------------------------------------

std::string
healthEventName(HealthEvent event)
{
    switch (event) {
      case HealthEvent::NanLoss:            return "nan_loss";
      case HealthEvent::NanGrad:            return "nan_grad";
      case HealthEvent::GradExplosion:      return "grad_explosion";
      case HealthEvent::LossDivergence:     return "loss_divergence";
      case HealthEvent::Rollback:           return "rollback";
      case HealthEvent::RetryExhausted:     return "retry_exhausted";
      case HealthEvent::AbortPolicy:        return "abort_policy";
      case HealthEvent::WallClockBudget:    return "wall_clock_budget";
      case HealthEvent::StepBudget:         return "step_budget";
      case HealthEvent::NanScore:           return "nan_score";
      case HealthEvent::ConstantScore:      return "constant_score";
      case HealthEvent::LowRankCorrelation: return "low_rank_correlation";
      case HealthEvent::Failover:           return "failover";
      case HealthEvent::CheckpointWritten:  return "checkpoint_written";
      case HealthEvent::NumEvents:          break;
    }
    return "unknown";
}

template <typename T>
HealthEvent
scoreHealth(const std::vector<T> &scores, T eps)
{
    for (const T score : scores) {
        if (!std::isfinite(score))
            return HealthEvent::NanScore;
    }
    if (scores.empty())
        return HealthEvent::NumEvents;
    const auto [lo, hi] = std::minmax_element(scores.begin(), scores.end());
    if (!(*hi - *lo > eps))
        return HealthEvent::ConstantScore;
    return HealthEvent::NumEvents;
}

template HealthEvent scoreHealth(const std::vector<float> &, float);
template HealthEvent scoreHealth(const std::vector<double> &, double);

int64_t
HealthCounters::total() const
{
    int64_t sum = 0;
    for (int64_t count : counts)
        sum += count;
    return sum;
}

std::string
HealthCounters::toString() const
{
    std::string out;
    for (int e = 0; e < kNumHealthEvents; ++e) {
        if (counts[static_cast<size_t>(e)] == 0)
            continue;
        if (!out.empty())
            out += ' ';
        out += healthEventName(static_cast<HealthEvent>(e)) + "=" +
               std::to_string(counts[static_cast<size_t>(e)]);
    }
    return out.empty() ? "none" : out;
}

void
HealthCounters::serialize(BinaryWriter &writer) const
{
    writer.writePod<uint32_t>(static_cast<uint32_t>(kNumHealthEvents));
    for (int64_t count : counts)
        writer.writePod<int64_t>(count);
}

HealthCounters
HealthCounters::deserialize(BinaryReader &reader)
{
    const auto count = reader.readPod<uint32_t>();
    // Older artifacts may carry fewer counters (appended events); more
    // than we know of — or an absurd count — is corruption.
    if (count > 256) {
        throw SerializeError(ErrorCode::Corrupt,
                             "health counter count " +
                                 std::to_string(count) + " is implausible");
    }
    if (count > static_cast<uint32_t>(kNumHealthEvents)) {
        throw SerializeError(ErrorCode::VersionSkew,
                             "artifact holds " + std::to_string(count) +
                                 " health counters, this build knows " +
                                 std::to_string(kNumHealthEvents));
    }
    HealthCounters counters;
    for (uint32_t e = 0; e < count; ++e)
        counters.counts[e] = reader.readPod<int64_t>();
    return counters;
}

// --- TrainFaultProfile --------------------------------------------------

TrainFaultProfile
TrainFaultProfile::uniform(double total_rate, uint64_t seed)
{
    TrainFaultProfile profile;
    profile.nan_grad_prob = total_rate / 2.0;
    profile.loss_spike_prob = total_rate / 2.0;
    profile.seed = seed;
    return profile;
}

bool
TrainFaultProfile::draw(int64_t step, int attempt, uint64_t stream,
                        double prob) const
{
    if (prob <= 0.0)
        return false;
    // Pure function of (step, attempt, stream, seed): retries see a
    // fresh draw and replays are bit-identical regardless of call order.
    uint64_t h = hashCombine(seed, static_cast<uint64_t>(step));
    h = hashCombine(h, static_cast<uint64_t>(attempt));
    h = hashCombine(h, stream);
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return u < prob;
}

// --- TrainSupervisor ----------------------------------------------------

TrainSupervisor::TrainSupervisor(std::vector<nn::Tensor> params,
                                 nn::Adam &adam, SupervisorOptions options)
    : params_(std::move(params)), adam_(adam),
      options_(std::move(options)), backoff_rng_(kSupervisorSeed)
{
    if (options_.enabled)
        takeSnapshot();
    if (options_.health_out != nullptr)
        health_ = *options_.health_out;
}

void
TrainSupervisor::takeSnapshot()
{
    snapshot_params_.resize(params_.size());
    for (size_t p = 0; p < params_.size(); ++p)
        snapshot_params_[p] = params_[p].value();
    std::ostringstream buffer(std::ios::binary);
    BinaryWriter writer(buffer);
    adam_.serializeState(writer);
    snapshot_optimizer_ = buffer.str();
}

void
TrainSupervisor::rollback()
{
    for (size_t p = 0; p < params_.size(); ++p)
        params_[p].value() = snapshot_params_[p];
    std::istringstream buffer(snapshot_optimizer_, std::ios::binary);
    BinaryReader reader(buffer);
    adam_.deserializeState(reader);
    health_[HealthEvent::Rollback]++;
}

bool
TrainSupervisor::gradsUnhealthy(double *norm_out) const
{
    double norm_sq = 0.0;
    bool non_finite = false;
    for (const nn::Tensor &param : params_) {
        // grad() is non-const on Tensor; the node is shared, values are
        // only read here.
        for (float g : const_cast<nn::Tensor &>(param).grad()) {
            if (!std::isfinite(g))
                non_finite = true;
            norm_sq += static_cast<double>(g) * g;
        }
    }
    *norm_out = std::sqrt(norm_sq);
    return non_finite;
}

StepOutcome
TrainSupervisor::step(const std::function<double()> &attempt)
{
    if (!options_.enabled) {
        attempt();
        adam_.step();
        ++steps_done_;
        return StepOutcome::Ok;
    }
    if (stopped_)
        return StepOutcome::Stop;

    const int64_t step_id = step_serial_++;
    const double schedule_lr = adam_.lr();
    for (int att = 0;; ++att) {
        double loss = attempt();

        // Deterministic fault injection (off unless a profile is set).
        if (options_.faults.draw(step_id, att, kStreamLossSpike,
                                 options_.faults.loss_spike_prob)) {
            loss *= 1e4;
        }
        if (options_.faults.draw(step_id, att, kStreamNanGrad,
                                 options_.faults.nan_grad_prob) &&
            !params_.empty() && params_[0].numel() > 0) {
            params_[0].grad()[0] =
                std::numeric_limits<float>::quiet_NaN();
        }

        // Health checks, cheapest first.
        HealthEvent problem = HealthEvent::NumEvents;
        double grad_norm = 0.0;
        if (!std::isfinite(loss)) {
            problem = HealthEvent::NanLoss;
        } else if (ewma_ready_ &&
                   loss > kSupervisorLossDivergenceFactor * loss_ewma_ +
                              kSupervisorLossDivergenceFloor) {
            problem = HealthEvent::LossDivergence;
        } else if (gradsUnhealthy(&grad_norm)) {
            problem = HealthEvent::NanGrad;
        } else if (!std::isfinite(grad_norm) ||
                   grad_norm > kSupervisorGradNormLimit) {
            problem = HealthEvent::GradExplosion;
        }

        if (problem == HealthEvent::NumEvents) {
            adam_.step();
            adam_.setLr(schedule_lr); // backoff is per-step, not sticky
            loss_ewma_ = ewma_ready_
                             ? (1.0 - kSupervisorLossEwmaAlpha) * loss_ewma_ +
                                   kSupervisorLossEwmaAlpha * loss
                             : loss;
            ewma_ready_ = true;
            ++steps_done_;
            takeSnapshot();
            publishHealth();
            return StepOutcome::Ok;
        }

        health_[problem]++;
        rollback(); // restores params, moments, step count, and lr

        if (options_.policy == RecoveryPolicy::AbortOnFault) {
            health_[HealthEvent::AbortPolicy]++;
            adam_.setLr(schedule_lr);
            stopped_ = true;
            publishHealth();
            return StepOutcome::Stop;
        }
        if (att == kSupervisorMaxRetries) {
            health_[HealthEvent::RetryExhausted]++;
            adam_.setLr(schedule_lr);
            publishHealth();
            return StepOutcome::Skipped;
        }
        // Seeded learning-rate backoff with mild jitter so retries of a
        // genuinely borderline step explore slightly different updates.
        const double jitter = backoff_rng_.uniform(0.9, 1.0);
        adam_.setLr(schedule_lr *
                    std::pow(kSupervisorLrBackoff, att + 1) * jitter);
    }
}

void
TrainSupervisor::publishHealth()
{
    if (options_.health_out != nullptr)
        *options_.health_out = health_;
}

} // namespace tlp::model
