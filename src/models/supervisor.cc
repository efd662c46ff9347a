#include "models/supervisor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/logging.h"

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
    if (options_.health_out != nullptr)
        health_ = *options_.health_out;
}

StepOutcome
TrainSupervisor::step(const std::function<double()> &attempt)
{
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

        // Health checks, cheapest first. The one gradient-norm pass feeds
        // both the check and Adam's clip; a NaN or Inf gradient makes the
        // norm non-finite.
        HealthEvent problem = HealthEvent::NumEvents;
        double grad_norm = 0.0;
        if (!std::isfinite(loss)) {
            problem = HealthEvent::NanLoss;
        } else if (ewma_ready_ &&
                   loss > kSupervisorLossDivergenceFactor * loss_ewma_ +
                              kSupervisorLossDivergenceFloor) {
            problem = HealthEvent::LossDivergence;
        } else {
            grad_norm = adam_.gradNorm();
            if (!std::isfinite(grad_norm))
                problem = HealthEvent::NanGrad;
            else if (grad_norm > kSupervisorGradNormLimit)
                problem = HealthEvent::GradExplosion;
        }

        if (problem == HealthEvent::NumEvents) {
            adam_.step(grad_norm);
            adam_.setLr(schedule_lr); // backoff is per-step, not sticky
            loss_ewma_ = ewma_ready_
                             ? (1.0 - kSupervisorLossEwmaAlpha) * loss_ewma_ +
                                   kSupervisorLossEwmaAlpha * loss
                             : loss;
            ewma_ready_ = true;
            ++steps_done_;
            publishHealth();
            return StepOutcome::Ok;
        }

        // The attempt never reached adam_.step(), so rejecting it leaves
        // the parameters and optimizer state as the last applied step
        // left them; every path below sets the lr itself.
        health_[problem]++;
        health_[HealthEvent::Rollback]++;

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

// --- trainSupervised ----------------------------------------------------

double
trainSupervised(
    std::vector<nn::Tensor> params, const nn::AdamOptions &adam_options,
    const SupervisorOptions &supervisor_options, int epochs,
    double lr_decay_per_epoch, const char *log_label,
    const std::function<std::vector<std::vector<int>>()> &epoch_batches,
    const std::function<LossFn(const std::vector<int> &rows)> &batch_loss)
{
    nn::Adam adam(params, adam_options);
    TrainSupervisor supervisor(std::move(params), adam, supervisor_options);
    nn::TapePool tape_pool;

    double epoch_loss = 0.0;
    for (int epoch = 0; epoch < epochs && !supervisor.stopped(); ++epoch) {
        double total = 0.0;
        int64_t count = 0;
        for (const std::vector<int> &rows : epoch_batches()) {
            const LossFn loss_of = batch_loss(rows);
            if (!loss_of)
                continue;
            double loss_value = 0.0;
            const StepOutcome outcome = supervisor.step([&] {
                nn::TapePool::Scope tape_scope(tape_pool);
                adam.zeroGrad();
                nn::Tensor loss = loss_of();
                loss.backward();
                loss_value = loss.value()[0];
                return loss_value;
            });
            if (outcome == StepOutcome::Stop)
                break;
            if (outcome == StepOutcome::Ok) {
                total += loss_value;
                ++count;
            }
        }
        epoch_loss = count > 0 ? total / static_cast<double>(count) : 0.0;
        if (log_label != nullptr) {
            inform(log_label, " epoch ", epoch, " loss ", epoch_loss, " lr ",
                   adam.lr());
        }
        adam.setLr(adam.lr() * lr_decay_per_epoch);
    }
    return epoch_loss;
}

} // namespace tlp::model
