#include "models/supervisor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "support/clock.h"

namespace tlp::model {

namespace {

constexpr uint32_t kStateTag = sectionTag("STAT");

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

// --- training checkpoints ("TLPT") --------------------------------------

void
writeTrainCheckpoint(std::ostream &os, const TrainCheckpoint &ckpt)
{
    BinaryWriter writer(os);
    writeHeader(writer, kTrainCheckpointMagic, kTrainCheckpointVersion);
    writeSection(writer, kStateTag, [&](BinaryWriter &w) {
        w.writePod<int32_t>(ckpt.epoch);
        w.writePod<int64_t>(ckpt.steps_done);
        w.writePod<double>(ckpt.loss_ewma);
        w.writePod<uint8_t>(ckpt.ewma_ready ? 1 : 0);
        ckpt.health.serialize(w);
        w.writePod<uint32_t>(static_cast<uint32_t>(ckpt.params.size()));
        for (const auto &param : ckpt.params)
            w.writeVector(param);
        w.writeString(ckpt.optimizer_state);
    });
    writeSectionRaw(writer, kEndSectionTag, "");
}

Result<TrainCheckpoint>
loadTrainCheckpoint(std::istream &is)
{
    TrainCheckpoint ckpt;
    const Status status = guardedParse([&] {
        BinaryReader reader(is);
        readHeader(reader, kTrainCheckpointMagic, kTrainCheckpointVersion,
                   kTrainCheckpointVersion);
        bool seen_state = false;
        readSectionsToEnd(
            reader, "training-checkpoint",
            [&](uint32_t tag, BinaryReader &body) {
                if (tag != kStateTag)
                    return;
                ckpt.epoch = body.readPod<int32_t>();
                ckpt.steps_done = body.readPod<int64_t>();
                ckpt.loss_ewma = body.readPod<double>();
                ckpt.ewma_ready = body.readPod<uint8_t>() != 0;
                ckpt.health = HealthCounters::deserialize(body);
                const auto param_count = body.readPod<uint32_t>();
                if (param_count > body.remaining()) {
                    throw SerializeError(
                        ErrorCode::Corrupt,
                        "training checkpoint advertises " +
                            std::to_string(param_count) + " parameters");
                }
                ckpt.params.reserve(param_count);
                for (uint32_t p = 0; p < param_count; ++p)
                    ckpt.params.push_back(body.readVector<float>());
                ckpt.optimizer_state = body.readString();
                seen_state = true;
            });
        if (!seen_state) {
            throw SerializeError(
                ErrorCode::Truncated,
                "training checkpoint is missing required sections");
        }
    });
    if (!status.ok())
        return status;
    return ckpt;
}

Result<TrainCheckpoint>
loadTrainCheckpoint(const std::string &path)
{
    return readArtifactFile(
        path, [](std::istream &is) { return loadTrainCheckpoint(is); });
}

// --- TrainSupervisor ----------------------------------------------------

TrainSupervisor::TrainSupervisor(std::vector<nn::Tensor> params,
                                 nn::Adam &adam, SupervisorOptions options)
    : params_(std::move(params)), adam_(adam),
      options_(std::move(options)), backoff_rng_(options_.seed),
      start_seconds_(wallSeconds())
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

    // Budget watchdogs fire before work is spent on the next step; the
    // parameters are whatever the last healthy step produced.
    if (options_.max_steps > 0 && steps_done_ >= options_.max_steps) {
        health_[HealthEvent::StepBudget]++;
        stopped_ = true;
        publishHealth();
        return StepOutcome::Stop;
    }
    if (options_.max_wall_seconds > 0.0 &&
        wallSeconds() - start_seconds_ > options_.max_wall_seconds) {
        health_[HealthEvent::WallClockBudget]++;
        stopped_ = true;
        publishHealth();
        return StepOutcome::Stop;
    }

    const int64_t step_id = step_serial_++;
    const double schedule_lr = adam_.lr();
    for (int att = 0; att <= options_.max_retries; ++att) {
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
        if (att == options_.max_retries) {
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
    // tlp-lint: allow(loader-fatal) -- internal invariant in training logic, unreachable from artifact bytes; checkpoint parsing is guardedParse
    TLP_PANIC("unreachable: supervisor retry loop fell through");
}

void
TrainSupervisor::publishHealth()
{
    if (options_.health_out != nullptr)
        *options_.health_out = health_;
}

TrainCheckpoint
TrainSupervisor::makeCheckpoint(int epoch) const
{
    TrainCheckpoint ckpt;
    ckpt.epoch = epoch;
    ckpt.steps_done = steps_done_;
    ckpt.loss_ewma = loss_ewma_;
    ckpt.ewma_ready = ewma_ready_;
    ckpt.health = health_;
    ckpt.params.resize(params_.size());
    for (size_t p = 0; p < params_.size(); ++p)
        ckpt.params[p] = params_[p].value();
    std::ostringstream buffer(std::ios::binary);
    BinaryWriter writer(buffer);
    adam_.serializeState(writer);
    ckpt.optimizer_state = buffer.str();
    return ckpt;
}

void
TrainSupervisor::endEpoch(int epoch)
{
    if (!options_.enabled || options_.checkpoint_path.empty())
        return;
    const int every = options_.checkpoint_every > 0
                          ? options_.checkpoint_every
                          : 1;
    if (epoch % every != 0)
        return;
    const TrainCheckpoint ckpt = makeCheckpoint(epoch);
    const Status status =
        atomicWriteFile(options_.checkpoint_path, [&](std::ostream &os) {
            writeTrainCheckpoint(os, ckpt);
        });
    if (!status.ok()) {
        warn("training checkpoint write failed (run continues): ",
             status.toString());
        return;
    }
    health_[HealthEvent::CheckpointWritten]++;
    publishHealth();
}

} // namespace tlp::model
