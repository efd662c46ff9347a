#include "hwmodel/measurer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace tlp::hw {

namespace {

/** Fraction of kSecondsPerMeasure burned by a failed compile. */
constexpr double kCompileFraction = 0.4;

} // namespace

std::string
measureStatusName(MeasureStatus status)
{
    switch (status) {
      case MeasureStatus::Ok:           return "ok";
      case MeasureStatus::CompileError: return "compile_error";
      case MeasureStatus::Timeout:      return "timeout";
      case MeasureStatus::RuntimeError: return "runtime_error";
      case MeasureStatus::Outlier:      return "outlier";
      case MeasureStatus::NumStatuses:  break;
    }
    TLP_PANIC("invalid MeasureStatus ", static_cast<int>(status));
}

bool
FaultProfile::enabled() const
{
    return compile_error_prob > 0.0 || timeout_prob > 0.0 ||
           runtime_error_prob > 0.0 || outlier_prob > 0.0;
}

FaultProfile
FaultProfile::uniform(double total_rate, uint64_t seed)
{
    TLP_CHECK(total_rate >= 0.0 && total_rate < 1.0,
              "fault rate must be in [0, 1), got ", total_rate);
    FaultProfile profile;
    profile.compile_error_prob = total_rate / 4.0;
    profile.timeout_prob = total_rate / 4.0;
    profile.runtime_error_prob = total_rate / 4.0;
    profile.outlier_prob = total_rate / 4.0;
    profile.seed = seed;
    return profile;
}

uint64_t
FaultProfile::digest() const
{
    uint64_t hash = seed;
    for (double value : {compile_error_prob, timeout_prob,
                         runtime_error_prob, outlier_prob,
                         timeout_seconds}) {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(value));
        std::memcpy(&bits, &value, sizeof(bits));
        hash = hashCombine(hash, bits);
    }
    return hash;
}

Measurer::Measurer(HardwarePlatform hw, MeasureOptions options,
                   uint64_t seed)
    : sim_(std::move(hw)), options_(options),
      platform_hash_(fnv1a(sim_.platform().name.data(),
                           sim_.platform().name.size())),
      rng_(hashCombine(seed, platform_hash_))
{
}

uint64_t
Measurer::faultKey(const sched::LoweredNest &nest) const
{
    return hashCombine(hashCombine(nest.fingerprint(), platform_hash_),
                       options_.faults.seed);
}

MeasureResult
Measurer::measure(const sched::LoweredNest &nest)
{
    const uint64_t key = faultKey(nest);
    ++count_;

    MeasureResult result;

    // Quarantined candidates are rejected without touching the hardware.
    auto quarantined_it = quarantined_.find(key);
    if (quarantined_it != quarantined_.end()) {
        result.status = quarantined_it->second;
        ++quarantine_hits_;
        status_counts_[static_cast<size_t>(result.status)] += 1;
        return result;
    }

    const FaultProfile &faults = options_.faults;

    // Compile errors are a property of the candidate, not the attempt:
    // the same program fails to build every time, so retrying is useless
    // and the candidate is quarantined immediately.
    if (faults.compile_error_prob > 0.0 &&
        hashUniform(hashCombine(key, 0xc0)) < faults.compile_error_prob) {
        result.status = MeasureStatus::CompileError;
        result.attempts = 1;
        result.seconds_spent = kSecondsPerMeasure * kCompileFraction;
        elapsed_seconds_ += result.seconds_spent;
        failure_seconds_ += result.seconds_spent;
        status_counts_[static_cast<size_t>(result.status)] += 1;
        quarantined_[key] = result.status;
        return result;
    }

    const int max_attempts = 1 + std::max(0, options_.max_retries);
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        ++result.attempts;
        // Transient faults are drawn per attempt from the hash stream, so
        // outcomes replay identically but retries can succeed.
        const double draw = faults.enabled()
                                ? hashUniform(hashCombine(
                                      key, 0x100 + static_cast<uint64_t>(
                                                       attempt)))
                                : 1.0;
        if (draw < faults.timeout_prob) {
            result.status = MeasureStatus::Timeout;
            result.seconds_spent += faults.timeout_seconds;
            continue;
        }
        if (draw < faults.timeout_prob + faults.runtime_error_prob) {
            result.status = MeasureStatus::RuntimeError;
            result.seconds_spent += kSecondsPerMeasure;
            continue;
        }
        if (draw < faults.timeout_prob + faults.runtime_error_prob +
                       faults.outlier_prob) {
            result.status = MeasureStatus::Outlier;
            result.seconds_spent += kSecondsPerMeasure;
            continue;
        }

        // Successful run: noisy best-of-repeats around the simulator
        // latency. Failed attempts draw no noise, so the stream advances
        // only on success and a fault-free campaign reproduces the
        // historical label stream exactly.
        const double base = sim_.latencyMs(nest);
        double best = std::numeric_limits<double>::infinity();
        for (int r = 0; r < kMeasureRepeats; ++r) {
            const double noisy =
                base * std::exp(rng_.normal(0.0, kMeasureNoiseStd));
            best = std::min(best, noisy);
        }
        result.status = MeasureStatus::Ok;
        result.latency_ms = best;
        result.seconds_spent += kSecondsPerMeasure;
        break;
    }

    elapsed_seconds_ += result.seconds_spent;
    status_counts_[static_cast<size_t>(result.status)] += 1;

    if (result.ok()) {
        failure_seconds_ += result.seconds_spent - kSecondsPerMeasure;
        failure_streak_.erase(key);
    } else {
        failure_seconds_ += result.seconds_spent;
        const int streak = ++failure_streak_[key];
        if (streak >= std::max(1, options_.quarantine_after)) {
            quarantined_[key] = result.status;
            failure_streak_.erase(key);
        }
    }
    return result;
}

double
Measurer::measureMs(const sched::LoweredNest &nest)
{
    return measure(nest).latency_ms;
}

bool
Measurer::isQuarantined(const sched::LoweredNest &nest) const
{
    return quarantined_.count(faultKey(nest)) > 0;
}

void
Measurer::serializeState(BinaryWriter &writer) const
{
    rng_.serialize(writer);
    writer.writePod(elapsed_seconds_);
    writer.writePod(failure_seconds_);
    writer.writePod(count_);
    writer.writePod(quarantine_hits_);
    for (int64_t count : status_counts_)
        writer.writePod(count);
    writer.writePod<uint64_t>(failure_streak_.size());
    for (const auto &[key, streak] : failure_streak_) {
        writer.writePod(key);
        writer.writePod<int32_t>(streak);
    }
    writer.writePod<uint64_t>(quarantined_.size());
    for (const auto &[key, status] : quarantined_) {
        writer.writePod(key);
        writer.writePod<uint8_t>(static_cast<uint8_t>(status));
    }
}

void
Measurer::deserializeState(BinaryReader &reader)
{
    rng_ = Rng::deserialize(reader);
    elapsed_seconds_ = reader.readPod<double>();
    failure_seconds_ = reader.readPod<double>();
    count_ = reader.readPod<int64_t>();
    quarantine_hits_ = reader.readPod<int64_t>();
    for (auto &count : status_counts_)
        count = reader.readPod<int64_t>();
    failure_streak_.clear();
    const auto num_streaks = reader.readPod<uint64_t>();
    for (uint64_t i = 0; i < num_streaks; ++i) {
        const auto key = reader.readPod<uint64_t>();
        failure_streak_[key] = reader.readPod<int32_t>();
    }
    quarantined_.clear();
    const auto num_quarantined = reader.readPod<uint64_t>();
    for (uint64_t i = 0; i < num_quarantined; ++i) {
        const auto key = reader.readPod<uint64_t>();
        const auto raw_status = reader.readPod<uint8_t>();
        // Only failures are quarantined; anything else is damage.
        if (raw_status == 0 || raw_status >= kNumMeasureStatuses) {
            throw SerializeError(ErrorCode::Corrupt,
                                 "invalid quarantined status " +
                                     std::to_string(raw_status));
        }
        quarantined_[key] = static_cast<MeasureStatus>(raw_status);
    }
}

} // namespace tlp::hw
