#include "support/io_env.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "support/config.h"
#include "support/rng.h"

namespace tlp {

namespace fs = std::filesystem;

namespace {

/** Domain-separation salts so write draws, read draws, and derived
 *  values never correlate across streams of the same (seed, path). */
constexpr uint64_t kWriteSalt = 0x770a17ull;
constexpr uint64_t kReadSalt = 0x9ead5ull;
constexpr uint64_t kKindSalt = 0x10f417ull;
constexpr uint64_t kAuxSalt = 0x70a9ull;

} // namespace

bool
isAtomicTempName(const std::string &name, const std::string &stem)
{
    if (!stem.empty()) {
        if (name.compare(0, stem.size(), stem) != 0)
            return false;
    }
    const size_t tmp = name.rfind(".tmp.");
    if (tmp == std::string::npos ||
        (!stem.empty() && tmp != stem.size()))
        return false;
    const std::string tail = name.substr(tmp + 5);
    const size_t dot = tail.find('.');
    if (dot == std::string::npos || dot == 0 ||
        dot + 1 >= tail.size())
        return false;
    const auto all_digits = [](const std::string &s) {
        return !s.empty() &&
               std::all_of(s.begin(), s.end(), [](unsigned char c) {
                   return c >= '0' && c <= '9';
               });
    };
    return all_digits(tail.substr(0, dot)) &&
           all_digits(tail.substr(dot + 1));
}

const char *
ioFaultKindName(IoFaultKind kind)
{
    switch (kind) {
      case IoFaultKind::None:       return "none";
      case IoFaultKind::OpenFail:   return "open-fail";
      case IoFaultKind::TornWrite:  return "torn-write";
      case IoFaultKind::FlushFail:  return "flush-fail";
      case IoFaultKind::RenameFail: return "rename-fail";
    }
    return "unknown";
}

IoFaultDecision
IoFaultProfile::draw(uint64_t path_fp, uint64_t op_index) const
{
    IoFaultDecision decision;
    if (fault_rate <= 0.0)
        return decision;
    uint64_t h = hashCombine(seed, kWriteSalt);
    h = hashCombine(h, path_fp);
    h = hashCombine(h, op_index);
    if (hashUniform(h) >= fault_rate)
        return decision;
    static constexpr IoFaultKind kKinds[] = {
        IoFaultKind::OpenFail, IoFaultKind::TornWrite,
        IoFaultKind::FlushFail, IoFaultKind::RenameFail};
    decision.kind = kKinds[mix64(hashCombine(h, kKindSalt)) % 4];
    decision.aux = mix64(hashCombine(h, kAuxSalt));
    decision.crash_debris = crash_debris;
    return decision;
}

IoFaultProfile
IoFaultProfile::fromEnv()
{
    IoFaultProfile profile;
    profile.fault_rate = std::clamp(envOr("TLP_IO_FAULT_RATE", 0.0),
                                    0.0, 0.999);
    profile.seed = static_cast<uint64_t>(
        envOr("TLP_IO_FAULT_SEED",
              static_cast<double>(profile.seed)));
    profile.crash_debris = envOr("TLP_IO_CRASH_DEBRIS", 0.0) > 0.5;
    return profile;
}

IoEnv::IoEnv()
    : profile_(IoFaultProfile::fromEnv())
{
}

IoEnv &
IoEnv::global()
{
    static IoEnv env;
    return env;
}

void
IoEnv::setProfile(const IoFaultProfile &profile)
{
    std::lock_guard<std::mutex> lock(mutex_);
    profile_ = profile;
    write_ops_.clear();
    read_ops_.clear();
    has_armed_ = false;
}

IoFaultProfile
IoEnv::profile() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return profile_;
}

void
IoEnv::armNextWrite(const IoFaultDecision &decision)
{
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = decision;
    has_armed_ = true;
}

IoFaultDecision
IoEnv::drawWrite(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.writes_attempted += 1;
    IoFaultDecision decision;
    if (has_armed_) {
        decision = armed_;
        has_armed_ = false;
    } else if (profile_.enabled()) {
        const uint64_t fp = fnv1a(path.data(), path.size());
        decision = profile_.draw(fp, write_ops_[fp]++);
    }
    switch (decision.kind) {
      case IoFaultKind::None:                                     break;
      case IoFaultKind::OpenFail:   counters_.open_faults += 1;   break;
      case IoFaultKind::TornWrite:  counters_.torn_faults += 1;   break;
      case IoFaultKind::FlushFail:  counters_.flush_faults += 1;  break;
      case IoFaultKind::RenameFail: counters_.rename_faults += 1; break;
    }
    return decision;
}

Status
IoEnv::checkRead(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.read_checks += 1;
    if (!profile_.enabled())
        return Status();
    const uint64_t fp = fnv1a(path.data(), path.size());
    uint64_t h = hashCombine(profile_.seed, kReadSalt);
    h = hashCombine(h, fp);
    h = hashCombine(h, read_ops_[fp]++);
    if (hashUniform(h) >= profile_.fault_rate)
        return Status();
    counters_.read_faults += 1;
    return Status::error(ErrorCode::IoError,
                         "injected fault: cannot open for read: " + path);
}

void
IoEnv::noteWriteCommitted()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.writes_committed += 1;
}

void
IoEnv::noteTempsSwept(int count)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.temps_swept += count;
}

IoCounters
IoEnv::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
IoEnv::resetCounters()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_ = IoCounters{};
}

ScopedIoFaults::ScopedIoFaults(const IoFaultProfile &profile)
    : saved_(IoEnv::global().profile())
{
    IoEnv::global().setProfile(profile);
    IoEnv::global().resetCounters();
}

ScopedIoFaults::~ScopedIoFaults()
{
    IoEnv::global().setProfile(saved_);
}

Result<std::string>
quarantineArtifact(const std::string &path, int max_generations)
{
    for (int n = 1; n <= max_generations; ++n) {
        const std::string jail =
            path + ".quarantined." + std::to_string(n);
        std::error_code ec;
        if (fs::exists(jail, ec))
            continue;
        fs::rename(path, jail, ec);
        if (ec) {
            return Status::error(ErrorCode::IoError,
                                 "cannot quarantine " + path + " as " +
                                     jail + ": " + ec.message());
        }
        return jail;
    }
    // Every generation slot is taken: refuse rather than overwrite any
    // existing evidence (the caller keeps the damaged file in place).
    return Status::error(ErrorCode::IoError,
                         "cannot quarantine " + path + ": all " +
                             std::to_string(max_generations) +
                             " evidence generations already exist");
}

int
sweepStaleTemps(const std::string &dir)
{
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return 0;
    int swept = 0;
    // Collect first, then unlink: mutating a directory mid-iteration
    // is unspecified on some filesystems.
    std::vector<fs::path> victims;
    for (auto it = fs::directory_iterator(dir, ec);
         !ec && it != fs::directory_iterator(); it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        if (isAtomicTempName(it->path().filename().string(), ""))
            victims.push_back(it->path());
    }
    for (const fs::path &victim : victims) {
        std::error_code rm_ec;
        if (fs::remove(victim, rm_ec))
            ++swept;
    }
    if (swept > 0)
        IoEnv::global().noteTempsSwept(swept);
    return swept;
}

int
sweepStaleTempsFor(const std::string &artifact_path)
{
    const fs::path artifact(artifact_path);
    const std::string stem = artifact.filename().string();
    const fs::path dir = artifact.has_parent_path()
                             ? artifact.parent_path()
                             : fs::path(".");
    std::error_code ec;
    if (stem.empty() || !fs::is_directory(dir, ec))
        return 0;
    int swept = 0;
    std::vector<fs::path> victims;
    for (auto it = fs::directory_iterator(dir, ec);
         !ec && it != fs::directory_iterator(); it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        if (isAtomicTempName(it->path().filename().string(), stem))
            victims.push_back(it->path());
    }
    for (const fs::path &victim : victims) {
        std::error_code rm_ec;
        if (fs::remove(victim, rm_ec))
            ++swept;
    }
    if (swept > 0)
        IoEnv::global().noteTempsSwept(swept);
    return swept;
}

} // namespace tlp
