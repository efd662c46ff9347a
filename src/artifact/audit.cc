#include "artifact/audit.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "dataset/dataset.h"
#include "models/snapshot.h"
#include "support/logging.h"
#include "support/serialize.h"
#include "tuner/session.h"

namespace tlp::artifact {

namespace fs = std::filesystem;

namespace {

/** True for "<stem>.quarantined.<digits>" — the evidence shape
 *  quarantineArtifact produces. */
bool
isQuarantineEvidenceName(const std::string &name)
{
    const size_t mark = name.rfind(".quarantined.");
    if (mark == std::string::npos || mark == 0)
        return false;
    const std::string tail = name.substr(mark + 13);
    return !tail.empty() &&
           std::all_of(tail.begin(), tail.end(), [](unsigned char c) {
               return c >= '0' && c <= '9';
           });
}

/** First four bytes as the native-endian u32 the writers emit; false
 *  when the file is shorter than a header magic. */
bool
readMagic(std::istream &is, uint32_t &magic)
{
    char raw[4];
    is.read(raw, sizeof(raw));
    if (is.gcount() != sizeof(raw))
        return false;
    std::memcpy(&magic, raw, sizeof(magic));
    return true;
}

/** Memo verifier: header + fingerprint frame, then the embedded
 *  dataset. Deliberately does NOT compare the fingerprint — a stale
 *  memo is a cache miss, not damage. */
Status
verifyBenchMemo(std::istream &is)
{
    const Status header = guardedParse([&] {
        BinaryReader reader(is);
        readHeader(reader, kBenchMemoMagic, kBenchMemoVersion,
                   kBenchMemoVersion);
        (void)reader.readPod<uint64_t>();   // collection fingerprint
    });
    if (!header.ok())
        return header;
    return data::Dataset::tryLoad(is).status();
}

/** Curve files are text; structural integrity is the header line. */
Status
verifyCurve(std::istream &is)
{
    std::string first;
    std::getline(is, first);
    if (first != kCurveHeader) {
        return Status::error(ErrorCode::Corrupt,
                             "curve file does not start with '" +
                                 std::string(kCurveHeader) + "'");
    }
    return Status();
}

ArtifactState
stateFromStatus(const Status &status)
{
    if (status.ok())
        return ArtifactState::Intact;
    if (status.code() == ErrorCode::VersionSkew)
        return ArtifactState::VersionSkew;
    return ArtifactState::Corrupt;
}

} // namespace

const char *
artifactKindName(ArtifactKind kind)
{
    switch (kind) {
      case ArtifactKind::Unknown:          return "unknown";
      case ArtifactKind::Dataset:          return "dataset";
      case ArtifactKind::Snapshot:         return "snapshot";
      case ArtifactKind::TuningCheckpoint: return "tuning-checkpoint";
      case ArtifactKind::BenchMemo:        return "bench-memo";
      case ArtifactKind::Curve:            return "curve";
    }
    return "unknown";
}

const char *
artifactStateName(ArtifactState state)
{
    switch (state) {
      case ArtifactState::Intact:             return "intact";
      case ArtifactState::VersionSkew:        return "version-skew";
      case ArtifactState::Corrupt:            return "corrupt";
      case ArtifactState::StaleTemp:          return "stale-temp";
      case ArtifactState::QuarantineEvidence:
          return "quarantine-evidence";
      case ArtifactState::Unrecognized:       return "unrecognized";
    }
    return "unrecognized";
}

ArtifactKind
kindFromMagic(uint32_t magic)
{
    if (magic == data::Dataset::kMagic)
        return ArtifactKind::Dataset;
    if (magic == model::kSnapshotMagic)
        return ArtifactKind::Snapshot;
    if (magic == tune::kSessionCheckpointMagic)
        return ArtifactKind::TuningCheckpoint;
    if (magic == kBenchMemoMagic)
        return ArtifactKind::BenchMemo;
    return ArtifactKind::Unknown;
}

ArtifactKind
kindFromName(const std::string &name)
{
    const auto has_suffix = [&](const char *suffix) {
        const size_t n = std::strlen(suffix);
        return name.size() > n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (has_suffix(".ckpt"))
        return ArtifactKind::TuningCheckpoint;
    if (has_suffix(".snap"))
        return ArtifactKind::Snapshot;
    if (has_suffix(".tlpd"))
        return ArtifactKind::Dataset;
    if (has_suffix(".curve"))
        return ArtifactKind::Curve;
    return ArtifactKind::Unknown;
}

Status
verifyArtifact(ArtifactKind kind, std::istream &is)
{
    switch (kind) {
      case ArtifactKind::Dataset:
        return data::Dataset::tryLoad(is).status();
      case ArtifactKind::Snapshot:
        return model::loadTlpSnapshot(is).status();
      case ArtifactKind::TuningCheckpoint:
        return tune::verifyCheckpoint(is);
      case ArtifactKind::BenchMemo:
        return verifyBenchMemo(is);
      case ArtifactKind::Curve:
        return verifyCurve(is);
      case ArtifactKind::Unknown:
        break;
    }
    return Status::error(ErrorCode::Invalid,
                         "not a recognized TLP artifact");
}

VerifyOutcome
verifyArtifactFile(const std::string &path)
{
    VerifyOutcome outcome;
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        outcome.status = Status::error(ErrorCode::IoError,
                                       "cannot open for read: " + path);
        return outcome;
    }
    uint32_t magic = 0;
    if (readMagic(is, magic))
        outcome.kind = kindFromMagic(magic);
    if (outcome.kind == ArtifactKind::Unknown) {
        // Magic destroyed (or text format): fall back to the name so a
        // garbage-filled checkpoint still reports as a damaged
        // checkpoint instead of "not ours".
        outcome.kind =
            kindFromName(fs::path(path).filename().string());
    }
    if (outcome.kind == ArtifactKind::Unknown) {
        outcome.status =
            Status::error(ErrorCode::Invalid,
                          "not a recognized TLP artifact: " + path);
        return outcome;
    }
    is.clear();
    is.seekg(0);
    outcome.status = verifyArtifact(outcome.kind, is);
    return outcome;
}

ArtifactRecord
auditFile(const std::string &path)
{
    ArtifactRecord record;
    record.name = fs::path(path).filename().string();
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    record.bytes = ec ? 0 : static_cast<uint64_t>(size);

    // Name classifiers first: evidence and debris are states, not
    // formats — their content is expected to be torn.
    if (isQuarantineEvidenceName(record.name)) {
        record.state = ArtifactState::QuarantineEvidence;
        return record;
    }
    if (isAtomicTempName(record.name)) {
        record.state = ArtifactState::StaleTemp;
        return record;
    }

    const VerifyOutcome outcome = verifyArtifactFile(path);
    record.kind = outcome.kind;
    if (outcome.kind == ArtifactKind::Unknown) {
        record.state = ArtifactState::Unrecognized;
        return record;
    }
    record.state = stateFromStatus(outcome.status);
    if (!outcome.status.ok())
        record.detail = outcome.status.toString();
    return record;
}

AuditReport
auditDirectory(const std::string &dir)
{
    AuditReport report;
    report.dir = dir;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return report;
    std::vector<std::string> names;
    for (auto it = fs::directory_iterator(dir, ec);
         !ec && it != fs::directory_iterator(); it.increment(ec)) {
        if (it->is_regular_file(ec))
            names.push_back(it->path().filename().string());
    }
    std::sort(names.begin(), names.end());
    report.records.reserve(names.size());
    for (const std::string &name : names) {
        ArtifactRecord record = auditFile(dir + "/" + name);
        switch (record.state) {
          case ArtifactState::Intact:      report.intact += 1;       break;
          case ArtifactState::VersionSkew: report.version_skew += 1; break;
          case ArtifactState::Corrupt:     report.corrupt += 1;      break;
          case ArtifactState::StaleTemp:   report.stale_temps += 1;  break;
          case ArtifactState::QuarantineEvidence:
            report.quarantine_evidence += 1;
            break;
          case ArtifactState::Unrecognized:
            report.unrecognized += 1;
            break;
        }
        report.records.push_back(std::move(record));
    }
    return report;
}

std::string
formatAuditReport(const AuditReport &report)
{
    std::ostringstream os;
    os << "# tlp_fsck report v1\n";
    os << "dir " << report.dir << "\n";
    os << "files " << report.records.size() << "\n";
    for (const ArtifactRecord &record : report.records) {
        os << "file " << record.name << " kind "
           << artifactKindName(record.kind) << " state "
           << artifactStateName(record.state) << " bytes "
           << record.bytes;
        if (!record.detail.empty())
            os << " detail " << record.detail;
        os << "\n";
    }
    os << "summary intact " << report.intact << " version-skew "
       << report.version_skew << " corrupt " << report.corrupt
       << " stale-temp " << report.stale_temps
       << " quarantine-evidence " << report.quarantine_evidence
       << " unrecognized " << report.unrecognized << "\n";
    return os.str();
}

QuarantineAction
quarantineDamaged(const std::string &path, int max_generations)
{
    QuarantineAction action;
    Result<std::string> jail = quarantineArtifact(path, max_generations);
    if (jail.ok()) {
        action.jail = jail.take();
        return action;
    }
    // Last resort: a damaged file that cannot be renamed aside must
    // still never be re-adopted; unlinking loses this one piece of
    // evidence but all earlier generations stay untouched.
    warn("cannot quarantine ", path, " (", jail.status().toString(),
         "); removing it instead");
    std::error_code ec;
    action.removed = fs::remove(path, ec) && !ec;
    return action;
}

RepairReport
repairDirectory(const std::string &dir, const RepairOptions &options)
{
    RepairReport out;
    const AuditReport audit = auditDirectory(dir);

    // Debris first: one directory-wide sweep (the audit already proved
    // we own every temp name here), with per-file action lines so the
    // report stays reviewable.
    for (const ArtifactRecord &record : audit.records) {
        if (record.state == ArtifactState::StaleTemp)
            out.actions.push_back("sweep " + record.name);
    }
    out.swept = sweepStaleTemps(dir);

    for (const ArtifactRecord &record : audit.records) {
        if (record.state != ArtifactState::Corrupt &&
            record.state != ArtifactState::VersionSkew) {
            continue;
        }
        const std::string path = dir + "/" + record.name;

        if (record.kind == ArtifactKind::Dataset &&
            options.salvage_datasets) {
            data::LoadOptions salvage;
            salvage.salvage = true;
            Result<data::Dataset> rebuilt =
                data::Dataset::tryLoad(path, salvage);
            if (rebuilt.ok()) {
                const QuarantineAction evidence = quarantineDamaged(path);
                if (!evidence.ok()) {
                    out.failures += 1;
                    out.actions.push_back("quarantine-failed " +
                                          record.name);
                    continue;
                }
                const data::Dataset salvaged = rebuilt.take();
                const Status saved = salvaged.save(path);
                if (saved.ok()) {
                    out.salvaged_datasets += 1;
                    out.salvaged_records += static_cast<int64_t>(
                        salvaged.records.size());
                    out.actions.push_back(
                        "salvage " + record.name + " kept " +
                        std::to_string(salvaged.records.size()) +
                        " records, evidence " +
                        (evidence.removed
                             ? std::string("removed")
                             : fs::path(evidence.jail)
                                   .filename()
                                   .string()));
                } else {
                    // Evidence already renamed aside; the failed
                    // re-save cannot have damaged it.
                    out.failures += 1;
                    out.actions.push_back("salvage-failed " +
                                          record.name + ": " +
                                          saved.toString());
                }
                continue;
            }
            // Salvage impossible (header/meta sections gone): fall
            // through to plain quarantine.
        }

        const QuarantineAction action = quarantineDamaged(path);
        if (!action.ok()) {
            out.failures += 1;
            out.actions.push_back("quarantine-failed " + record.name);
        } else {
            out.quarantined += 1;
            out.actions.push_back(
                "quarantine " + record.name + " -> " +
                (action.removed
                     ? std::string("removed")
                     : fs::path(action.jail).filename().string()));
        }
    }
    return out;
}

} // namespace tlp::artifact
