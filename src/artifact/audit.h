/**
 * @file
 * Artifact audit & repair: the scan→classify→repair layer behind the
 * `tlp_fsck` doctor and the service's crash recovery (DESIGN.md §15).
 *
 * Three checksummed artifact formats live on disk (DESIGN.md §8):
 * dataset ("TLPD"), model snapshot ("TLPW") and tuning checkpoint
 * ("TLPS") — plus the text curve files the service emits. A bench memo
 * is a dataset. This module is the one place that knows how to
 * recognize each format by magic, dispatch it to its loader-grade
 * verifier, and classify every file in a directory into one of six
 * states:
 *
 *   Intact             verifier accepted the file end to end
 *   VersionSkew        recognized format, version outside the range
 *   Corrupt            recognized (by magic or name) but damaged
 *   StaleTemp          "<stem>.tmp.<pid>.<seq>" atomic-write debris
 *   QuarantineEvidence "<stem>.quarantined.N" from an earlier repair
 *   Unrecognized       none of ours — never touched by repair
 *
 * Repair is strictly containment, built on the io_env primitives:
 * damaged files are renamed to the first free "*.quarantined.N"
 * (every generation of evidence kept), debris is swept, and corrupt
 * datasets are salvaged (intact records re-saved, the damaged original
 * kept as evidence). Repair never deletes a recognized artifact and
 * never writes bytes except through the atomicWriteFile seam, so an
 * injected fault during repair cannot make a directory worse.
 *
 * The service's recover() routes its quarantine through here, so
 * `tlp_fsck` and the runtime can never disagree about what damage is or
 * where evidence goes.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/io_env.h"
#include "support/result.h"

namespace tlp::artifact {

/** First line of a service curve file (formatCurveFile). */
inline constexpr const char *kCurveHeader = "# tlp_serve curve v1";

/** Which on-disk artifact format a file carries. */
enum class ArtifactKind : uint8_t
{
    Unknown = 0,       ///< not one of ours
    Dataset,           ///< "TLPD" (data::Dataset)
    Snapshot,          ///< "TLPW" (model snapshot, TLP or MLP arch)
    TuningCheckpoint,  ///< "TLPS" (tune::TuningSession checkpoint)
    Curve,             ///< text curve file ("# tlp_serve curve v1")
};

/** Short stable name of @p kind, e.g. "tuning-checkpoint". */
const char *artifactKindName(ArtifactKind kind);

/** Audit verdict for one file. */
enum class ArtifactState : uint8_t
{
    Intact = 0,          ///< verifier accepted the whole file
    VersionSkew,         ///< known format, unsupported version
    Corrupt,             ///< known format (or named like one), damaged
    StaleTemp,           ///< atomic-write temp debris
    QuarantineEvidence,  ///< *.quarantined.N from an earlier repair
    Unrecognized,        ///< none of ours; audit reports, repair skips
};

/** Short stable name of @p state, e.g. "stale-temp". */
const char *artifactStateName(ArtifactState state);

/** One audited file. */
struct ArtifactRecord
{
    std::string name;   ///< filename (no directory)
    ArtifactKind kind = ArtifactKind::Unknown;
    ArtifactState state = ArtifactState::Unrecognized;
    uint64_t bytes = 0;
    /** Verifier failure message for damaged files, empty otherwise. */
    std::string detail;
};

/** Deterministic directory audit: records sorted by name. */
struct AuditReport
{
    std::string dir;
    std::vector<ArtifactRecord> records;
    int intact = 0;
    int version_skew = 0;
    int corrupt = 0;
    int stale_temps = 0;
    int quarantine_evidence = 0;
    int unrecognized = 0;

    /** True when repair has work: damage or debris present (existing
     *  quarantine evidence is history, not damage). */
    bool damaged() const
    {
        return version_skew + corrupt + stale_temps > 0;
    }
};

/** Map a header magic to its artifact kind (Unknown when alien). */
ArtifactKind kindFromMagic(uint32_t magic);

/** Extension fallback for files whose magic bytes are destroyed:
 *  ".ckpt" / ".snap" / ".tlpd" / ".curve" name our formats even when
 *  the header no longer does. Unknown otherwise. */
ArtifactKind kindFromName(const std::string &name);

/**
 * Verify one artifact payload of a known @p kind from @p is, using the
 * same loader-grade verifier a consumer would (Dataset::tryLoad,
 * snapshot load, verifyCheckpoint). Ok means the consumer would accept
 * the file structurally.
 */
Status verifyArtifact(ArtifactKind kind, std::istream &is);

/** detect-by-magic + verify for a single file: the engine behind
 *  `tune_workload --verify-checkpoint`. */
struct VerifyOutcome
{
    ArtifactKind kind = ArtifactKind::Unknown;
    Status status;
};
VerifyOutcome verifyArtifactFile(const std::string &path);

/** Classify + verify one file (name classifiers first, then magic,
 *  then the extension fallback). Never throws; unreadable files come
 *  back Corrupt/Unrecognized with the error in detail. */
ArtifactRecord auditFile(const std::string &path);

/** Audit every regular file directly under @p dir (sorted, counted).
 *  FATAL-free: a missing directory yields an empty report. */
AuditReport auditDirectory(const std::string &dir);

/** Render @p report as the deterministic "# tlp_fsck report v1" text
 *  (one line per file, then a summary line). */
std::string formatAuditReport(const AuditReport &report);

/** Repair policy. */
struct RepairOptions
{
    /** Re-save the intact records of a corrupt dataset (the damaged
     *  original is still quarantined as evidence). */
    bool salvage_datasets = true;
};

/** What repairDirectory() did, in deterministic (name-sorted) order. */
struct RepairReport
{
    int quarantined = 0;         ///< damaged files renamed aside
    int swept = 0;               ///< stale temps unlinked
    int salvaged_datasets = 0;   ///< datasets rebuilt from intact records
    int64_t salvaged_records = 0;///< records surviving all salvages
    int failures = 0;            ///< repairs that could not complete
    /** One "<verb> <file> ..." line per action taken. */
    std::vector<std::string> actions;
};

/**
 * Contain every damaged file under @p dir: sweep debris, quarantine
 * Corrupt/VersionSkew artifacts to "*.quarantined.N", salvage datasets
 * when enabled. Unrecognized files and existing evidence are never
 * touched. Idempotent: a second run finds nothing to do.
 */
RepairReport repairDirectory(const std::string &dir,
                             const RepairOptions &options = {});

/** How quarantineDamaged() disposed of a file. */
struct QuarantineAction
{
    std::string jail;     ///< evidence path when the rename landed
    bool removed = false; ///< fallback: unlinked (rename impossible)

    bool ok() const { return !jail.empty() || removed; }
};

/**
 * The one quarantine-with-fallback policy (shared by the service's
 * recover(), the circuit breaker, and repairDirectory): rename @p path
 * to the first free "*.quarantined.N"; when no generation slot is
 * available or the rename fails, fall back to unlinking so a damaged
 * file can never be re-adopted. Existing evidence is never touched.
 */
QuarantineAction
quarantineDamaged(const std::string &path,
                  int max_generations = kQuarantineMaxGenerations);

} // namespace tlp::artifact
