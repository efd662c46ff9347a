/**
 * @file
 * Deterministic I/O chaos environment for artifact reads and writes
 * (DESIGN.md §14).
 *
 * Every artifact write in the tree funnels through atomicWriteFile
 * (support/serialize) and every file-level artifact load calls
 * IoEnv::checkRead() before opening — io_env is the single seam where
 * disk faults can be injected. An IoFaultProfile draws faults as a pure
 * function of (seed, path fingerprint, per-path op counter): never wall
 * clock, never entropy, independent of thread interleaving — so a chaos
 * run replays exactly, at any TLP_NUM_THREADS.
 *
 * Fault taxonomy (what a real disk can do to a save):
 *   - OpenFail:   creating the temp file fails (permissions, ENOSPC
 *                 on metadata, too many open files).
 *   - TornWrite:  the process dies after byte k of the payload reached
 *                 the temp file — the canonical crash-mid-write.
 *   - FlushFail:  the stream goes bad at flush/close (disk full).
 *   - RenameFail: the final atomic rename fails.
 * Under the tmp+rename discipline none of these can damage the
 * previously committed artifact; the crash-consistency drill
 * (tests/test_corruption.cc, bench_robustness_io) enumerates them all
 * and asserts exactly that.
 *
 * `crash_debris` mode models the process dying at the fault point
 * instead of cleaning up: torn or stranded "<path>.tmp.<pid>.<seq>"
 * files stay on disk, to be reaped later by sweepStaleTemps() (the
 * service does this in recover(); benches do it before regenerating
 * their memo, a dataset in /tmp).
 */
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "support/result.h"

namespace tlp {

/** What a drawn (or armed) I/O fault does to one operation. */
enum class IoFaultKind : uint8_t
{
    None = 0,    ///< the operation proceeds untouched
    OpenFail,    ///< opening the temp (write) or artifact (read) fails
    TornWrite,   ///< only the first k payload bytes reach the temp file
    FlushFail,   ///< flush/close reports failure (disk full)
    RenameFail,  ///< the temp -> final rename fails
};

/** Short stable name of @p kind ("torn-write", ...). */
const char *ioFaultKindName(IoFaultKind kind);

/** One fault decision for one I/O operation. */
struct IoFaultDecision
{
    IoFaultKind kind = IoFaultKind::None;
    /** TornWrite: exact payload bytes kept; < 0 derives k from aux
     *  (aux % (payload_size + 1)), so rate-based draws scale to any
     *  payload without knowing its size up front. */
    int64_t torn_at = -1;
    /** Keyed-hash material for derived values (torn byte count). */
    uint64_t aux = 0;
    /** Leave the torn/stranded temp file on disk (simulated process
     *  death) instead of unlinking it before returning the error. */
    bool crash_debris = false;
};

/**
 * Seeded fault schedule. Whether the Nth operation on a path faults —
 * and how — is a pure function of (seed, fnv1a(path), N); two runs with
 * the same profile and the same per-path operation sequence draw the
 * same faults regardless of scheduling, threads, or wall clock.
 */
struct IoFaultProfile
{
    /** Probability one operation faults, in [0, 1). */
    double fault_rate = 0.0;
    uint64_t seed = 0xd15c;
    /** Injected faults leave crash debris (see IoFaultDecision). */
    bool crash_debris = false;

    bool enabled() const { return fault_rate > 0.0; }

    /** Decide the fate of operation @p op_index on the path with
     *  fingerprint @p path_fp. Faulting operations pick one of the four
     *  kinds uniformly from the same keyed hash. */
    IoFaultDecision draw(uint64_t path_fp, uint64_t op_index) const;

    /** Profile from TLP_IO_FAULT_RATE / TLP_IO_FAULT_SEED /
     *  TLP_IO_CRASH_DEBRIS (all optional; default = no faults). */
    static IoFaultProfile fromEnv();
};

/** Operation tallies, all deterministic given a profile + workload. */
struct IoCounters
{
    int64_t writes_attempted = 0;   ///< atomicWriteFile calls
    int64_t writes_committed = 0;   ///< renames that landed
    int64_t open_faults = 0;        ///< injected OpenFail
    int64_t torn_faults = 0;        ///< injected TornWrite
    int64_t flush_faults = 0;       ///< injected FlushFail
    int64_t rename_faults = 0;      ///< injected RenameFail
    int64_t read_checks = 0;        ///< checkRead calls
    int64_t read_faults = 0;        ///< injected read-open failures
    int64_t temps_swept = 0;        ///< stale temp files unlinked
};

/**
 * The process-wide I/O environment: one profile, per-path op counters,
 * and an optional one-shot armed decision for drills. Thread-safe; the
 * artifact writers are not hot-path TUs, so a mutex per artifact
 * open/draw is free.
 */
class IoEnv
{
  public:
    /** The process singleton, initially IoFaultProfile::fromEnv(). */
    static IoEnv &global();

    /** Install @p profile and reset the per-path op counters (so a
     *  fresh profile starts a fresh deterministic schedule). */
    void setProfile(const IoFaultProfile &profile);
    IoFaultProfile profile() const;

    /** Force @p decision onto the next write, bypassing the profile —
     *  the drill API for enumerating exact fault points. One-shot:
     *  consumed by the next atomicWriteFile. */
    void armNextWrite(const IoFaultDecision &decision);

    /** Decide the fate of a write to @p path (armed decision first,
     *  then the profile) and tally it. Called by atomicWriteFile. */
    IoFaultDecision drawWrite(const std::string &path);

    /** Read-side hook: Ok, or an injected open failure for @p path.
     *  File-level artifact loaders call this before opening. */
    Status checkRead(const std::string &path);

    /** Tally a committed (renamed-into-place) write. */
    void noteWriteCommitted();

    /** Tally @p count stale temp files swept. */
    void noteTempsSwept(int count);

    IoCounters counters() const;
    void resetCounters();

  private:
    IoEnv();

    mutable std::mutex mutex_;
    IoFaultProfile profile_;
    IoFaultDecision armed_;
    bool has_armed_ = false;
    std::map<uint64_t, uint64_t> write_ops_;   ///< path fp -> next op
    std::map<uint64_t, uint64_t> read_ops_;    ///< path fp -> next op
    IoCounters counters_;
};

/**
 * RAII profile install: swaps @p profile into IoEnv::global() (also
 * resetting op counters and tallies) and restores the previous profile
 * on destruction — tests and drills use this so no fault schedule
 * leaks into later code.
 */
class ScopedIoFaults
{
  public:
    explicit ScopedIoFaults(const IoFaultProfile &profile);
    ~ScopedIoFaults();

    ScopedIoFaults(const ScopedIoFaults &) = delete;
    ScopedIoFaults &operator=(const ScopedIoFaults &) = delete;

  private:
    IoFaultProfile saved_;
};

/** True when @p name is "<stem>.tmp.<digits>.<digits>" — the temp-file
 *  shape atomicWriteFile creates. Empty @p stem matches any stem. The
 *  single classifier behind sweepStaleTemps / sweepStaleTempsFor and
 *  the artifact audit (src/artifact), so the doctor and the sweepers
 *  can never disagree about what debris is. */
bool isAtomicTempName(const std::string &name,
                      const std::string &stem = std::string());

/** Evidence generations quarantineArtifact probes before giving up: a
 *  directory already holding this many "<path>.quarantined.N" files is
 *  pathological, and failing loudly beats an unbounded scan. */
inline constexpr int kQuarantineMaxGenerations = 10000;

/**
 * Move a damaged artifact aside as quarantine evidence: renames @p path
 * to the first free "<path>.quarantined.N" (N = 1, 2, ...), so repeated
 * quarantines of the same artifact never overwrite earlier evidence.
 * Returns the jail path, or IoError when the rename fails or every
 * generation up to @p max_generations is already taken (the artifact
 * and all existing evidence are left untouched in that case).
 */
Result<std::string>
quarantineArtifact(const std::string &path,
                   int max_generations = kQuarantineMaxGenerations);

/**
 * Unlink every stale "<name>.tmp.<pid>.<seq>" file directly under
 * @p dir — debris a crash between atomicWriteFile's open and rename
 * strands forever. Returns the number removed. Only call on a
 * directory the caller owns (no other live writer), e.g. a service
 * directory during recover().
 */
int sweepStaleTemps(const std::string &dir);

/** Like sweepStaleTemps but only for temps of one artifact: unlinks
 *  "<artifact_path>.tmp.<pid>.<seq>" files (used before regenerating a
 *  bench memo dataset in shared /tmp, where a directory-wide sweep
 *  could race other processes' live temps). Returns the number removed. */
int sweepStaleTempsFor(const std::string &artifact_path);

} // namespace tlp
