/**
 * @file
 * Crash-safe multi-session tuning service (DESIGN.md §12).
 *
 * TuningService multiplexes many TuningSession state machines over one
 * process: admission control with a bounded FIFO queue and deterministic
 * shedding, cooperative round-robin scheduling (one session round per
 * tick — rounds internally fan out over the global ThreadPool, so the
 * service composes with TLP_NUM_THREADS instead of nesting pools),
 * per-session simulated-seconds deadlines, seeded exponential backoff on
 * injected transient faults, model-snapshot hot-swap behind a health
 * probe, and crash-safe recovery: on restart the service sweeps stale
 * atomic-write temp files, re-adopts every recoverable checkpoint in
 * its directory, quarantines damaged ones (renamed *.quarantined.N,
 * never a process abort, every generation of evidence kept), and
 * resumes each session to a curve bit-identical to an uninterrupted
 * run. Checkpoint-write failures degrade gracefully (DESIGN.md §14):
 * seeded retry-with-backoff first, then a Checkpointless mode where
 * the session keeps tuning without persistence — curves unchanged
 * either way.
 *
 * Determinism contract: a session's trajectory depends only on its spec
 * (workload, platform, model kind, tune options, seed) — never on the
 * interleaving the service chose, the tick a kill landed on, or the
 * thread count. Backoff and deadlines only delay or truncate rounds;
 * they never perturb the rng, measurer, or model state. That is what
 * makes the fleet fault drill (tests/test_service.cc, CI
 * service-recovery) exact instead of approximate.
 */
#pragma once

#include <map>
#include <memory>

#include "models/guarded_model.h"
#include "models/snapshot.h"
#include "tuner/session.h"

namespace tlp::serve {

/** Which cost model a session runs behind. */
enum class ModelKind : uint8_t
{
    Random = 0,     ///< RandomCostModel (fast; baseline)
    Ansor,          ///< AnsorOnlineCostModel (online GBDT)
    GuardedAnsor,   ///< guarded ladder: ansor-online > random
    /** Guarded ladder topped by the hot-swappable TLP snapshot when one
     *  is loaded (tlp > ansor-online > random); without a snapshot it
     *  degrades to GuardedAnsor — the service never refuses a session
     *  just because no snapshot arrived yet. */
    GuardedTlp,
};

/** Parse "random" / "ansor" / "guarded-ansor" / "guarded-tlp". */
Result<ModelKind> parseModelKind(const std::string &name);

/** Short name of @p kind, inverse of parseModelKind. */
std::string modelKindName(ModelKind kind);

/**
 * Deterministic transient-fault injection at the service level (the
 * search-loop analogue of model::TrainFaultProfile): whether session
 * @p session_key faults before running round @p round is a pure
 * function of (seed, key, round, attempt) — never wall clock — so a
 * recovered service replays the exact fault/backoff schedule.
 */
struct ServiceFaultProfile
{
    /** Probability a (session, round, attempt) draw faults, in [0, 1). */
    double transient_rate = 0.0;
    uint64_t seed = 0x5eed;
    /** Poisoned-session drill: the named session faults on EVERY draw
     *  once it reaches poison_after_round — the deterministic stand-in
     *  for a session whose workload or host is simply broken, used to
     *  exercise the circuit breaker (empty = no poison). */
    std::string poison_session;
    int poison_after_round = 0;

    bool draw(uint64_t session_key, int round, int attempt) const;

    /** True when the poisoned-session drill dooms this draw. */
    bool poisons(uint64_t session_key, int round) const;
};

/** One session the service should run. */
struct SessionSpec
{
    /** Unique fleet name; also names the checkpoint (<name>.ckpt) and
     *  curve (<name>.curve) files in the service directory. */
    std::string name;
    std::string network = "resnet-18";   ///< ir::buildNetwork key
    std::string platform = "i7-10510u";  ///< hw::HardwarePlatform preset
    ModelKind model = ModelKind::Random;
    /** Keep only the first N subgraphs of the partitioned network
     *  (0 = all); small fleets stay laptop-fast. */
    int max_subgraphs = 0;
    /** Round budget, rng seed, fault profile, cadence, ... The service
     *  overrides checkpoint_path and resume; rounds are raised to the
     *  task count so the workload latency becomes finite. */
    tune::TuneOptions tune;
    /** Finalize early once the session has consumed this much simulated
     *  measurement time (inf = no deadline). */
    double deadline_simulated_seconds =
        std::numeric_limits<double>::infinity();
};

/** Lifecycle of a submitted session inside the service. */
enum class SessionStatus : uint8_t
{
    Queued = 0,      ///< admitted, waiting for an active slot
    Active,          ///< holds a slot; runs one round per service tick
    BackedOff,       ///< transient fault: sleeping until a future tick
    Finished,        ///< budget exhausted; result final, curve written
    DeadlineExpired, ///< finalized early by the simulated-time deadline
    Shed,            ///< refused at submit: queue was at capacity
    /** Circuit breaker tripped: the session accrued breaker_trip_limit
     *  consecutive faults/degradations, its checkpoint was renamed
     *  aside as evidence, and its slot was freed. Terminal; no curve
     *  file is written — by the isolation invariant every OTHER
     *  session's curve is byte-identical to a fleet without it. */
    PoisonQuarantined,
};

/** Short status name, e.g. "backed-off". */
std::string sessionStatusName(SessionStatus status);

/** submit() verdict. */
enum class AdmitOutcome : uint8_t
{
    Active = 0,   ///< got a slot immediately
    Queued,       ///< bounded queue had room
    Shed,         ///< deterministically refused (queue full)
};

/** What recover() did with one spec's checkpoint. */
enum class RecoveryOutcome : uint8_t
{
    Fresh = 0,    ///< no checkpoint on disk; started from round 0
    Recovered,    ///< checkpoint verified + resumed
    Quarantined,  ///< damaged checkpoint renamed *.quarantined.N; fresh
};

/** Aggregate recover() report. */
struct RecoveryReport
{
    int fresh = 0;
    int recovered = 0;
    int quarantined = 0;
    /** Rounds that did not have to be re-run thanks to checkpoints. */
    int64_t rounds_salvaged = 0;
    /** Stale atomic-write temp files reaped from the service dir. */
    int stale_temps_swept = 0;
    /** Per-session outcome, keyed by spec name. */
    std::map<std::string, RecoveryOutcome> outcomes;
};

/** Base of a backed-off session's exponential delay, in ticks. */
inline constexpr int64_t kServiceBackoffBaseTicks = 1;

/** Service-wide configuration. */
struct ServiceOptions
{
    /** Directory holding <name>.ckpt / <name>.curve files (created on
     *  construction when missing). */
    std::string dir = "/tmp/tlp_serve";
    /** Concurrent sessions holding an active slot. */
    int max_active = 8;
    /** Bounded admission queue; submissions beyond it are shed. */
    int max_queued = 16;
    /** Checkpoint cadence handed to every session (1 = every round,
     *  the crash-safe default for a service). */
    int checkpoint_every = 1;
    /** Backoff after the Nth consecutive fault of a session is
     *  min(backoff_cap_ticks, kServiceBackoffBaseTicks << N) plus a
     *  seeded jitter tick. */
    int backoff_cap_ticks = 8;
    /** Checkpoint-write failures tolerated per session before it
     *  degrades to Checkpointless mode (DESIGN.md §14). Each failure
     *  backs the session off (same seeded exponential schedule as
     *  transient faults) and retries the write before the next round;
     *  past the limit the session keeps tuning without persistence. */
    int ckpt_retry_limit = 3;
    /**
     * Per-session circuit breaker (DESIGN.md §15): consecutive strikes
     * — transient round faults, failed checkpoint writes, and a
     * quarantined checkpoint at recover() — a session may accrue
     * before it trips to PoisonQuarantined. A fully clean round resets
     * the count, so the breaker only fires on a session that is
     * failing *forever*, never on the bursty-but-recovering faults the
     * backoff schedule is for. 0 disables the breaker. Trips are a
     * pure function of the seeded fault/IO schedules — never wall
     * clock — so a drill replays exactly.
     */
    int breaker_trip_limit = 12;
    ServiceFaultProfile faults;
    /** Inference hot-path configuration handed to every GuardedTlp
     *  session's TlpCostModel (DESIGN.md §13). Value-neutral: any
     *  setting yields the same curves, only a different speed; only
     *  tests and benches set legacy(). */
    model::TlpInferOptions tlp_infer{};
    bool verbose = false;
};

/** Operating counters (all deterministic given the same submissions). */
struct ServiceStats
{
    int64_t submitted = 0;
    int64_t admitted_active = 0;
    int64_t admitted_queued = 0;
    int64_t shed = 0;
    int64_t ticks = 0;
    int64_t idle_ticks = 0;       ///< every runnable session backed off
    int64_t rounds_run = 0;
    int64_t faults_injected = 0;
    int64_t backoff_ticks_slept = 0;
    int64_t finished = 0;
    int64_t deadline_expired = 0;
    int64_t snapshot_swaps = 0;
    int64_t snapshot_swap_failures = 0;
    int64_t ckpt_write_failures = 0;   ///< failed checkpoint writes seen
    int64_t ckpt_retries = 0;          ///< checkpoint writes retried
    int64_t ckpt_retry_successes = 0;  ///< retries that landed
    int64_t checkpointless_sessions = 0; ///< sessions degraded (ever)
    int64_t curve_write_retries = 0;   ///< curve-file write retries
    int64_t stale_temps_swept = 0;     ///< temp files reaped in recover()
    int64_t breaker_trips = 0;         ///< sessions poison-quarantined
};

/**
 * The multi-session tuning service.
 *
 * Single-threaded by design at the session level (see the file
 * comment); drive it with tick() / runUntilIdle(). Sessions write their
 * own checkpoints through TuningSession's cadence; the service adds the
 * fleet-level concerns on top.
 */
class TuningService
{
  public:
    explicit TuningService(const ServiceOptions &options);

    TuningService(const TuningService &) = delete;
    TuningService &operator=(const TuningService &) = delete;

    /** Admit @p spec (or queue or shed it, deterministically). */
    AdmitOutcome submit(const SessionSpec &spec);

    /**
     * Crash recovery: sweep stale atomic-write temp files, then submit
     * every spec of @p fleet, re-adopting checkpoints left in the
     * service directory by a previous incarnation. Damaged checkpoints
     * are quarantined (renamed "<file>.quarantined.N" with a unique N,
     * mirroring the exit-3 artifact semantics without aborting the
     * service and never overwriting earlier evidence) and their
     * sessions restart fresh, so the fleet still converges to the
     * golden curves.
     */
    RecoveryReport recover(const std::vector<SessionSpec> &fleet);

    /**
     * One scheduling quantum: wake due backoffs, then run one round of
     * the next runnable session (round-robin). @return true while any
     * session still has work (including backed-off and queued ones).
     */
    bool tick();

    /** tick() until idle (or @p max_ticks > 0 is hit); returns ticks. */
    int64_t runUntilIdle(int64_t max_ticks = 0);

    /**
     * Hot-swap the TLP snapshot used by new GuardedTlp sessions. The
     * snapshot is loaded via the §8 checksummed format and must pass
     * model::probeSnapshotHealth; on any failure the previous snapshot
     * (possibly none) stays installed and a Status reports why —
     * in-flight sessions are never touched by a swap, good or bad.
     */
    Status swapModel(const std::string &snapshot_path);

    /** Checkpoint file path for @p name under this service's dir. */
    std::string checkpointPath(const std::string &name) const;

    /** Curve file path for @p name under this service's dir. */
    std::string curvePath(const std::string &name) const;

    const ServiceStats &stats() const { return stats_; }

    /** Status of a submitted (or shed) session; FATAL on unknown name. */
    SessionStatus status(const std::string &name) const;

    /** Final result of a Finished/DeadlineExpired session. */
    const tune::TuneResult &result(const std::string &name) const;

    /** True when no session has runnable or queued work left. */
    bool idle() const;

    /** Names in submission order (shed submissions included). */
    std::vector<std::string> names() const;

  private:
    /** One session slot. */
    struct Slot
    {
        SessionSpec spec;
        SessionStatus status = SessionStatus::Queued;
        uint64_t key = 0;   ///< fnv1a(name), the fault-draw identity
        ir::Workload workload;
        std::shared_ptr<model::CostModel> base_model;
        std::unique_ptr<tune::TuningSession> session;
        int fault_attempts = 0;      ///< consecutive faults this round
        int64_t backoff_until_tick = 0;
        int ckpt_failures = 0;       ///< consecutive failed ckpt writes
        bool ckpt_retry_pending = false; ///< retry write at next wake
        bool checkpointless = false; ///< degraded: persistence disabled
        /** Consecutive circuit-breaker strikes (faults + checkpoint
         *  failures + recover-time quarantine); a clean round zeroes
         *  it, breaker_trip_limit trips it. */
        int breaker_count = 0;
        tune::TuneResult final_result;
    };

    Slot &findSlot(const std::string &name);
    const Slot &findSlot(const std::string &name) const;

    /** Build workload/model/session state for an admitted spec. */
    void instantiate(Slot &slot);

    /** Finalize @p slot, write its curve file, promote the queue. */
    void finalize(Slot &slot, SessionStatus terminal);

    /** Seeded exponential backoff of @p slot after its @p attempt-th
     *  consecutive failure (0-based): min(backoff_cap_ticks,
     *  kServiceBackoffBaseTicks << attempt) plus a jitter tick drawn from
     *  @p jitter_key, at least one tick. */
    void backOff(Slot &slot, int64_t tick_now, int attempt,
                 uint64_t jitter_key);

    /** Register a failed checkpoint write: back off and schedule a
     *  retry, or degrade the session to Checkpointless past the limit
     *  (DESIGN.md §14). Never touches tuning state. */
    void noteCheckpointFailure(Slot &slot, int64_t tick_now);

    /** One breaker strike against @p slot; trips it at the limit.
     *  @return true when the session was poison-quarantined. */
    bool noteBreakerStrike(Slot &slot);

    /** Trip the circuit breaker: quarantine the session's checkpoint
     *  as evidence, mark it PoisonQuarantined (no curve file), free
     *  its slot for the admission queue. */
    void tripBreaker(Slot &slot);

    /** Move the oldest Queued slot into the freed active slot. */
    void promoteQueued();

    int activeCount() const;

    const ServiceOptions options_;
    std::vector<std::unique_ptr<Slot>> slots_;
    size_t cursor_ = 0;   ///< round-robin position
    std::shared_ptr<model::TlpNet> tlp_net_;   ///< hot-swapped snapshot
    ServiceStats stats_;
};

/**
 * Serialize the deterministic view of @p result (measurement counts,
 * latencies, simulated measurement seconds — never real wall clock) as
 * the text written to <name>.curve; the CI service-recovery drill diffs
 * these files between a golden and a killed-and-recovered run.
 */
std::string formatCurveFile(const std::string &name,
                            SessionStatus terminal,
                            const tune::TuneResult &result);

} // namespace tlp::serve
