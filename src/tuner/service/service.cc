#include "tuner/service/service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "artifact/audit.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "support/io_env.h"
#include "support/logging.h"
#include "support/rng.h"

namespace tlp::serve {

namespace {

/** Domain-separation salt for checkpoint-retry backoff jitter, so the
 *  I/O schedule never correlates with the transient-fault schedule. */
constexpr uint64_t kCkptBackoffSalt = 0xc4e47ull;

/** Bounded retries for the final curve write: each attempt advances the
 *  path's op counter in the chaos env, so under any fault_rate < 1 the
 *  attempt count (and hence success) is a deterministic function of
 *  (seed, path) — timing never enters. */
constexpr int kCurveWriteRetries = 128;

/** First @p keep subgraphs (and weights) of @p workload; 0 keeps all. */
ir::Workload
sliceWorkload(ir::Workload workload, int keep)
{
    if (keep <= 0 ||
        static_cast<size_t>(keep) >= workload.subgraphs.size()) {
        return workload;
    }
    workload.name += "-slice" + std::to_string(keep);
    workload.subgraphs.resize(static_cast<size_t>(keep));
    workload.weights.resize(static_cast<size_t>(keep));
    return workload;
}

} // namespace

Result<ModelKind>
parseModelKind(const std::string &name)
{
    if (name == "random")
        return ModelKind::Random;
    if (name == "ansor")
        return ModelKind::Ansor;
    if (name == "guarded-ansor")
        return ModelKind::GuardedAnsor;
    if (name == "guarded-tlp")
        return ModelKind::GuardedTlp;
    return Status::error(ErrorCode::Invalid,
                         "unknown model kind '" + name +
                             "' (random|ansor|guarded-ansor|guarded-tlp)");
}

std::string
modelKindName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Random:       return "random";
      case ModelKind::Ansor:        return "ansor";
      case ModelKind::GuardedAnsor: return "guarded-ansor";
      case ModelKind::GuardedTlp:   return "guarded-tlp";
    }
    return "unknown";
}

std::string
sessionStatusName(SessionStatus status)
{
    switch (status) {
      case SessionStatus::Queued:          return "queued";
      case SessionStatus::Active:          return "active";
      case SessionStatus::BackedOff:       return "backed-off";
      case SessionStatus::Finished:        return "finished";
      case SessionStatus::DeadlineExpired: return "deadline-expired";
      case SessionStatus::Shed:            return "shed";
      case SessionStatus::PoisonQuarantined:
          return "poison-quarantined";
    }
    return "unknown";
}

bool
ServiceFaultProfile::draw(uint64_t session_key, int round,
                          int attempt) const
{
    if (transient_rate <= 0.0)
        return false;
    uint64_t h = hashCombine(seed, session_key);
    h = hashCombine(h, static_cast<uint64_t>(round));
    h = hashCombine(h, static_cast<uint64_t>(attempt));
    return hashUniform(h) < transient_rate;
}

bool
ServiceFaultProfile::poisons(uint64_t session_key, int round) const
{
    if (poison_session.empty() || round < poison_after_round)
        return false;
    return session_key ==
           fnv1a(poison_session.data(), poison_session.size());
}

TuningService::TuningService(const ServiceOptions &options)
    : options_(options)
{
    TLP_CHECK(options_.max_active > 0, "max_active must be positive");
    TLP_CHECK(options_.max_queued >= 0, "max_queued must be >= 0");
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
    if (ec) {
        TLP_FATAL("cannot create service directory ", options_.dir, ": ",
                  ec.message());
    }
}

std::string
TuningService::checkpointPath(const std::string &name) const
{
    return options_.dir + "/" + name + ".ckpt";
}

std::string
TuningService::curvePath(const std::string &name) const
{
    return options_.dir + "/" + name + ".curve";
}

TuningService::Slot &
TuningService::findSlot(const std::string &name)
{
    for (auto &slot : slots_)
        if (slot->spec.name == name)
            return *slot;
    TLP_FATAL("unknown session '", name, "'");
}

const TuningService::Slot &
TuningService::findSlot(const std::string &name) const
{
    return const_cast<TuningService *>(this)->findSlot(name);
}

void
TuningService::instantiate(Slot &slot)
{
    const SessionSpec &spec = slot.spec;
    const auto platform = hw::HardwarePlatform::preset(spec.platform);
    slot.workload = sliceWorkload(
        ir::partitionGraph(ir::buildNetwork(spec.network)),
        spec.max_subgraphs);

    switch (spec.model) {
      case ModelKind::Random:
        slot.base_model =
            std::make_shared<model::RandomCostModel>(spec.tune.seed);
        break;
      case ModelKind::Ansor:
        slot.base_model = std::make_shared<model::AnsorOnlineCostModel>();
        break;
      case ModelKind::GuardedTlp:
        if (tlp_net_) {
            slot.base_model = model::makeGuardedLadder(
                std::make_shared<model::TlpCostModel>(
                    tlp_net_, feat::TlpFeatureOptions{}, 0,
                    options_.tlp_infer));
            break;
        }
        // No snapshot installed (yet): degrade to the ansor-topped
        // ladder rather than refusing the session.
        [[fallthrough]];
      case ModelKind::GuardedAnsor: {
        std::vector<std::shared_ptr<model::CostModel>> ladder;
        ladder.push_back(std::make_shared<model::AnsorOnlineCostModel>());
        ladder.push_back(std::make_shared<model::RandomCostModel>());
        slot.base_model =
            std::make_shared<model::GuardedCostModel>(std::move(ladder));
        break;
      }
    }

    tune::TuneOptions tune = spec.tune;
    // Every task needs one round before the workload latency is finite.
    tune.rounds =
        std::max(tune.rounds,
                 static_cast<int>(slot.workload.subgraphs.size()));
    tune.checkpoint_path = checkpointPath(spec.name);
    tune.checkpoint_every = options_.checkpoint_every;
    tune.resume = false;
    slot.session = std::make_unique<tune::TuningSession>(
        slot.workload, platform, *slot.base_model, tune);
}

AdmitOutcome
TuningService::submit(const SessionSpec &spec)
{
    TLP_CHECK(!spec.name.empty(), "session spec needs a name");
    for (const auto &slot : slots_) {
        if (slot->spec.name == spec.name)
            TLP_FATAL("duplicate session name '", spec.name, "'");
    }
    stats_.submitted += 1;

    auto slot = std::make_unique<Slot>();
    slot->spec = spec;
    slot->key = fnv1a(spec.name.data(), spec.name.size());

    AdmitOutcome outcome;
    const int queued = static_cast<int>(std::count_if(
        slots_.begin(), slots_.end(), [](const auto &s) {
            return s->status == SessionStatus::Queued;
        }));
    if (activeCount() < options_.max_active) {
        outcome = AdmitOutcome::Active;
        slot->status = SessionStatus::Active;
        stats_.admitted_active += 1;
        instantiate(*slot);
    } else if (queued < options_.max_queued) {
        outcome = AdmitOutcome::Queued;
        slot->status = SessionStatus::Queued;
        stats_.admitted_queued += 1;
        // Instantiated lazily at promotion: a queued session must not
        // pay workload/model construction it may never need.
    } else {
        outcome = AdmitOutcome::Shed;
        slot->status = SessionStatus::Shed;
        stats_.shed += 1;
        if (options_.verbose) {
            inform("shed session '", spec.name,
                   "' (queue at capacity ", options_.max_queued, ")");
        }
    }
    slots_.push_back(std::move(slot));
    return outcome;
}

RecoveryReport
TuningService::recover(const std::vector<SessionSpec> &fleet)
{
    RecoveryReport report;
    // Reap "<name>.tmp.<pid>.<seq>" debris first: a crash between
    // atomicWriteFile's open and rename strands temps forever, and the
    // service owns its directory, so a directory-wide sweep is safe.
    report.stale_temps_swept = sweepStaleTemps(options_.dir);
    stats_.stale_temps_swept += report.stale_temps_swept;
    for (const SessionSpec &spec : fleet) {
        const std::string ckpt = checkpointPath(spec.name);
        const bool exists = std::filesystem::exists(ckpt);
        RecoveryOutcome outcome = RecoveryOutcome::Fresh;
        bool resume = false;
        if (exists) {
            const Status status = tune::verifyCheckpoint(ckpt);
            if (status.ok()) {
                resume = true;
            } else {
                // Damaged artifact: same meaning as CLI exit code 3,
                // but a service quarantines and keeps serving — via
                // the same audit-module policy tlp_fsck uses, so the
                // doctor and the runtime can never drift on where
                // evidence goes.
                artifact::quarantineDamaged(ckpt);
                warn("quarantined damaged checkpoint ", ckpt, ": ",
                     status.toString());
                outcome = RecoveryOutcome::Quarantined;
            }
        }

        const AdmitOutcome admitted = submit(spec);
        if (resume && admitted == AdmitOutcome::Active) {
            Slot &slot = findSlot(spec.name);
            const Status status = slot.session->resumeFromCheckpoint();
            if (status.ok()) {
                outcome = RecoveryOutcome::Recovered;
                report.rounds_salvaged += slot.session->roundsDone();
            } else {
                // Structurally valid but unusable for THIS spec (e.g.
                // foreign configuration): quarantine and rebuild the
                // session from round 0.
                artifact::quarantineDamaged(ckpt);
                warn("quarantined mismatched checkpoint ", ckpt, ": ",
                     status.toString());
                outcome = RecoveryOutcome::Quarantined;
                instantiate(slot);
            }
        }
        report.outcomes[spec.name] = outcome;
        if (outcome == RecoveryOutcome::Quarantined) {
            // A quarantined checkpoint is the session's first breaker
            // strike: a spec that keeps poisoning its own persistence
            // should trip sooner on the next bad round.
            findSlot(spec.name).breaker_count = 1;
        }
        switch (outcome) {
          case RecoveryOutcome::Fresh:       report.fresh += 1; break;
          case RecoveryOutcome::Recovered:   report.recovered += 1; break;
          case RecoveryOutcome::Quarantined: report.quarantined += 1;
                                             break;
        }
    }
    if (options_.verbose) {
        inform("recovery: ", report.recovered, " resumed, ",
               report.fresh, " fresh, ", report.quarantined,
               " quarantined, ", report.rounds_salvaged,
               " rounds salvaged, ", report.stale_temps_swept,
               " stale temps swept");
    }
    return report;
}

int
TuningService::activeCount() const
{
    return static_cast<int>(std::count_if(
        slots_.begin(), slots_.end(), [](const auto &s) {
            return s->status == SessionStatus::Active ||
                   s->status == SessionStatus::BackedOff;
        }));
}

void
TuningService::promoteQueued()
{
    if (activeCount() >= options_.max_active)
        return;
    for (auto &slot : slots_) {
        if (slot->status == SessionStatus::Queued) {
            slot->status = SessionStatus::Active;
            instantiate(*slot);
            if (options_.verbose)
                inform("promoted '", slot->spec.name, "' from the queue");
            return;
        }
    }
}

void
TuningService::finalize(Slot &slot, SessionStatus terminal)
{
    slot.final_result = slot.session->finish();
    slot.status = terminal;
    if (terminal == SessionStatus::Finished)
        stats_.finished += 1;
    else if (terminal == SessionStatus::DeadlineExpired)
        stats_.deadline_expired += 1;

    const std::string text =
        formatCurveFile(slot.spec.name, terminal, slot.final_result);
    // The curve is the drill's ground truth, so its write retries
    // through injected faults (bounded; see kCurveWriteRetries) — the
    // bytes are already final, retrying cannot change them.
    Status status;
    for (int attempt = 0; ; ++attempt) {
        status = atomicWriteFile(
            curvePath(slot.spec.name),
            [&](std::ostream &os) {
                os.write(text.data(),
                         static_cast<std::streamsize>(text.size()));
            });
        if (status.ok() || attempt >= kCurveWriteRetries)
            break;
        stats_.curve_write_retries += 1;
    }
    if (!status.ok())
        warn("cannot write curve file: ", status.toString());
    if (options_.verbose) {
        inform("session '", slot.spec.name, "' ",
               sessionStatusName(terminal), " after ",
               slot.session->roundsDone(), " rounds: ",
               slot.final_result.best_workload_latency_ms, " ms");
    }
    promoteQueued();
}

bool
TuningService::noteBreakerStrike(Slot &slot)
{
    slot.breaker_count += 1;
    if (options_.breaker_trip_limit <= 0 ||
        slot.breaker_count < options_.breaker_trip_limit) {
        return false;
    }
    tripBreaker(slot);
    return true;
}

void
TuningService::tripBreaker(Slot &slot)
{
    stats_.breaker_trips += 1;
    slot.status = SessionStatus::PoisonQuarantined;
    slot.ckpt_retry_pending = false;
    const std::string ckpt = checkpointPath(slot.spec.name);
    // Contain the evidence: the checkpoint (possibly mid-poisoning)
    // moves to "*.quarantined.N" through the shared audit policy, and
    // any temp debris the failing writes stranded is reaped. No curve
    // file is ever written for a poison-quarantined session.
    std::string evidence = "none";
    std::error_code ec;
    if (std::filesystem::exists(ckpt, ec) && !ec) {
        const artifact::QuarantineAction action =
            artifact::quarantineDamaged(ckpt);
        evidence = action.removed ? std::string("removed")
                                  : action.jail;
    }
    sweepStaleTempsFor(ckpt);
    warn("circuit breaker tripped: session '", slot.spec.name,
         "' poison-quarantined after ", slot.breaker_count,
         " consecutive strikes (checkpoint evidence: ", evidence, ")");
    promoteQueued();
}

void
TuningService::backOff(Slot &slot, int64_t tick_now, int attempt,
                       uint64_t jitter_key)
{
    int64_t delay = kServiceBackoffBaseTicks << std::min(attempt, 20);
    delay = std::min<int64_t>(delay, options_.backoff_cap_ticks);
    delay += static_cast<int64_t>(mix64(jitter_key) % 2);
    slot.backoff_until_tick = tick_now + std::max<int64_t>(1, delay);
    slot.status = SessionStatus::BackedOff;
    stats_.backoff_ticks_slept += slot.backoff_until_tick - tick_now;
}

void
TuningService::noteCheckpointFailure(Slot &slot, int64_t tick_now)
{
    stats_.ckpt_write_failures += 1;
    slot.ckpt_failures += 1;
    if (noteBreakerStrike(slot))
        return;
    if (slot.ckpt_failures > options_.ckpt_retry_limit) {
        // Degrade rather than stall: the session keeps tuning without
        // persistence — a crash from here costs re-running rounds on
        // the next recover(), never correctness, and the curve is
        // untouched by construction.
        slot.checkpointless = true;
        slot.ckpt_retry_pending = false;
        slot.session->setCheckpointingEnabled(false);
        stats_.checkpointless_sessions += 1;
        warn("session '", slot.spec.name,
             "' entering checkpointless degraded mode after ",
             slot.ckpt_failures, " failed checkpoint writes");
        return;
    }
    // The transient-fault backoff, salted so the two schedules stay
    // independent.
    slot.ckpt_retry_pending = true;
    backOff(slot, tick_now, slot.ckpt_failures - 1,
            hashCombine(hashCombine(slot.key, kCkptBackoffSalt),
                        static_cast<uint64_t>(slot.ckpt_failures)));
    if (options_.verbose) {
        inform("session '", slot.spec.name,
               "' checkpoint write failed (attempt ",
               slot.ckpt_failures, "); retrying in ",
               slot.backoff_until_tick - tick_now, " ticks");
    }
}

bool
TuningService::tick()
{
    stats_.ticks += 1;
    const int64_t tick_now = stats_.ticks;

    // Wake sessions whose backoff expired.
    for (auto &slot : slots_) {
        if (slot->status == SessionStatus::BackedOff &&
            tick_now >= slot->backoff_until_tick) {
            slot->status = SessionStatus::Active;
        }
    }

    // Round-robin: run one round of the next Active session.
    Slot *picked = nullptr;
    for (size_t i = 0; i < slots_.size() && !picked; ++i) {
        Slot &slot = *slots_[(cursor_ + i) % slots_.size()];
        if (slot.status == SessionStatus::Active) {
            picked = &slot;
            cursor_ = (cursor_ + i + 1) % std::max<size_t>(
                                              1, slots_.size());
        }
    }
    if (!picked) {
        stats_.idle_ticks += 1;
        return !idle();
    }
    Slot &slot = *picked;

    // A backed-off checkpoint write retries BEFORE the session runs its
    // next round (DESIGN.md §14): the round sequence pauses while the
    // write is down, so the trajectory never notices the fault.
    if (slot.ckpt_retry_pending) {
        slot.ckpt_retry_pending = false;
        stats_.ckpt_retries += 1;
        const Status retried = slot.session->saveCheckpoint();
        if (retried.ok()) {
            stats_.ckpt_retry_successes += 1;
            slot.ckpt_failures = 0;
        } else {
            noteCheckpointFailure(slot, tick_now);
            // Anything but Active (backed off for a retry, or the
            // breaker tripped) ends this quantum.
            if (slot.status != SessionStatus::Active)
                return !idle();
        }
    }

    // A session can arrive done (recovered from a checkpoint written
    // after its final round): finalize without re-running anything.
    if (slot.session->done()) {
        finalize(slot, SessionStatus::Finished);
        return !idle();
    }
    if (slot.session->simulatedSeconds() >=
        slot.spec.deadline_simulated_seconds) {
        finalize(slot, SessionStatus::DeadlineExpired);
        return !idle();
    }

    // Transient-fault draw (seeded, keyed by session/round/attempt):
    // back off exponentially; the round itself runs untouched later, so
    // faults shift the schedule but never the trajectory. A poisoned
    // session (drill hook) faults on every draw — only the circuit
    // breaker can end it.
    const int round_now = slot.session->roundsDone();
    if (options_.faults.poisons(slot.key, round_now) ||
        options_.faults.draw(slot.key, round_now,
                             slot.fault_attempts)) {
        stats_.faults_injected += 1;
        if (noteBreakerStrike(slot))
            return !idle();
        backOff(slot, tick_now, slot.fault_attempts,
                hashCombine(slot.key,
                            static_cast<uint64_t>(slot.fault_attempts)));
        slot.fault_attempts += 1;
        if (options_.verbose) {
            inform("session '", slot.spec.name,
                   "' transient fault before round ",
                   slot.session->roundsDone(), "; backing off ",
                   slot.backoff_until_tick - tick_now, " ticks");
        }
        return !idle();
    }

    slot.fault_attempts = 0;
    const bool more = slot.session->step();
    stats_.rounds_run += 1;
    if (!more) {
        // The final curve write below supersedes any failed last
        // checkpoint: once the curve lands, the checkpoint only saves
        // re-running rounds that no longer exist.
        finalize(slot, SessionStatus::Finished);
        return !idle();
    }
    if (!slot.checkpointless &&
        !slot.session->lastCheckpointStatus().ok()) {
        noteCheckpointFailure(slot, tick_now);
    } else {
        // Round ran and persistence (if enabled) landed: the session
        // is healthy, so consecutive-strike accounting starts over.
        slot.breaker_count = 0;
    }
    return !idle();
}

int64_t
TuningService::runUntilIdle(int64_t max_ticks)
{
    int64_t ran = 0;
    while (!idle()) {
        if (max_ticks > 0 && ran >= max_ticks)
            break;
        tick();
        ran += 1;
    }
    return ran;
}

Status
TuningService::swapModel(const std::string &snapshot_path)
{
    stats_.snapshot_swaps += 1;
    auto loaded = model::loadTlpSnapshot(snapshot_path);
    if (!loaded.ok()) {
        stats_.snapshot_swap_failures += 1;
        return Status::error(loaded.status().code(),
                             "snapshot swap rejected (" + snapshot_path +
                                 "): " + loaded.status().message());
    }
    std::shared_ptr<model::TlpNet> net = loaded.take();
    const Status health = model::probeSnapshotHealth(*net);
    if (!health.ok()) {
        stats_.snapshot_swap_failures += 1;
        return Status::error(health.code(),
                             "snapshot swap rejected (" + snapshot_path +
                                 "): " + health.message());
    }
    tlp_net_ = std::move(net);
    if (options_.verbose)
        inform("installed TLP snapshot ", snapshot_path);
    return Status();
}

SessionStatus
TuningService::status(const std::string &name) const
{
    return findSlot(name).status;
}

const tune::TuneResult &
TuningService::result(const std::string &name) const
{
    const Slot &slot = findSlot(name);
    TLP_CHECK(slot.status == SessionStatus::Finished ||
                  slot.status == SessionStatus::DeadlineExpired,
              "session has no final result yet");
    return slot.final_result;
}

bool
TuningService::idle() const
{
    for (const auto &slot : slots_) {
        switch (slot->status) {
          case SessionStatus::Queued:
          case SessionStatus::Active:
          case SessionStatus::BackedOff:
            return false;
          default:
            break;
        }
    }
    return true;
}

std::vector<std::string>
TuningService::names() const
{
    std::vector<std::string> out;
    out.reserve(slots_.size());
    for (const auto &slot : slots_)
        out.push_back(slot->spec.name);
    return out;
}

std::string
formatCurveFile(const std::string &name, SessionStatus terminal,
                const tune::TuneResult &result)
{
    // Deterministic fields only: anything touching real wall clock
    // (search_seconds, model_seconds) would make the golden-vs-recovered
    // diff flaky by construction.
    std::ostringstream os;
    os << "# tlp_serve curve v1\n";
    os << "name " << name << "\n";
    os << "status " << sessionStatusName(terminal) << "\n";
    os << "measurements " << result.total_measurements << "\n";
    os << "points " << result.curve.size() << "\n";
    char line[128];
    for (const tune::CurvePoint &point : result.curve) {
        std::snprintf(line, sizeof(line), "%lld %.17g %.17g\n",
                      static_cast<long long>(point.measurements),
                      point.workload_latency_ms, point.measure_seconds);
        os << line;
    }
    return os.str();
}

} // namespace tlp::serve
