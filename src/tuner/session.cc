#include "tuner/session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "schedule/lower.h"
#include "support/clock.h"
#include "support/logging.h"

namespace tlp::tune {

namespace {

constexpr uint32_t kSessionMagic = kSessionCheckpointMagic;   // "TLPS"
// v4 widens CurvePoint with the simulated-seconds column and appends the
// session phase byte so a service can tell a cleanly finished session
// from a mid-flight one without knowing its budget. v5 keeps wall clock
// out of the file: no model_seconds and no per-point search_seconds, so
// two identical sessions write identical bytes. v2-v4 checkpoints still
// load (v2/v3: narrow curve points, phase derived from the round count).
// v1 (flat stream) checkpoints get a clean versioned error, not a parse
// crash.
constexpr uint32_t kSessionVersion = 5;
constexpr uint32_t kMinSessionVersion = 2;
constexpr uint32_t kStateTag = sectionTag("STAT");

/** CurvePoint layout of v2/v3 checkpoints (no measure_seconds column). */
struct CurvePointV3
{
    int64_t measurements = 0;
    double search_seconds = 0.0;
    double workload_latency_ms = 0.0;
};

/** CurvePoint layout of v5 checkpoints (no wall-clock column). */
struct CurvePointV5
{
    int64_t measurements = 0;
    double workload_latency_ms = 0.0;
    double measure_seconds = 0.0;
};

/** One task's slice of a parsed checkpoint. */
struct TaskCheckpoint
{
    double best_ms = 0.0;
    int32_t rounds_done = 0;
    double last_improvement = 1.0;
    std::vector<uint64_t> measured_hashes;
};

/** One measured round of a parsed checkpoint. */
struct RoundCheckpoint
{
    int32_t task_id = 0;
    std::vector<sched::PrimitiveSeq> seqs;
    std::vector<double> latency_ms;
};

/** Everything a "TLPS" checkpoint carries, in parser-owned types. */
struct CheckpointState
{
    int rounds_done = 0;
    Rng rng{0};
    SessionPhase phase = SessionPhase::Created;
    double model_seconds = 0.0;
    int64_t total_measurements = 0;
    std::vector<CurvePoint> curve;
    std::vector<double> best_per_task_ms;
    std::vector<TaskCheckpoint> tasks;
    std::vector<RoundCheckpoint> history;
    /** v3+: name of the cost model the checkpoint was taken with. */
    std::string model_name;
    /** v3+: opaque cost-model state (applied after history replay). */
    std::string model_state;
};

uint64_t
mixDouble(uint64_t hash, double value)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return hashCombine(hash, bits);
}

/**
 * Digest of everything that determines the session trajectory. A
 * checkpoint taken under one configuration must not silently resume
 * under another.
 */
uint64_t
configDigest(const ir::Workload &workload,
             const hw::HardwarePlatform &platform,
             const TuneOptions &options)
{
    uint64_t hash = options.seed;
    for (size_t i = 0; i < workload.subgraphs.size(); ++i) {
        const std::string &key = workload.subgraphs[i]->key();
        hash = hashCombine(hash, fnv1a(key.data(), key.size()));
        hash = hashCombine(hash,
                           static_cast<uint64_t>(workload.weights[i]));
    }
    hash = hashCombine(hash, fnv1a(platform.name.data(),
                                   platform.name.size()));
    // options.rounds is deliberately NOT digested: the total budget only
    // decides when to stop, so a killed campaign may resume with a
    // larger one.
    hash = hashCombine(hash,
                       static_cast<uint64_t>(options.measures_per_round));
    hash = hashCombine(hash,
                       static_cast<uint64_t>(options.evolution.population));
    hash = hashCombine(hash,
                       static_cast<uint64_t>(options.evolution.iterations));
    hash = hashCombine(
        hash, static_cast<uint64_t>(options.evolution.children_per_iter));
    hash = mixDouble(hash, kEpsGreedy);
    hash = hashCombine(hash, static_cast<uint64_t>(hw::kMeasureRepeats));
    hash = mixDouble(hash, hw::kMeasureNoiseStd);
    hash = mixDouble(hash, hw::kSecondsPerMeasure);
    hash = hashCombine(hash,
                       static_cast<uint64_t>(options.measure.max_retries));
    hash = hashCombine(
        hash, static_cast<uint64_t>(options.measure.quarantine_after));
    hash = hashCombine(hash, options.measure.faults.digest());
    return hash;
}

/**
 * Parse a checkpoint stream into parser-owned state. With null
 * @p expect_digest / @p expect_tasks / @p measurer the state is fully
 * validated but applied nowhere (the verifyCheckpoint path). Returns a
 * Status instead of dying on corrupt, truncated, version-skewed, or
 * foreign files.
 */
Result<CheckpointState>
readCheckpoint(std::istream &is, const uint64_t *expect_digest,
               const size_t *expect_tasks, hw::Measurer *measurer)
{
    CheckpointState state;
    const Status status = guardedParse([&] {
        BinaryReader reader(is);
        const uint32_t version = readHeader(
            reader, kSessionMagic, kMinSessionVersion, kSessionVersion);
        // One STAT frame and no TEND marker, so this is not
        // readSectionsToEnd: adding the marker would change the format.
        Section section = readSection(reader);
        if (section.tag != kStateTag) {
            throw SerializeError(ErrorCode::Corrupt,
                                 "unexpected checkpoint section " +
                                     sectionTagName(section.tag));
        }
        if (!section.crc_ok) {
            throw SerializeError(ErrorCode::Corrupt,
                                 "checkpoint checksum mismatch");
        }
        if (reader.remaining() != 0) {
            throw SerializeError(ErrorCode::Corrupt,
                                 "trailing bytes after checkpoint state");
        }

        std::istringstream payload(section.payload);
        BinaryReader body(payload);
        const auto saved_digest = body.readPod<uint64_t>();
        if (expect_digest && saved_digest != *expect_digest) {
            throw SerializeError(
                ErrorCode::Invalid,
                "checkpoint was taken under a different session "
                "configuration (workload, platform, seed, or options "
                "changed)");
        }
        state.rounds_done = body.readPod<int32_t>();
        state.rng = Rng::deserialize(body);
        if (measurer) {
            measurer->deserializeState(body);
        } else {
            // Verification only: parse into a scratch measurer (the
            // platform is irrelevant, deserializeState overwrites all
            // state it touches).
            hw::Measurer scratch(
                hw::HardwarePlatform::preset("i7-10510u"),
                hw::MeasureOptions{}, 0);
            scratch.deserializeState(body);
        }

        // v5 restarts the wall tally at zero; each restored point's
        // search time is its simulated measurement time.
        if (version <= 4)
            state.model_seconds = body.readPod<double>();
        state.total_measurements = body.readPod<int64_t>();
        if (version >= 5) {
            for (const CurvePointV5 &saved :
                 body.readVector<CurvePointV5>()) {
                state.curve.push_back({saved.measurements,
                                       saved.measure_seconds,
                                       saved.workload_latency_ms,
                                       saved.measure_seconds});
            }
        } else if (version == 4) {
            state.curve = body.readVector<CurvePoint>();
        } else {
            // v2/v3: narrow curve points; the simulated-seconds column
            // is unknowable after the fact and reads back as zero.
            for (const CurvePointV3 &old :
                 body.readVector<CurvePointV3>()) {
                state.curve.push_back({old.measurements, old.search_seconds,
                                       old.workload_latency_ms, 0.0});
            }
        }
        state.best_per_task_ms = body.readVector<double>();

        const auto num_tasks = body.readPod<uint32_t>();
        if (expect_tasks && num_tasks != *expect_tasks) {
            throw SerializeError(ErrorCode::Invalid,
                                 "checkpoint has " +
                                     std::to_string(num_tasks) +
                                     " tasks, session has " +
                                     std::to_string(*expect_tasks));
        }
        // A task entry costs >= 28 stream bytes.
        if (num_tasks > body.remaining() / 28 + 1) {
            throw SerializeError(ErrorCode::Truncated,
                                 "checkpoint task count " +
                                     std::to_string(num_tasks) +
                                     " exceeds the remaining stream");
        }
        state.tasks.resize(num_tasks);
        for (uint32_t i = 0; i < num_tasks; ++i) {
            TaskCheckpoint &task = state.tasks[i];
            task.best_ms = body.readPod<double>();
            task.rounds_done = body.readPod<int32_t>();
            task.last_improvement = body.readPod<double>();
            task.measured_hashes = body.readVector<uint64_t>();
        }

        const auto num_rounds = body.readPod<uint64_t>();
        if (num_rounds > body.remaining() / 8 + 1) {
            throw SerializeError(ErrorCode::Truncated,
                                 "checkpoint round count " +
                                     std::to_string(num_rounds) +
                                     " exceeds the remaining stream");
        }
        state.history.reserve(num_rounds);
        for (uint64_t r = 0; r < num_rounds; ++r) {
            RoundCheckpoint round;
            round.task_id = body.readPod<int32_t>();
            const auto count = body.readPod<uint32_t>();
            for (uint32_t i = 0; i < count; ++i) {
                round.seqs.push_back(
                    sched::PrimitiveSeq::deserialize(body));
                round.latency_ms.push_back(body.readPod<double>());
            }
            state.history.push_back(std::move(round));
        }
        if (version >= 3) {
            state.model_name = body.readString();
            state.model_state = body.readString();
        }
        if (version >= 4) {
            const auto phase = body.readPod<uint8_t>();
            if (phase > static_cast<uint8_t>(SessionPhase::Finished)) {
                throw SerializeError(ErrorCode::Corrupt,
                                     "invalid session phase " +
                                         std::to_string(phase));
            }
            state.phase = static_cast<SessionPhase>(phase);
        } else {
            state.phase = state.rounds_done > 0 ? SessionPhase::Running
                                                : SessionPhase::Created;
        }
        if (body.remaining() != 0) {
            throw SerializeError(ErrorCode::Corrupt,
                                 "trailing bytes in checkpoint state");
        }
    });
    if (!status.ok())
        return status;
    return state;
}

Result<CheckpointState>
readCheckpointFile(const std::string &path, const uint64_t *expect_digest,
                   const size_t *expect_tasks, hw::Measurer *measurer)
{
    return readArtifactFile(path, [&](std::istream &is) {
        return readCheckpoint(is, expect_digest, expect_tasks, measurer);
    });
}

bool
fileExists(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return is.good();
}

} // namespace

std::string
sessionPhaseName(SessionPhase phase)
{
    switch (phase) {
      case SessionPhase::Created:  return "created";
      case SessionPhase::Running:  return "running";
      case SessionPhase::Finished: return "finished";
    }
    return "unknown";
}

double
TuneResult::timeToReach(double target_latency_ms) const
{
    for (const CurvePoint &point : curve) {
        if (point.workload_latency_ms <= target_latency_ms)
            return point.search_seconds;
    }
    return std::numeric_limits<double>::infinity();
}

TuningSession::TuningSession(const ir::Workload &workload,
                             const hw::HardwarePlatform &platform,
                             model::CostModel &cost_model,
                             const TuneOptions &options)
    : platform_(platform), cost_model_(cost_model), options_(options),
      digest_(configDigest(workload, platform, options)),
      measurer_(platform, options.measure, options.seed),
      rng_(options.seed)
{
    TLP_CHECK(!workload.subgraphs.empty(), "empty workload");
    for (size_t i = 0; i < workload.subgraphs.size(); ++i) {
        TaskState task;
        task.subgraph = workload.subgraphs[i];
        task.weight = workload.weights[i];
        tasks_.push_back(std::move(task));
        policies_.emplace_back(workload.subgraphs[i], platform.is_gpu);
    }
    result_.best_per_task_ms.assign(
        tasks_.size(), std::numeric_limits<double>::infinity());
}

double
TuningSession::simulatedSeconds() const
{
    return measurer_.elapsedSeconds();
}

bool
TuningSession::checkpointExists() const
{
    return !options_.checkpoint_path.empty() &&
           fileExists(options_.checkpoint_path);
}

Status
TuningSession::resumeFromCheckpoint()
{
    if (options_.checkpoint_path.empty()) {
        return Status::error(ErrorCode::Invalid,
                             "session has no checkpoint path configured");
    }
    const size_t expect_tasks = tasks_.size();
    Result<CheckpointState> loaded =
        readCheckpointFile(options_.checkpoint_path, &digest_,
                           &expect_tasks, &measurer_);
    if (!loaded.ok())
        return loaded.status();
    CheckpointState state = loaded.take();

    if (!state.model_name.empty() &&
        state.model_name != cost_model_.name()) {
        return Status::error(
            ErrorCode::Invalid,
            "checkpoint was taken with cost model '" + state.model_name +
                "', this session uses '" + cost_model_.name() + "'");
    }

    rounds_done_ = state.rounds_done;
    rng_ = state.rng;
    result_.model_seconds = state.model_seconds;
    result_.total_measurements = state.total_measurements;
    result_.curve = std::move(state.curve);
    result_.best_per_task_ms = std::move(state.best_per_task_ms);
    for (size_t i = 0; i < tasks_.size(); ++i) {
        TaskState &task = tasks_[i];
        const TaskCheckpoint &saved = state.tasks[i];
        task.best_ms = saved.best_ms;
        task.rounds_done = saved.rounds_done;
        task.last_improvement = saved.last_improvement;
        task.measured_hashes.clear();
        task.measured_hashes.insert(saved.measured_hashes.begin(),
                                    saved.measured_hashes.end());
    }

    // Rebuild the online model by replaying the measured history in the
    // original round order; pretrained models ignore update().
    history_.clear();
    history_.reserve(state.history.size());
    for (RoundCheckpoint &saved : state.history) {
        std::vector<sched::State> states;
        states.reserve(saved.seqs.size());
        const auto &subgraph =
            tasks_[static_cast<size_t>(saved.task_id)].subgraph;
        for (const auto &seq : saved.seqs) {
            states.push_back(
                sched::replaySteps(subgraph, platform_.is_gpu, seq));
        }
        std::vector<const sched::State *> state_ptrs;
        for (const auto &replayed : states)
            state_ptrs.push_back(&replayed);
        cost_model_.update(saved.task_id, state_ptrs, saved.latency_ms);
        RoundHistory round;
        round.task_id = saved.task_id;
        round.seqs = std::move(saved.seqs);
        round.latency_ms = std::move(saved.latency_ms);
        history_.push_back(std::move(round));
    }

    // The v3+ model-state blob is applied AFTER replay: replay warms the
    // online models, then the blob overwrites the state replay cannot
    // reconstruct — scoring-time failovers, health counters, rng cursors
    // (v2 checkpoints carry no blob and skip this).
    if (!state.model_state.empty()) {
        std::istringstream buffer(state.model_state, std::ios::binary);
        BinaryReader blob(buffer);
        const Status blob_status = guardedParse(
            [&] { cost_model_.deserializeState(blob); });
        if (!blob_status.ok()) {
            return Status::error(blob_status.code(),
                                 "cannot restore cost-model state: " +
                                     blob_status.message());
        }
    }

    // The stored phase is advisory (the budget may have grown since the
    // checkpoint); derive the live phase from the restored round count.
    phase_ = rounds_done_ >= options_.rounds ? SessionPhase::Finished
             : rounds_done_ > 0              ? SessionPhase::Running
                                             : SessionPhase::Created;
    if (options_.verbose) {
        inform("resumed session from ", options_.checkpoint_path,
               " at round ", rounds_done_, " (",
               sessionPhaseName(phase_), ")");
    }
    return Status();
}

Status
TuningSession::saveCheckpoint() const
{
    // Atomic write (tmp + rename) so a crash or full disk mid-write
    // never clobbers the previous good checkpoint; a failed write only
    // costs checkpoint freshness, never the running campaign.
    return atomicWriteFile(options_.checkpoint_path, [&](std::ostream &os) {
        BinaryWriter writer(os);
        writeHeader(writer, kSessionMagic, kSessionVersion);
        writeSection(writer, kStateTag, [&](BinaryWriter &w) {
            w.writePod(digest_);
            w.writePod<int32_t>(rounds_done_);
            rng_.serialize(w);
            measurer_.serializeState(w);

            w.writePod(result_.total_measurements);
            std::vector<CurvePointV5> curve;
            curve.reserve(result_.curve.size());
            for (const CurvePoint &point : result_.curve) {
                curve.push_back({point.measurements,
                                 point.workload_latency_ms,
                                 point.measure_seconds});
            }
            w.writeVector(curve);
            w.writeVector(result_.best_per_task_ms);

            w.writePod<uint32_t>(static_cast<uint32_t>(tasks_.size()));
            for (const TaskState &task : tasks_) {
                w.writePod(task.best_ms);
                w.writePod<int32_t>(task.rounds_done);
                w.writePod(task.last_improvement);
                std::vector<uint64_t> hashes(task.measured_hashes.begin(),
                                             task.measured_hashes.end());
                w.writeVector(hashes);
            }

            w.writePod<uint64_t>(history_.size());
            for (const RoundHistory &round : history_) {
                w.writePod<int32_t>(round.task_id);
                w.writePod<uint32_t>(
                    static_cast<uint32_t>(round.seqs.size()));
                for (size_t i = 0; i < round.seqs.size(); ++i) {
                    round.seqs[i].serialize(w);
                    w.writePod(round.latency_ms[i]);
                }
            }

            // v3: cost-model identity + state blob. The blob carries
            // what history replay cannot rebuild (fallback position,
            // health counters, rng cursors); plain models write an
            // empty blob.
            w.writeString(cost_model_.name());
            std::ostringstream model_buffer(std::ios::binary);
            BinaryWriter model_writer(model_buffer);
            cost_model_.serializeState(model_writer);
            w.writeString(model_buffer.str());

            // v4: the phase the session was in when the checkpoint was
            // taken.
            w.writePod<uint8_t>(static_cast<uint8_t>(phase_));
        });
    });
}

double
TuningSession::workloadLatency() const
{
    double total = 0.0;
    for (const TaskState &task : tasks_) {
        if (!std::isfinite(task.best_ms))
            return std::numeric_limits<double>::infinity();
        total += task.best_ms * task.weight;
    }
    return total;
}

size_t
TuningSession::pickTask() const
{
    // First sweep: round-robin so every task gets a baseline.
    for (size_t i = 0; i < tasks_.size(); ++i)
        if (tasks_[i].rounds_done == 0)
            return i;
    // Afterwards: Ansor-style priority — the task with the largest
    // weighted remaining latency, boosted by recent improvement.
    double best_score = -1.0;
    size_t best_index = 0;
    for (size_t i = 0; i < tasks_.size(); ++i) {
        const TaskState &task = tasks_[i];
        const double score = task.best_ms * task.weight *
                             (0.5 + task.last_improvement);
        if (score > best_score) {
            best_score = score;
            best_index = i;
        }
    }
    return best_index;
}

bool
TuningSession::step()
{
    if (done())
        return false;
    phase_ = SessionPhase::Running;

    const int round = rounds_done_;
    const size_t task_index = pickTask();
    TaskState &task = tasks_[task_index];
    const int task_id = static_cast<int>(task_index);

    EvolutionResult evolution = evolveOneRound(
        policies_[task_index], cost_model_, task_id,
        options_.measures_per_round, task.measured_hashes,
        options_.evolution, rng_);
    result_.model_seconds += evolution.model_seconds;
    rounds_done_ = round + 1;

    if (!evolution.candidates.empty()) {
        // Measure the picked candidates on the (simulated) hardware.
        // Failed measurements burn wall clock but contribute neither to
        // the best-latency curve nor to the online model; every measured
        // hash is recorded so failing candidates are not re-proposed.
        const double before_best = task.best_ms;
        std::vector<const sched::State *> measured_states;
        std::vector<double> measured_latency;
        RoundHistory round_history;
        round_history.task_id = task_id;
        for (const auto &state : evolution.candidates) {
            const auto nest = sched::lower(state);
            const auto measured = measurer_.measure(nest);
            task.measured_hashes.insert(state.steps().hash());
            if (!measured.ok())
                continue;
            measured_states.push_back(&state);
            measured_latency.push_back(measured.latency_ms);
            round_history.seqs.push_back(state.steps());
            round_history.latency_ms.push_back(measured.latency_ms);
            task.best_ms = std::min(task.best_ms, measured.latency_ms);
        }
        result_.total_measurements +=
            static_cast<int64_t>(evolution.candidates.size());

        // Online model update (no-op for pretrained models); only valid
        // latencies may reach the model.
        if (!measured_states.empty()) {
            const double t0 = wallSeconds();
            cost_model_.update(task_id, measured_states,
                               measured_latency);
            result_.model_seconds += wallSeconds() - t0;
            history_.push_back(std::move(round_history));
        }

        task.last_improvement =
            std::isfinite(before_best) && before_best > 0.0
                ? std::max(0.0, (before_best - task.best_ms) / before_best)
                : 1.0;
        task.rounds_done += 1;
        result_.best_per_task_ms[task_index] = task.best_ms;

        CurvePoint point;
        point.measurements = result_.total_measurements;
        point.measure_seconds = measurer_.elapsedSeconds();
        point.search_seconds =
            point.measure_seconds + result_.model_seconds;
        point.workload_latency_ms = workloadLatency();
        result_.curve.push_back(point);

        if (options_.verbose) {
            inform("round ", round, " task ", task_id, " best ",
                   task.best_ms, "ms workload ",
                   point.workload_latency_ms, "ms");
        }
    } else {
        task.rounds_done += 1;
    }

    if (rounds_done_ >= options_.rounds)
        phase_ = SessionPhase::Finished;

    // Checkpoint cadence. Deliberately NOT skipped on rounds without
    // candidates: with checkpoint_every = 1 the checkpoint after the
    // final round must always exist, so a crash before result emission
    // never re-measures a completed round on resume.
    last_ckpt_status_ = Status();
    if (checkpointing_enabled_ && !options_.checkpoint_path.empty() &&
        options_.checkpoint_every > 0 &&
        (rounds_done_ % options_.checkpoint_every == 0 ||
         rounds_done_ == options_.rounds)) {
        last_ckpt_status_ = saveCheckpoint();
        if (!last_ckpt_status_.ok()) {
            warn("checkpoint write skipped (previous checkpoint kept): ",
                 last_ckpt_status_.toString());
        }
    }
    return rounds_done_ < options_.rounds;
}

const TuneResult &
TuningSession::finish()
{
    phase_ = SessionPhase::Finished;
    result_.best_workload_latency_ms = workloadLatency();
    result_.cost_model_name = cost_model_.name();
    result_.measure_seconds = measurer_.elapsedSeconds();
    result_.total_search_seconds =
        result_.measure_seconds + result_.model_seconds;

    const auto &counts = measurer_.statusCounts();
    result_.status_counts.assign(counts.begin(), counts.end());
    result_.failed_measurements = 0;
    for (int s = 1; s < hw::kNumMeasureStatuses; ++s)
        result_.failed_measurements += counts[static_cast<size_t>(s)];
    result_.wasted_measure_seconds = measurer_.failureSeconds();
    result_.quarantined_candidates = measurer_.quarantineSize();
    return result_;
}

TuneResult
tuneWorkload(const ir::Workload &workload,
             const hw::HardwarePlatform &platform,
             model::CostModel &cost_model, const TuneOptions &options)
{
    TuningSession session(workload, platform, cost_model, options);

    if (options.resume && !options.checkpoint_path.empty()) {
        if (!session.checkpointExists()) {
            inform("no checkpoint at ", options.checkpoint_path,
                   "; starting a fresh session");
        } else {
            const Status status = session.resumeFromCheckpoint();
            if (!status.ok()) {
                // tlp-lint: allow(loader-fatal) -- CLI boundary: --resume failure is terminal by design; resumeFromCheckpoint is the Result-returning loader
                TLP_FATAL("cannot resume from checkpoint ",
                          options.checkpoint_path, ": ",
                          status.toString(),
                          "; delete the file or drop --resume to start "
                          "fresh");
            }
        }
    }

    while (session.step()) {
    }
    return session.finish();
}

Status
verifyCheckpoint(std::istream &is)
{
    return readCheckpoint(is, nullptr, nullptr, nullptr).status();
}

Status
verifyCheckpoint(const std::string &path)
{
    return readCheckpointFile(path, nullptr, nullptr, nullptr).status();
}

} // namespace tlp::tune
