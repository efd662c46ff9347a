/**
 * @file
 * Tracing for the repo benchmark: clocks and process counters, a
 * forwarding CostModel decorator that times every call the search makes
 * into the model layer, and a replayer that splits that time across the
 * lower layers by re-running the captured inputs through their public
 * functions (sketch sampling/mutation, TLP features, fused forward,
 * lowering, Ansor features, measurement).
 *
 * Everything here lives outside the library on purpose: the benchmark
 * records spans around calls into each module, never inside one, so the
 * program under test is byte-for-byte the one users run.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hwmodel/measurer.h"
#include "models/cost_model.h"
#include "sketch/policy.h"
#include "tuner/evolution.h"

namespace perfbench {

/** Seconds on the steady clock. */
double now();

/** Heap allocations made so far by every thread of the process. */
uint64_t heapAllocs();

/** CPU seconds the process (all threads) has spent in the kernel. */
double sysSeconds();

/** CPU seconds the process (all threads) has spent, user plus kernel. */
double cpuSeconds();

/** Peak resident set size of the process, in MB. */
double peakRssMb();

/**
 * Per-layer accumulators of one traced unit, keyed by the per-layer
 * metric names of BENCHMARK.json ("models.score_s", ...).
 */
struct LayerTrace
{
    std::map<std::string, double> sums;
    /** Wall seconds spent replaying. Replays run inside timed calls, so
     *  every enclosing timer subtracts the share that fell inside it. */
    double replay_s = 0.0;
    /** Heap allocations made while replaying (same role as replay_s). */
    uint64_t replay_allocs = 0;

    void add(const std::string &name, double value) { sums[name] += value; }
};

/**
 * Times an interval on the wall clock and the allocation counter,
 * excluding whatever replay work the trace recorded inside it.
 */
class Span
{
  public:
    explicit Span(const LayerTrace *trace);

    /** Wall seconds since construction, replay excluded. */
    double seconds() const;

    /** Heap allocations since construction, replay excluded. */
    uint64_t allocs() const;

  private:
    const LayerTrace *trace_;
    double t0_;
    uint64_t allocs0_;
    double replay0_;
    uint64_t replay_allocs0_;
};

/**
 * Re-runs inputs captured from a tuning run through the public layer
 * functions and books the time under the layer's metric names. Each
 * replay mirrors the work the library did for the same call (same
 * counts, same ThreadPool partitioning), so its time estimates the
 * layer's share of the enclosing call.
 */
class Replayer
{
  public:
    /** @p tlp_net may be null when no TLP model is in play. */
    Replayer(LayerTrace &trace, std::shared_ptr<tlp::model::TlpNet> tlp_net,
             const tlp::hw::HardwarePlatform &platform);

    /**
     * A cached TlpCostModel batch: @p fresh rows were extracted and
     * @p forward_rows rows (fresh + feature hits) went through the fused
     * forward; the first rows of @p states stand in for them.
     */
    void tlpScoring(const std::vector<tlp::sched::State> &states,
                    int64_t fresh, int64_t forward_rows);

    /** Lower every state and extract its Ansor features. */
    void ansorFeatures(const std::vector<const tlp::sched::State *> &states);

    /** Lower and measure the candidates a round measured. */
    void measurement(const std::vector<const tlp::sched::State *> &states);

    /**
     * The sketch work of one evolution round on @p subgraph: sample the
     * initial population, then mutate parents (chosen uniformly) until
     * each iteration has its children or runs out of attempts.
     */
    void evolutionSketch(tlp::ir::SubgraphPtr subgraph);

  private:
    /** Books replay wall time and allocations of one replay call. */
    class Guard;

    const tlp::sketch::SchedulePolicy &policyFor(tlp::ir::SubgraphPtr sg);

    LayerTrace &trace_;
    std::unique_ptr<tlp::model::FusedTlpInference> fused_;
    tlp::feat::TlpFeatureOptions tlp_options_;
    tlp::hw::Measurer measurer_;
    tlp::tune::EvolutionOptions evolution_;
    std::map<const tlp::ir::Subgraph *,
             std::unique_ptr<tlp::sketch::SchedulePolicy>> policies_;
    tlp::Rng rng_;
    std::vector<float> rows_;
    std::vector<double> scores_;
};

/** What a TracingCostModel books besides the call itself. */
enum class ReplayKind : uint8_t
{
    None = 0,   ///< no lower-layer split (random rung, guard ladder)
    Tlp,        ///< TLP features + fused forward, from cache deltas
    Ansor,      ///< lowering + Ansor features on score and update
};

/**
 * Forwarding CostModel decorator. At the session boundary it times and
 * counts score/update calls (models.*), replays each round's measurement
 * and sketch work, and captures one scored batch for the output check.
 * Inside a guard ladder it wraps a rung and only replays that rung's
 * lower layers. Value-transparent: it returns exactly what the wrapped
 * model returns.
 */
class TracingCostModel : public tlp::model::CostModel
{
  public:
    /**
     * @param inner the wrapped model.
     * @param trace accumulators; null forwards only (untraced runs).
     * @param replayer lower-layer replays (may be null when @p replay is
     *        ReplayKind::None and @p session_level is false).
     * @param session_level time/count calls as the search sees them.
     * @param replay which lower-layer split this model's calls get.
     * @param tlp the TlpCostModel whose cache stats drive the TLP split.
     */
    TracingCostModel(std::shared_ptr<tlp::model::CostModel> inner,
                     LayerTrace *trace, Replayer *replayer,
                     bool session_level, ReplayKind replay,
                     const tlp::model::TlpCostModel *tlp = nullptr);

    std::string name() const override { return inner_->name(); }
    std::vector<double>
    scoreStates(int task_id,
                const std::vector<tlp::sched::State> &states) override;
    std::vector<double>
    predictBatch(int task_id,
                 const std::vector<tlp::sched::State> &states) override;
    void update(int task_id,
                const std::vector<const tlp::sched::State *> &states,
                const std::vector<double> &latency_ms) override;
    bool needsLowering() const override { return inner_->needsLowering(); }
    void
    serializeState(tlp::BinaryWriter &writer) const override
    {
        inner_->serializeState(writer);
    }
    void
    deserializeState(tlp::BinaryReader &reader) override
    {
        inner_->deserializeState(reader);
    }

    /** Copy the @p call_index-th scored batch (0-based) and its scores. */
    void captureBatchAt(int64_t call_index) { capture_at_ = call_index; }

    /** The captured batch (empty until the call happened). */
    const std::vector<tlp::sched::State> &capturedStates() const
    {
        return captured_states_;
    }
    const std::vector<double> &capturedScores() const
    {
        return captured_scores_;
    }
    int capturedTask() const { return captured_task_; }

  private:
    std::vector<double>
    score(int task_id, const std::vector<tlp::sched::State> &states,
          bool batched);

    std::shared_ptr<tlp::model::CostModel> inner_;
    LayerTrace *trace_;
    Replayer *replayer_;
    bool session_level_;
    ReplayKind replay_;
    const tlp::model::TlpCostModel *tlp_;
    bool fitted_ = false;   ///< an Ansor rung scores only once updated
    int64_t calls_ = 0;
    int64_t capture_at_ = -1;
    std::vector<tlp::sched::State> captured_states_;
    std::vector<double> captured_scores_;
    int captured_task_ = 0;
};

} // namespace perfbench
