/**
 * @file
 * The search-facing cost-model interface and its implementations.
 *
 * The auto-tuner (src/tuner) scores thousands of candidate schedules per
 * round through this interface and feeds back measured latencies:
 *
 *   - TlpCostModel:      pretrained TLP / MTL-TLP net; features come
 *                        straight from the primitive sequence (no
 *                        lowering — the Fig. 10 speed advantage).
 *   - TensetMlpCostModel: pretrained MLP over Ansor features; must lower
 *                        every candidate before scoring.
 *   - AnsorOnlineCostModel: the Ansor baseline; a GBDT retrained online
 *                        on the records measured so far.
 *   - RandomCostModel:   uniform scores (sanity floor).
 */
#pragma once

#include <memory>
#include <string>

#include "features/tlp_features.h"
#include "models/feature_cache.h"
#include "models/fused_infer.h"
#include "models/gbdt.h"
#include "models/tenset_mlp.h"
#include "models/tlp_model.h"
#include "schedule/state.h"

namespace tlp::model {

/**
 * Inference hot-path configuration of TlpCostModel (DESIGN.md §13).
 * Both accelerators are value-neutral: any combination of flags
 * predicts bit-identically; they only change speed. Every entry point
 * (tuner, service, CLIs) scores with the defaults; legacy() is the
 * in-code oracle that tests and benches compare the fast path against.
 */
struct TlpInferOptions
{
    /** Use the packed fused forward (FusedTlpInference) instead of the
     *  interpreted autograd forward. Ignored for LSTM backbones. */
    bool fused = true;
    /** Feature/score cache entries; 0 disables the cache entirely. */
    int64_t cache_capacity = 4096;

    /** Both accelerators off — the interpreted, uncached oracle. */
    static TlpInferOptions
    legacy()
    {
        return {false, 0};
    }
};

/** Abstract cost model used by the search loop. */
class CostModel
{
  public:
    virtual ~CostModel() = default;

    /** Display name, e.g. "tlp". */
    virtual std::string name() const = 0;

    /**
     * Score candidates of task @p task_id; higher = predicted faster.
     * The one scoring entry point of the search loop: feature extraction
     * (and lowering, where required) runs in parallel over candidates on
     * the global ThreadPool, and the whole population is scored in as
     * few network forwards as possible.
     */
    virtual std::vector<double>
    scoreStates(int task_id, const std::vector<sched::State> &states) = 0;

    /**
     * Forwards to scoreStates. Kept only because the perfbench harness
     * calls and overrides it; no model in src/ overrides it and nothing
     * in src/ calls it.
     */
    virtual std::vector<double>
    predictBatch(int task_id, const std::vector<sched::State> &states)
    {
        return scoreStates(task_id, states);
    }

    /** Feed back measured latencies (online models retrain). */
    virtual void update(int task_id,
                        const std::vector<const sched::State *> &states,
                        const std::vector<double> &latency_ms)
    {
    }

    /** True when scoring requires lowering the candidate programs. */
    virtual bool needsLowering() const = 0;

    /**
     * Persist / restore the model's search-time mutable state (rng
     * cursors, health probes, fallback position) for tuning-checkpoint
     * resume. Most models are pure functions of their construction plus
     * the replayed update() history, so the default writes nothing;
     * models with state that replay cannot rebuild (RandomCostModel,
     * GuardedCostModel) override both.
     */
    virtual void serializeState(BinaryWriter &writer) const {}
    virtual void deserializeState(BinaryReader &reader) {}
};

/** TLP / MTL-TLP cost model (offline-pretrained). */
class TlpCostModel : public CostModel
{
  public:
    TlpCostModel(std::shared_ptr<TlpNet> net,
                 feat::TlpFeatureOptions feature_options = {},
                 int head_task = 0,
                 TlpInferOptions infer_options = {});

    std::string name() const override { return "tlp"; }
    std::vector<double>
    scoreStates(int task_id, const std::vector<sched::State> &states)
        override;
    bool needsLowering() const override { return false; }

    /** Cache accounting (zeros when the cache is disabled). */
    FeatureCache::Stats cacheStats() const;

  private:
    /** Content fingerprint of every net parameter: stale-score guard. */
    uint64_t paramsFingerprint() const;

    std::vector<double>
    interpretedForward(const std::vector<float> &features, int rows);

    std::shared_ptr<TlpNet> net_;
    feat::TlpFeatureOptions feature_options_;
    int head_task_;
    TlpInferOptions infer_options_;
    /** The net's parameter handles, gathered once: Tensors share their
     *  node, so value() always reads the live weights, and the per-call
     *  fingerprint walk stays allocation-free. */
    std::vector<nn::Tensor> params_;
    std::unique_ptr<FusedTlpInference> fused_;
    std::unique_ptr<FeatureCache> cache_;
    uint64_t packed_epoch_ = 0;   ///< fingerprint fused_ was packed at
    // Reused per-call scratch (capacity is retained across calls, so
    // the steady state never reallocates).
    std::vector<SeqKey> keys_;
    std::vector<float> batch_;
    std::vector<int64_t> pending_state_;
    std::vector<int64_t> pending_slot_;
    std::vector<uint8_t> pending_fresh_;
    std::vector<uint8_t> claimed_;   ///< cache slots this batch reads
    std::vector<double> forward_scores_;
};

/** TenSet MLP cost model (offline-pretrained, Ansor features). */
class TensetMlpCostModel : public CostModel
{
  public:
    explicit TensetMlpCostModel(std::shared_ptr<TensetMlpNet> net);

    std::string name() const override { return "tenset-mlp"; }
    std::vector<double>
    scoreStates(int task_id, const std::vector<sched::State> &states)
        override;
    bool needsLowering() const override { return true; }

  private:
    std::shared_ptr<TensetMlpNet> net_;
};

/** Ansor's online GBDT over Ansor features. */
class AnsorOnlineCostModel : public CostModel
{
  public:
    explicit AnsorOnlineCostModel(GbdtOptions options = {});

    std::string name() const override { return "ansor-online"; }
    std::vector<double>
    scoreStates(int task_id, const std::vector<sched::State> &states)
        override;
    void update(int task_id,
                const std::vector<const sched::State *> &states,
                const std::vector<double> &latency_ms) override;
    bool needsLowering() const override { return true; }

    /** Refits rejected by the numeric guard (NaN predictions). */
    int64_t refitRejections() const { return refit_rejections_; }

  private:
    GbdtOptions options_;
    Gbdt gbdt_;
    std::vector<float> features_;               ///< rows x 164
    std::vector<float> latencies_;
    std::vector<int> tasks_;
    std::map<int, float> task_min_;
    int rows_ = 0;
    int64_t refit_rejections_ = 0;
};

/** Uniform-random scores. */
class RandomCostModel : public CostModel
{
  public:
    explicit RandomCostModel(uint64_t seed = 0xabcd);

    std::string name() const override { return "random"; }
    std::vector<double>
    scoreStates(int task_id, const std::vector<sched::State> &states)
        override;
    bool needsLowering() const override { return false; }
    void serializeState(BinaryWriter &writer) const override;
    void deserializeState(BinaryReader &reader) override;

  private:
    Rng rng_;
};

} // namespace tlp::model
