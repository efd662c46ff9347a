#include "models/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "features/ansor_features.h"
#include "schedule/lower.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace tlp::model {

namespace {

/**
 * Largest single forward pass of the scoring path; populations
 * beyond this are split to bound activation memory.
 */
constexpr int kMaxForwardBatch = 2048;

/** Ad-hoc LabeledSet holding only features (for batch prediction). */
data::LabeledSet
featureOnlySet(std::vector<float> features, int rows, int dim)
{
    data::LabeledSet set;
    set.rows = rows;
    set.feature_dim = dim;
    set.num_tasks = 1;
    set.features = std::move(features);
    set.labels.assign(static_cast<size_t>(rows),
                      std::numeric_limits<float>::quiet_NaN());
    set.groups.assign(static_cast<size_t>(rows), 0);
    return set;
}

/**
 * Lower + extract Ansor features, parallel over candidates. Lowering
 * and extraction are pure functions of the State, and every candidate
 * writes a disjoint feature row, so this is deterministic at any
 * thread count.
 */
std::vector<float>
ansorFeaturesOf(const std::vector<const sched::State *> &states)
{
    const size_t dim = static_cast<size_t>(feat::kAnsorFeatureSize);
    std::vector<float> features(states.size() * dim);
    ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(states.size()), 1,
        [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
                const auto row = feat::extractAnsorFeatures(
                    sched::lower(*states[static_cast<size_t>(i)]));
                std::copy(row.begin(), row.end(),
                          features.begin() + static_cast<size_t>(i) * dim);
            }
        });
    return features;
}

std::vector<float>
ansorFeaturesOf(const std::vector<sched::State> &states)
{
    std::vector<const sched::State *> ptrs;
    ptrs.reserve(states.size());
    for (const auto &state : states)
        ptrs.push_back(&state);
    return ansorFeaturesOf(ptrs);
}

} // namespace

TlpCostModel::TlpCostModel(std::shared_ptr<TlpNet> net,
                           feat::TlpFeatureOptions feature_options,
                           int head_task, TlpInferOptions infer_options)
    : net_(std::move(net)), feature_options_(feature_options),
      head_task_(head_task), infer_options_(infer_options)
{
    TLP_CHECK(net_ != nullptr, "null TLP net");
    feature_options_.seq_len = net_->config().seq_len;
    feature_options_.emb_size = net_->config().emb_size;
    params_ = net_->parameters();
    if (infer_options_.fused && !net_->config().lstm_backbone) {
        fused_ = std::make_unique<FusedTlpInference>(net_);
        packed_epoch_ = paramsFingerprint();
    }
    if (infer_options_.cache_capacity > 0) {
        cache_ = std::make_unique<FeatureCache>(
            static_cast<int64_t>(feature_options_.seq_len) *
                feature_options_.emb_size,
            infer_options_.cache_capacity);
    }
}

uint64_t
TlpCostModel::paramsFingerprint() const
{
    // Content hash over every parameter tensor. ~0.2 ms for the default
    // net — amortized to sub-microsecond per candidate — and robust
    // against every way the weights can change under us: continued
    // training, loadParameters() on snapshot install, hot-swap.
    uint64_t hash = 0x7e9f00d5ull;
    for (const nn::Tensor &param : params_) {
        const auto &value = param.value();
        hash = hashCombine(hash, value.size());
        hash = hashCombine(
            hash, fnv1a(value.data(), value.size() * sizeof(float)));
    }
    return hash;
}

FeatureCache::Stats
TlpCostModel::cacheStats() const
{
    return cache_ ? cache_->stats() : FeatureCache::Stats{};
}

std::vector<double>
TlpCostModel::interpretedForward(const std::vector<float> &features,
                                 int rows)
{
    const int dim =
        feature_options_.seq_len * feature_options_.emb_size;
    auto set = featureOnlySet(features, rows, dim);
    // One forward over the whole pending set (split only beyond the
    // activation-memory cap), instead of per-candidate forwards.
    return predictTlpNet(*net_, set, head_task_,
                         std::min(set.rows, kMaxForwardBatch));
}

std::vector<double>
TlpCostModel::scoreStates(int task_id,
                          const std::vector<sched::State> &states)
{
    if (states.empty())
        return {};
    const auto n = static_cast<int64_t>(states.size());
    const size_t dim = static_cast<size_t>(feature_options_.seq_len) *
                       static_cast<size_t>(feature_options_.emb_size);
    std::vector<double> scores(states.size());

    // Stale-weight guard: score memos are keyed by this fingerprint and
    // the packed fused weights are refreshed when it moves.
    const uint64_t epoch =
        (cache_ || fused_) ? paramsFingerprint() : 0;
    if (fused_ && epoch != packed_epoch_) {
        fused_->repack();
        packed_epoch_ = epoch;
    }

    if (!cache_) {
        // No cache: extract every row (parallel; extractTlpFeaturesInto
        // reads only the PrimitiveSeq and each candidate owns a
        // disjoint row) and forward the whole population.
        batch_.resize(states.size() * dim);
        ThreadPool::global().parallelFor(
            0, n, 1, [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                    feat::extractTlpFeaturesInto(
                        states[static_cast<size_t>(i)].steps(),
                        feature_options_,
                        batch_.data() + static_cast<size_t>(i) * dim);
                }
            });
        if (fused_) {
            fused_->predict(batch_.data(), n, head_task_,
                            scores.data());
            return scores;
        }
        return interpretedForward(batch_, static_cast<int>(n));
    }

    // Cached path. Pass 1 (parallel): hash every candidate's sequence.
    keys_.resize(states.size());
    ThreadPool::global().parallelFor(
        0, n, 1, [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i)
                keys_[static_cast<size_t>(i)] = seqKeyOf(
                    states[static_cast<size_t>(i)].steps());
        });

    // Pass 2 (serial): classify against the cache. Score memos resolve
    // immediately; everything else joins the pending forward set. A
    // batch reads its referenced slots only after classification, so an
    // insert must never evict a slot an earlier candidate of this batch
    // still points at — when the FIFO victim is claimed, the candidate
    // bypasses the cache (slot -1: extracted straight into the batch
    // buffer, never memoized).
    pending_state_.clear();
    pending_slot_.clear();
    pending_fresh_.clear();
    claimed_.assign(static_cast<size_t>(cache_->capacity()), 0);
    for (int64_t i = 0; i < n; ++i) {
        int64_t slot = cache_->find(keys_[static_cast<size_t>(i)]);
        bool fresh = false;
        if (slot < 0) {
            fresh = true;
            if (cache_->full() &&
                claimed_[static_cast<size_t>(cache_->nextVictim())]) {
                cache_->noteBypass();
                slot = -1;
            } else {
                slot = cache_->insert(keys_[static_cast<size_t>(i)]);
            }
        } else if (cache_->scoreAt(slot, head_task_, epoch,
                                   &scores[static_cast<size_t>(i)])) {
            cache_->noteScoreHit();
            continue;
        } else {
            cache_->noteFeatureHit();
        }
        if (slot >= 0)
            claimed_[static_cast<size_t>(slot)] = 1;
        pending_state_.push_back(i);
        pending_slot_.push_back(slot);
        pending_fresh_.push_back(fresh ? 1 : 0);
    }
    const auto pending = static_cast<int64_t>(pending_state_.size());
    if (pending == 0)
        return scores;

    // Pass 3 (parallel): extract the fresh rows — into their cache slot,
    // or directly into the batch buffer for bypassed candidates. A
    // duplicated candidate elsewhere in `states` maps to the same slot
    // as a feature hit, so row fills must complete before any slot is
    // read — hence the separate gather pass below.
    batch_.resize(static_cast<size_t>(pending) * dim);
    ThreadPool::global().parallelFor(
        0, pending, 1, [&](int64_t begin, int64_t end) {
            for (int64_t p = begin; p < end; ++p) {
                if (!pending_fresh_[static_cast<size_t>(p)])
                    continue;
                const int64_t slot =
                    pending_slot_[static_cast<size_t>(p)];
                feat::extractTlpFeaturesInto(
                    states[static_cast<size_t>(
                               pending_state_[static_cast<size_t>(p)])]
                        .steps(),
                    feature_options_,
                    slot >= 0
                        ? cache_->rowAt(slot)
                        : batch_.data() + static_cast<size_t>(p) * dim);
            }
        });

    // Pass 4 (parallel): gather cached pending rows into the batch.
    ThreadPool::global().parallelFor(
        0, pending, 1, [&](int64_t begin, int64_t end) {
            for (int64_t p = begin; p < end; ++p) {
                const int64_t slot =
                    pending_slot_[static_cast<size_t>(p)];
                if (slot < 0)
                    continue;
                std::memcpy(batch_.data() + static_cast<size_t>(p) * dim,
                            cache_->rowAt(slot), dim * sizeof(float));
            }
        });

    // Forward the pending subset. Rows are independent through the
    // whole net, so scoring the subset equals scoring it inside the
    // full population — which is why cache hits cannot change bits.
    if (fused_) {
        forward_scores_.resize(static_cast<size_t>(pending));
        fused_->predict(batch_.data(), pending, head_task_,
                        forward_scores_.data());
    } else {
        forward_scores_ =
            interpretedForward(batch_, static_cast<int>(pending));
    }
    for (int64_t p = 0; p < pending; ++p) {
        const double score = forward_scores_[static_cast<size_t>(p)];
        scores[static_cast<size_t>(
            pending_state_[static_cast<size_t>(p)])] = score;
        if (pending_slot_[static_cast<size_t>(p)] >= 0)
            cache_->storeScore(pending_slot_[static_cast<size_t>(p)],
                               head_task_, epoch, score);
    }
    return scores;
}

TensetMlpCostModel::TensetMlpCostModel(std::shared_ptr<TensetMlpNet> net)
    : net_(std::move(net))
{
    TLP_CHECK(net_ != nullptr, "null MLP net");
}

std::vector<double>
TensetMlpCostModel::scoreStates(int task_id,
                                const std::vector<sched::State> &states)
{
    if (states.empty())
        return {};
    auto set = featureOnlySet(ansorFeaturesOf(states),
                              static_cast<int>(states.size()),
                              feat::kAnsorFeatureSize);
    return predictMlp(*net_, set, std::min(set.rows, kMaxForwardBatch));
}

AnsorOnlineCostModel::AnsorOnlineCostModel(GbdtOptions options)
    : options_(options), gbdt_(options)
{
}

std::vector<double>
AnsorOnlineCostModel::scoreStates(int task_id,
                                  const std::vector<sched::State> &states)
{
    if (states.empty())
        return {};
    if (!gbdt_.fitted()) {
        // No measurements yet: uninformative scores.
        return std::vector<double>(states.size(), 0.0);
    }
    const auto features = ansorFeaturesOf(states);
    return gbdt_.predict(features, static_cast<int>(states.size()),
                         feat::kAnsorFeatureSize);
}

void
AnsorOnlineCostModel::update(
    int task_id, const std::vector<const sched::State *> &states,
    const std::vector<double> &latency_ms)
{
    TLP_CHECK(states.size() == latency_ms.size(), "update size mismatch");
    const size_t dim = static_cast<size_t>(feat::kAnsorFeatureSize);
    const auto rows = ansorFeaturesOf(states);
    for (size_t i = 0; i < states.size(); ++i) {
        // Refit guard, part 1: a non-finite or non-positive latency
        // (faulted measurement that slipped past the measurer) would
        // poison every future label, and a non-finite feature has no
        // place in the GBDT's sorted split search; drop the record.
        // Latencies are checked as stored, in float.
        const float latency = static_cast<float>(latency_ms[i]);
        const float *row = rows.data() + i * dim;
        if (!std::isfinite(latency) || latency <= 0.0f ||
            !std::all_of(row, row + dim,
                         [](float v) { return std::isfinite(v); }))
            continue;
        features_.insert(features_.end(), row, row + dim);
        latencies_.push_back(latency);
        tasks_.push_back(task_id);
        auto it = task_min_.find(task_id);
        if (it == task_min_.end() || it->second > latency)
            task_min_[task_id] = latency;
        ++rows_;
    }
    if (rows_ == 0)
        return;
    // Retrain from scratch on normalized labels (min_latency / latency).
    std::vector<float> labels(static_cast<size_t>(rows_));
    for (int i = 0; i < rows_; ++i) {
        labels[static_cast<size_t>(i)] =
            task_min_[tasks_[static_cast<size_t>(i)]] /
            latencies_[static_cast<size_t>(i)];
    }
    Gbdt refit(options_);
    refit.fit(features_, rows_, feat::kAnsorFeatureSize, labels);
    // Refit guard, part 2: spot-check the new ensemble on its own
    // training rows; a NaN prediction means the fit degenerated, so keep
    // the previous (healthy) ensemble instead of installing it.
    const int probe_rows = std::min(rows_, 16);
    for (int i = 0; i < probe_rows; ++i) {
        if (!std::isfinite(refit.predictRow(
                features_.data() + static_cast<size_t>(i) * dim))) {
            ++refit_rejections_;
            return;
        }
    }
    gbdt_ = std::move(refit);
}

RandomCostModel::RandomCostModel(uint64_t seed) : rng_(seed) {}

void
RandomCostModel::serializeState(BinaryWriter &writer) const
{
    rng_.serialize(writer);
}

void
RandomCostModel::deserializeState(BinaryReader &reader)
{
    rng_ = Rng::deserialize(reader);
}

std::vector<double>
RandomCostModel::scoreStates(int task_id,
                             const std::vector<sched::State> &states)
{
    std::vector<double> scores(states.size());
    for (auto &score : scores)
        score = rng_.uniform();
    return scores;
}

} // namespace tlp::model
