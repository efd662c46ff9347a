#include "models/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "support/logging.h"
#include "support/thread_pool.h"

namespace tlp::model {

namespace {

/**
 * One presorted column entry. Sorting by (value, sample) breaks value
 * ties by sample index, so every sample set has exactly one sorted
 * order.
 */
using Entry = std::pair<float, int>;

/**
 * Split search at a node with at most this many column entries
 * (samples x features) runs on the calling thread, where a pool round
 * trip would cost more than the scan; larger nodes fan out over
 * features.
 */
constexpr int64_t kSerialEntries = 16384;

/**
 * parallelFor grain over features for columns of @p count entries: the
 * features form one chunk whenever count x features <= kSerialEntries.
 */
int64_t
featureGrain(int count)
{
    return std::max<int64_t>(1, kSerialEntries / std::max(1, count));
}

/** The best split found in one feature column of one node. */
struct SplitCandidate
{
    double gain = 0.0;
    float threshold = 0.0f;
};

/**
 * Exact greedy scan of one sorted column of @p count entries whose
 * residuals add up to @p sum: the first split with the largest gain
 * above kGbdtMinGain, or a gain of exactly kGbdtMinGain if none is.
 */
SplitCandidate
scanColumn(const Entry *order, int count, double sum,
           const std::vector<float> &residuals, const GbdtOptions &options)
{
    SplitCandidate best{kGbdtMinGain, 0.0f};
    if (order[0].first == order[count - 1].first)
        return best;   // constant feature
    // Minimize total SSE = maximize the sum^2/n terms.
    const double parent_score = sum * sum / count;
    double left_sum = 0.0;
    for (int i = 0; i + 1 < count; ++i) {
        left_sum += residuals[static_cast<size_t>(order[i].second)];
        const int left_n = i + 1;
        const int right_n = count - left_n;
        if (left_n < options.min_samples_leaf ||
            right_n < options.min_samples_leaf) {
            continue;
        }
        const float here = order[i].first;
        const float next = order[i + 1].first;
        if (here == next)
            continue;   // cannot split between equal values
        const double right_sum = sum - left_sum;
        const double gain = left_sum * left_sum / left_n +
                            right_sum * right_sum / right_n -
                            parent_score;
        if (gain > best.gain)
            best = {gain, 0.5f * (here + next)};
    }
    return best;
}

/**
 * Stable-partition @p count entries of @p from into @p to, which must
 * not overlap it: the @p left_count samples marked in @p goes_left
 * first, then the rest, each in their old order.
 */
void
partitionColumn(const Entry *from, Entry *to, int count, int left_count,
                const std::vector<unsigned char> &goes_left)
{
    Entry *left = to;
    Entry *right = to + left_count;
    for (int i = 0; i < count; ++i) {
        const Entry entry = from[i];
        const bool is_left =
            goes_left[static_cast<size_t>(entry.second)] != 0;
        *(is_left ? left : right) = entry;
        left += is_left;
        right += !is_left;
    }
}

} // namespace

struct Gbdt::FitScratch
{
    FitScratch(const std::vector<float> &features, int rows, int dim,
               std::vector<int> live)
        : features(features), rows(rows), dim(dim), live(std::move(live)),
          samples(static_cast<size_t>(rows)),
          presorted(static_cast<size_t>(rows) * this->live.size()),
          columns{presorted, presorted}, goes_left(samples.size()),
          best(this->live.size())
    {
    }

    const std::vector<float> &features;
    int rows;
    int dim;
    /** The features that are not constant over all rows, ascending:
     *  a constant one can never split, so it is never sorted. */
    std::vector<int> live;
    std::vector<float> residuals;
    std::vector<int> samples;      ///< node segments, in sum order
    /** One column of rows entries per live feature, sorted once. */
    std::vector<Entry> presorted;
    /** The same columns, partitioned into the current tree's nodes: a
     *  node at depth d reads presorted (root) or columns[(d - 1) % 2]
     *  and writes its children's segments into columns[d % 2], so it
     *  never writes the segment it reads. */
    std::vector<Entry> columns[2];
    std::vector<unsigned char> goes_left;   ///< per sample, at a split
    std::vector<SplitCandidate> best;       ///< per live column, at a node
};

Gbdt::Gbdt(GbdtOptions options) : options_(options) {}

bool
Gbdt::canSplit(int count, int depth) const
{
    return depth < options_.max_depth &&
           count >= 2 * options_.min_samples_leaf;
}

int
Gbdt::buildNode(Tree &tree, FitScratch &fit, int begin, int end, int depth)
{
    const int count = end - begin;
    double sum = 0.0;
    for (int i = begin; i < end; ++i)
        sum += fit.residuals[static_cast<size_t>(
            fit.samples[static_cast<size_t>(i)])];
    const double mean = sum / std::max(1, count);

    TreeNode node;
    node.value = static_cast<float>(mean);
    const int node_index = static_cast<int>(tree.size());
    tree.push_back(node);

    if (!canSplit(count, depth))
        return node_index;

    // Exact greedy split, one column per live feature, read from this
    // node's segment of its source buffer.
    const size_t rows = static_cast<size_t>(fit.rows);
    const int64_t live_count = static_cast<int64_t>(fit.live.size());
    const std::vector<Entry> &from =
        depth == 0 ? fit.presorted : fit.columns[(depth - 1) % 2];
    const Entry *source = from.data() + begin;
    ThreadPool::global().parallelFor(
        0, live_count, featureGrain(count),
        [&](int64_t c_begin, int64_t c_end) {
            for (int64_t c = c_begin; c < c_end; ++c) {
                fit.best[static_cast<size_t>(c)] = scanColumn(
                    source + static_cast<size_t>(c) * rows, count, sum,
                    fit.residuals, options_);
            }
        });
    // Ascending feature order with a strict '>': the first feature to
    // reach the best gain wins, exactly as in one serial scan. A
    // constant feature's gain is exactly kGbdtMinGain, so skipping it
    // changes no winner.
    double best_gain = kGbdtMinGain;
    int best_feature = -1;
    float best_threshold = 0.0f;
    for (size_t c = 0; c < fit.live.size(); ++c) {
        if (fit.best[c].gain > best_gain) {
            best_gain = fit.best[c].gain;
            best_feature = fit.live[c];
            best_threshold = fit.best[c].threshold;
        }
    }

    if (best_feature < 0)
        return node_index;

    // Partition samples in place.
    const size_t dim = static_cast<size_t>(fit.dim);
    const auto middle = std::partition(
        fit.samples.begin() + begin, fit.samples.begin() + end,
        [&](int sample) {
            return fit.features[static_cast<size_t>(sample) * dim +
                                static_cast<size_t>(best_feature)] <=
                   best_threshold;
        });
    const int split = static_cast<int>(middle - fit.samples.begin());
    if (split == begin || split == end)
        return node_index;   // degenerate partition

    // Stable-partition every column segment into the children, so each
    // child's segment stays in (value, sample) order. Skipped when
    // neither child will search for a split.
    const int left_count = split - begin;
    if (canSplit(left_count, depth + 1) ||
        canSplit(end - split, depth + 1)) {
        for (int i = begin; i < end; ++i)
            fit.goes_left[static_cast<size_t>(
                fit.samples[static_cast<size_t>(i)])] = i < split;
        Entry *target = fit.columns[depth % 2].data() + begin;
        ThreadPool::global().parallelFor(
            0, live_count, featureGrain(count),
            [&](int64_t c_begin, int64_t c_end) {
                for (int64_t c = c_begin; c < c_end; ++c) {
                    const size_t offset = static_cast<size_t>(c) * rows;
                    partitionColumn(source + offset, target + offset,
                                    count, left_count, fit.goes_left);
                }
            });
    }

    tree[static_cast<size_t>(node_index)].feature = best_feature;
    tree[static_cast<size_t>(node_index)].threshold = best_threshold;
    const int left = buildNode(tree, fit, begin, split, depth + 1);
    const int right = buildNode(tree, fit, split, end, depth + 1);
    tree[static_cast<size_t>(node_index)].left = left;
    tree[static_cast<size_t>(node_index)].right = right;
    return node_index;
}

void
Gbdt::fit(const std::vector<float> &features, int rows, int dim,
          const std::vector<float> &targets)
{
    TLP_CHECK(rows > 0 && dim > 0, "empty training set");
    TLP_CHECK(static_cast<int64_t>(features.size()) ==
                  static_cast<int64_t>(rows) * dim,
              "feature matrix shape mismatch");
    TLP_CHECK(static_cast<int>(targets.size()) == rows,
              "target size mismatch");
    const auto finite = [](float v) { return std::isfinite(v); };
    TLP_CHECK(std::all_of(features.begin(), features.end(), finite) &&
                  std::all_of(targets.begin(), targets.end(), finite),
              "GBDT features and targets must be finite");
    trees_.clear();
    dim_ = dim;

    base_ = std::accumulate(targets.begin(), targets.end(), 0.0) / rows;
    // A feature is live if some row differs from the first, by the
    // same '==' scanColumn's constant test uses (0.0f == -0.0f).
    const size_t width = static_cast<size_t>(dim);
    std::vector<int> live;
    for (size_t f = 0; f < width; ++f) {
        for (size_t i = f + width; i < features.size(); i += width) {
            if (features[i] != features[f]) {
                live.push_back(static_cast<int>(f));
                break;
            }
        }
    }
    FitScratch fit(features, rows, dim, std::move(live));
    fit.residuals = targets;
    for (auto &r : fit.residuals)
        r -= static_cast<float>(base_);

    // Presort every live column once; trees only ever partition copies.
    ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(fit.live.size()), featureGrain(rows),
        [&](int64_t c_begin, int64_t c_end) {
            for (int64_t c = c_begin; c < c_end; ++c) {
                Entry *column = fit.presorted.data() +
                                static_cast<size_t>(c) *
                                    static_cast<size_t>(rows);
                const float *value =
                    features.data() +
                    static_cast<size_t>(fit.live[static_cast<size_t>(c)]);
                for (int r = 0; r < rows; ++r)
                    column[r] = {value[static_cast<size_t>(r) * width], r};
                std::sort(column, column + rows);
            }
        });

    for (int t = 0; t < kGbdtTrees; ++t) {
        std::iota(fit.samples.begin(), fit.samples.end(), 0);
        Tree tree;
        buildNode(tree, fit, 0, rows, 0);
        // Shrink leaves and update residuals.
        for (auto &node : tree)
            node.value *= static_cast<float>(kGbdtLearningRate);
        bool any_split = false;
        for (const auto &node : tree)
            any_split |= node.feature >= 0;
        for (int i = 0; i < rows; ++i) {
            const float *row = features.data() +
                               static_cast<size_t>(i) *
                                   static_cast<size_t>(dim);
            int cursor = 0;
            while (tree[static_cast<size_t>(cursor)].feature >= 0) {
                const auto &node = tree[static_cast<size_t>(cursor)];
                cursor = row[node.feature] <= node.threshold ? node.left
                                                             : node.right;
            }
            fit.residuals[static_cast<size_t>(i)] -=
                tree[static_cast<size_t>(cursor)].value;
        }
        trees_.push_back(std::move(tree));
        if (!any_split)
            break;   // nothing left to learn
    }
}

double
Gbdt::predictRow(const float *row) const
{
    double prediction = base_;
    for (const auto &tree : trees_) {
        int cursor = 0;
        while (tree[static_cast<size_t>(cursor)].feature >= 0) {
            const auto &node = tree[static_cast<size_t>(cursor)];
            cursor = row[node.feature] <= node.threshold ? node.left
                                                         : node.right;
        }
        prediction += tree[static_cast<size_t>(cursor)].value;
    }
    return prediction;
}

std::vector<double>
Gbdt::predict(const std::vector<float> &features, int rows, int dim) const
{
    TLP_CHECK(dim == dim_ || trees_.empty(), "feature width mismatch");
    std::vector<double> predictions(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i) {
        predictions[static_cast<size_t>(i)] = predictRow(
            features.data() +
            static_cast<size_t>(i) * static_cast<size_t>(dim));
    }
    return predictions;
}

} // namespace tlp::model
