/**
 * @file
 * Gradient-boosted regression trees (the Ansor online model).
 *
 * Ansor's online cost model is an XGBoost regressor over its
 * hand-engineered features, retrained on the records measured so far in
 * the current tuning session. This is a from-scratch equivalent: squared
 * error boosting with exact greedy splits.
 *
 * Split search is presorted: every feature column is sorted once per
 * fit by (value, sample), and each split stable-partitions the columns
 * into its children, so every node sees its samples in exactly the
 * order a per-node sort would give. Features are scanned in parallel on
 * ThreadPool::global() and reduced in ascending feature order, so the
 * trees are the same bits at any thread count.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace tlp::model {

/** Trees per fit. */
inline constexpr int kGbdtTrees = 30;
/** Shrinkage applied to every leaf. */
inline constexpr double kGbdtLearningRate = 0.3;
/** A split must gain more than this to be taken. */
inline constexpr double kGbdtMinGain = 1e-7;

/** Tree-shape hyper-parameters. */
struct GbdtOptions
{
    int max_depth = 5;
    int min_samples_leaf = 4;
};

/** The boosted-tree ensemble. */
class Gbdt
{
  public:
    explicit Gbdt(GbdtOptions options = {});

    /**
     * Fit to rows x dim features and targets (squared error). Every
     * feature and target must be finite: a NaN has no place in the
     * sorted order split search relies on.
     */
    void fit(const std::vector<float> &features, int rows, int dim,
             const std::vector<float> &targets);

    /** Predict one row. */
    double predictRow(const float *row) const;

    /** Predict all rows. */
    std::vector<double> predict(const std::vector<float> &features,
                                int rows, int dim) const;

    /** True after a successful fit. */
    bool fitted() const { return !trees_.empty(); }

  private:
    struct TreeNode
    {
        int feature = -1;         ///< -1 = leaf
        float threshold = 0.0f;
        float value = 0.0f;       ///< leaf prediction
        int left = -1, right = -1;
    };
    using Tree = std::vector<TreeNode>;
    struct FitScratch;   ///< buffers that live for one fit() call

    /** True if a node of @p count samples at @p depth may split. */
    bool canSplit(int count, int depth) const;

    int buildNode(Tree &tree, FitScratch &fit, int begin, int end,
                  int depth);

    GbdtOptions options_;
    double base_ = 0.0;
    std::vector<Tree> trees_;
    int dim_ = 0;
};

} // namespace tlp::model
