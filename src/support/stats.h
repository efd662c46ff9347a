/**
 * @file
 * An integer-key histogram and series correlations.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tlp {

/** Histogram over integer keys (e.g., sequence lengths). */
class IntHistogram
{
  public:
    /** Count one occurrence of @p key. */
    void add(int64_t key);

    /** Number of occurrences of @p key. */
    uint64_t countOf(int64_t key) const;

    /** Total observations. */
    uint64_t total() const { return total_; }

    /** Smallest observed key (0 when empty). */
    int64_t minKey() const;

    /** Largest observed key (0 when empty). */
    int64_t maxKey() const;

    /** Key with the highest count (ties broken toward smaller keys). */
    int64_t modeKey() const;

    /** All (key, count) pairs in ascending key order. */
    std::vector<std::pair<int64_t, uint64_t>> sorted() const;

    /** ASCII bar-chart rendering, @p width columns for the tallest bar. */
    std::string render(int width = 50) const;

  private:
    std::vector<std::pair<int64_t, uint64_t>> &mutableBins();

    std::vector<std::pair<int64_t, uint64_t>> bins_;
    uint64_t total_ = 0;
};

/** Pearson correlation of two equally sized series. */
double pearson(const std::vector<double> &xs, const std::vector<double> &ys);

/** Spearman rank correlation of two equally sized series. */
double spearman(const std::vector<double> &xs, const std::vector<double> &ys);

} // namespace tlp
