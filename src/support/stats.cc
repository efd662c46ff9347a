#include "support/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "support/logging.h"

namespace tlp {

void
IntHistogram::add(int64_t key)
{
    auto it = std::lower_bound(
        bins_.begin(), bins_.end(), key,
        [](const auto &bin, int64_t k) { return bin.first < k; });
    if (it != bins_.end() && it->first == key) {
        ++it->second;
    } else {
        bins_.insert(it, {key, 1});
    }
    ++total_;
}

uint64_t
IntHistogram::countOf(int64_t key) const
{
    auto it = std::lower_bound(
        bins_.begin(), bins_.end(), key,
        [](const auto &bin, int64_t k) { return bin.first < k; });
    if (it != bins_.end() && it->first == key)
        return it->second;
    return 0;
}

int64_t
IntHistogram::minKey() const
{
    return bins_.empty() ? 0 : bins_.front().first;
}

int64_t
IntHistogram::maxKey() const
{
    return bins_.empty() ? 0 : bins_.back().first;
}

int64_t
IntHistogram::modeKey() const
{
    int64_t best_key = 0;
    uint64_t best_count = 0;
    for (const auto &[key, count] : bins_) {
        if (count > best_count) {
            best_count = count;
            best_key = key;
        }
    }
    return best_key;
}

std::vector<std::pair<int64_t, uint64_t>>
IntHistogram::sorted() const
{
    return bins_;
}

std::string
IntHistogram::render(int width) const
{
    std::ostringstream os;
    uint64_t peak = 0;
    for (const auto &[key, count] : bins_)
        peak = std::max(peak, count);
    for (const auto &[key, count] : bins_) {
        const int bar =
            peak == 0 ? 0
                      : static_cast<int>(static_cast<double>(count) /
                                         static_cast<double>(peak) * width);
        os << "  " << key << "\t" << count << "\t";
        for (int i = 0; i < bar; ++i)
            os << '#';
        os << '\n';
    }
    return os.str();
}

double
pearson(const std::vector<double> &xs, const std::vector<double> &ys)
{
    TLP_CHECK(xs.size() == ys.size(), "pearson: size mismatch");
    const size_t n = xs.size();
    if (n < 2)
        return 0.0;
    const double mx = std::accumulate(xs.begin(), xs.end(), 0.0) /
                      static_cast<double>(n);
    const double my = std::accumulate(ys.begin(), ys.end(), 0.0) /
                      static_cast<double>(n);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

namespace {

std::vector<double>
ranks(const std::vector<double> &values)
{
    const size_t n = values.size();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return values[a] < values[b]; });
    std::vector<double> rank(n, 0.0);
    size_t i = 0;
    while (i < n) {
        size_t j = i;
        while (j + 1 < n && values[order[j + 1]] == values[order[i]])
            ++j;
        // Average rank over the tie group.
        const double r = (static_cast<double>(i) + static_cast<double>(j)) /
                         2.0;
        for (size_t k = i; k <= j; ++k)
            rank[order[k]] = r;
        i = j + 1;
    }
    return rank;
}

} // namespace

double
spearman(const std::vector<double> &xs, const std::vector<double> &ys)
{
    TLP_CHECK(xs.size() == ys.size(), "spearman: size mismatch");
    return pearson(ranks(xs), ranks(ys));
}

} // namespace tlp
