/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (schedule sampling, measurement
 * noise, network initialization, data shuffling) draw from explicitly
 * seeded Rng instances so that every experiment is reproducible bit-for-bit
 * across runs and platforms. The core generator is xoshiro256**, seeded via
 * splitmix64.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "support/logging.h"
#include "support/serialize.h"

namespace tlp {

/** xoshiro256** generator with convenience sampling helpers. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); @p n must be positive. */
    int64_t randint(int64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t randint(int64_t lo, int64_t hi);

    /** Standard normal sample (Box-Muller). */
    double normal();

    /** Normal sample with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli draw with probability @p p of returning true. */
    bool bernoulli(double p);

    /** Pick a uniformly random element of @p items. */
    template <typename T>
    const T &
    choice(const std::vector<T> &items)
    {
        TLP_CHECK(!items.empty(), "choice from empty vector");
        return items[static_cast<size_t>(randint(items.size()))];
    }

    /** Sample an index according to non-negative weights. */
    size_t weightedIndex(const std::vector<double> &weights);

    /** Fisher-Yates shuffle in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(randint(i));
            std::swap(items[i - 1], items[j]);
        }
    }

    /**
     * Persist the exact generator state (for checkpoint/resume). A
     * deserialized Rng continues the stream bit-identically.
     */
    void serialize(BinaryWriter &writer) const;
    static Rng deserialize(BinaryReader &reader);

  private:
    uint64_t state_[4];
    bool has_cached_normal_ = false;
    double cached_normal_ = 0.0;
};

/** splitmix64 step, exposed for hashing uses. */
uint64_t splitmix64(uint64_t &state);

/** splitmix64 finalizer of @p key (one splitmix64 step on a copy). */
uint64_t mix64(uint64_t key);

/** Keyed uniform draw in [0, 1): the top 53 bits of mix64(@p key). */
double hashUniform(uint64_t key);

/** Mix two 64-bit values into one (for deterministic per-key noise). */
uint64_t hashCombine(uint64_t a, uint64_t b);

/** FNV-1a hash of a byte range. */
uint64_t fnv1a(const void *data, size_t size, uint64_t seed = 1469598103934665603ull);

} // namespace tlp
