#include "support/rng.h"

#include <cmath>

namespace tlp {

namespace {

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
mix64(uint64_t key)
{
    return splitmix64(key);
}

double
hashUniform(uint64_t key)
{
    return static_cast<double>(mix64(key) >> 11) * 0x1.0p-53;
}

uint64_t
hashCombine(uint64_t a, uint64_t b)
{
    uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
    return splitmix64(s);
}

uint64_t
fnv1a(const void *data, size_t size, uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    uint64_t hash = seed;
    for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : state_)
        word = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::randint(int64_t n)
{
    TLP_CHECK(n > 0, "randint bound must be positive, got ", n);
    // Rejection sampling to avoid modulo bias.
    const uint64_t bound = static_cast<uint64_t>(n);
    const uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
    uint64_t value;
    do {
        value = next();
    } while (value >= limit);
    return static_cast<int64_t>(value % bound);
}

int64_t
Rng::randint(int64_t lo, int64_t hi)
{
    TLP_CHECK(lo <= hi, "randint range is empty: [", lo, ", ", hi, "]");
    return lo + randint(hi - lo + 1);
}

double
Rng::normal()
{
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    double u1 = 0.0;
    while (u1 <= 1e-300)
        u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cached_normal_ = radius * std::sin(angle);
    has_cached_normal_ = true;
    return radius * std::cos(angle);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

size_t
Rng::weightedIndex(const std::vector<double> &weights)
{
    TLP_CHECK(!weights.empty(), "weightedIndex with empty weights");
    double total = 0.0;
    for (double w : weights) {
        TLP_CHECK(w >= 0.0, "negative weight ", w);
        total += w;
    }
    if (total <= 0.0)
        return static_cast<size_t>(randint(weights.size()));
    double target = uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target <= 0.0)
            return i;
    }
    return weights.size() - 1;
}

void
Rng::serialize(BinaryWriter &writer) const
{
    for (uint64_t word : state_)
        writer.writePod(word);
    writer.writePod<uint8_t>(has_cached_normal_ ? 1 : 0);
    writer.writePod(cached_normal_);
}

Rng
Rng::deserialize(BinaryReader &reader)
{
    Rng rng;
    for (auto &word : rng.state_)
        word = reader.readPod<uint64_t>();
    rng.has_cached_normal_ = reader.readPod<uint8_t>() != 0;
    rng.cached_normal_ = reader.readPod<double>();
    return rng;
}

} // namespace tlp
