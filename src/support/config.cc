#include "support/config.h"

#include <algorithm>
#include <cstdlib>

namespace tlp {

double
envOr(const std::string &name, double fallback)
{
    const char *value = std::getenv(name.c_str());
    if (!value)
        return fallback;
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value)
        return fallback;
    return parsed;
}

double
benchScale()
{
    const double scale = envOr("TLP_BENCH_SCALE", 1.0);
    return std::clamp(scale, 0.05, 1000.0);
}

int64_t
scaledCount(int64_t base, int64_t floor)
{
    const double scaled = static_cast<double>(base) * benchScale();
    return std::max<int64_t>(floor, static_cast<int64_t>(scaled));
}

} // namespace tlp
