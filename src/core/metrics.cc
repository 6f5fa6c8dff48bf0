#include "core/metrics.hh"

#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace mcscope {

std::vector<double>
speedups(const std::vector<double> &times, int base_index)
{
    MCSCOPE_ASSERT(base_index >= 0 &&
                       static_cast<size_t>(base_index) < times.size(),
                   "bad base index");
    double base = times[base_index];
    MCSCOPE_ASSERT(base > 0.0, "base time must be positive");
    std::vector<double> out;
    out.reserve(times.size());
    for (double t : times)
        out.push_back(t > 0.0 ? base / t
                              : std::numeric_limits<double>::quiet_NaN());
    return out;
}

double
singleToStarRatio(double single_seconds, double star_seconds)
{
    MCSCOPE_ASSERT(single_seconds > 0.0 && star_seconds > 0.0,
                   "ratio needs positive times");
    return star_seconds / single_seconds;
}

double
placementGain(const std::vector<double> &option_times)
{
    MCSCOPE_ASSERT(!option_times.empty(), "no options");
    double def = option_times.front();
    MCSCOPE_ASSERT(def > 0.0, "default time must be positive");
    double best = def;
    for (double t : option_times) {
        if (!std::isnan(t) && t > 0.0 && t < best)
            best = t;
    }
    return (def - best) / def;
}

} // namespace mcscope
