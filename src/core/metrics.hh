/**
 * @file
 * Derived performance metrics: speedups and the Single/Star ratios
 * the paper builds its arguments on.
 */

#ifndef MCSCOPE_CORE_METRICS_HH
#define MCSCOPE_CORE_METRICS_HH

#include <vector>

namespace mcscope {

/**
 * Speedups relative to the base entry: speedup[i] = t[base] / t[i].
 * No scaling assumptions are baked in; a non-positive t[i] yields
 * NaN.  The base time must be positive.
 */
std::vector<double> speedups(const std::vector<double> &times,
                             int base_index = 0);

/**
 * HPCC Single:Star ratio.  Star-mode per-rank time divided by
 * single-mode time: > 1 means concurrent copies slow each other, and
 * a ratio above the per-socket core count means engaging extra cores
 * is a net per-socket loss (the paper's STREAM observation).
 */
double singleToStarRatio(double single_seconds, double star_seconds);

/**
 * Best-over-options improvement versus the default option, as a
 * fraction (0.25 = best option is 25% faster than default).
 */
double placementGain(const std::vector<double> &option_times);

} // namespace mcscope

#endif // MCSCOPE_CORE_METRICS_HH
