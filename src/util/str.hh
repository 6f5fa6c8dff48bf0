/**
 * @file
 * Small string helpers shared across mcscope.
 */

#ifndef MCSCOPE_UTIL_STR_HH
#define MCSCOPE_UTIL_STR_HH

#include <string>
#include <vector>

namespace mcscope {

/** Split `s` on a single-character delimiter; empty fields preserved. */
std::vector<std::string> split(const std::string &s, char delim);

/** Strip leading/trailing ASCII whitespace. */
std::string trim(const std::string &s);

/** Lower-case an ASCII string. */
std::string toLower(const std::string &s);

/** Join strings with a separator. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Format a double with fixed precision into a compact string. */
std::string formatFixed(double value, int precision);

/**
 * Format a byte count in human units (B, KB, MB, GB) using powers of
 * 1024, as message-size axes in the paper's figures do.
 */
std::string formatBytes(double bytes);

/**
 * Levenshtein edit distance (insert/delete/substitute, unit costs).
 * Used for nearest-name suggestions on unknown workload or machine
 * names.
 */
size_t editDistance(const std::string &a, const std::string &b);

/**
 * The candidate closest to `name` by case-insensitive edit distance,
 * or an empty string when nothing is within `max_distance` (so a
 * wild typo does not produce a nonsense suggestion).
 */
std::string closestMatch(const std::string &name,
                         const std::vector<std::string> &candidates,
                         size_t max_distance = 5);

} // namespace mcscope

#endif // MCSCOPE_UTIL_STR_HH
