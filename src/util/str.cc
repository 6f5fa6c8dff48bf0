#include "util/str.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace mcscope {

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == delim) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
trim(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
toLower(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::ostringstream oss;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            oss << sep;
        oss << parts[i];
    }
    return oss.str();
}

std::string
formatFixed(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
formatBytes(double bytes)
{
    static const char *units[] = {"B", "KB", "MB", "GB"};
    int u = 0;
    while (bytes >= 1024.0 && u < 3) {
        bytes /= 1024.0;
        ++u;
    }
    char buf[64];
    if (bytes == static_cast<long long>(bytes)) {
        std::snprintf(buf, sizeof(buf), "%lld%s",
                      static_cast<long long>(bytes), units[u]);
    } else {
        std::snprintf(buf, sizeof(buf), "%.1f%s", bytes, units[u]);
    }
    return buf;
}

size_t
editDistance(const std::string &a, const std::string &b)
{
    // Two-row Wagner-Fischer; names are short so O(|a|*|b|) is fine.
    std::vector<size_t> prev(b.size() + 1);
    std::vector<size_t> cur(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

std::string
closestMatch(const std::string &name,
             const std::vector<std::string> &candidates,
             size_t max_distance)
{
    std::string want = toLower(name);
    std::string best;
    size_t best_distance = max_distance + 1;
    for (const std::string &c : candidates) {
        size_t d = editDistance(want, toLower(c));
        if (d < best_distance) {
            best_distance = d;
            best = c;
        }
    }
    return best;
}

} // namespace mcscope
