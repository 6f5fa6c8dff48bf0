/**
 * @file
 * Table 4: NAS CG/FT multi-core scaling on DMZ, Longs, and Tiger,
 * reported as parallel efficiency relative to one core (the paper's
 * "multi-core speedup" column).  CG's efficiency collapses on the
 * Longs HT ladder; FT degrades but keeps improving.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/metrics.hh"

using namespace mcscope;
using namespace mcscope::bench;

namespace {

void
row(const char *kernel, const std::string &workload,
    const MachineConfig &cfg)
{
    std::vector<int> ranks;
    for (int r = 2; r <= cfg.totalCores(); r *= 2)
        ranks.push_back(r);
    std::vector<int> all = {1};
    all.insert(all.end(), ranks.begin(), ranks.end());
    std::vector<double> t = defaultScalingTimes(cfg, all, workload);
    std::vector<double> eff = efficiencies(t, all);
    std::printf("  %-4s %-6s", kernel, cfg.name.c_str());
    for (size_t i = 1; i < all.size(); ++i)
        std::printf("  %2d:%5.2f", all[i], eff[i]);
    std::printf("\n");
}

} // namespace

int
main()
{
    banner("Table 4 (NAS multi-core speedup)",
           "Parallel efficiency (speedup / cores) for NAS CG and FT, "
           "relative to one core",
           "efficiency falls with cores; CG collapses hardest on "
           "Longs (paper: 0.25 at 16); Tiger/DMZ comparable at 2");

    std::printf("  %-4s %-6s  (cores:efficiency)\n", "krnl", "system");
    for (auto cfg_fn : {dmzConfig, longsConfig, tigerConfig})
        row("CG", "nas-cg-b", cfg_fn());
    for (auto cfg_fn : {dmzConfig, longsConfig, tigerConfig})
        row("FT", "nas-ft-b", cfg_fn());

    auto t_cg = defaultScalingTimes(longsConfig(), {1, 8, 16}, "nas-cg-b");
    auto t_ft = defaultScalingTimes(longsConfig(), {1, 8, 16}, "nas-ft-b");
    std::printf("\n");
    observe("CG Longs 16-task efficiency (paper: 0.25)",
            formatFixed(t_cg[0] / t_cg[2] / 16.0, 2));
    observe("FT Longs 16-task efficiency (paper: 0.42)",
            formatFixed(t_ft[0] / t_ft[2] / 16.0, 2));
    observe("CG 8->16 speedup on Longs (paper: < 1, negative "
            "scaling)",
            formatFixed(t_cg[1] / t_cg[2], 2));
    return 0;
}
