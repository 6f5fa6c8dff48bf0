/**
 * @file
 * Table 12: POP multi-core speedup (x1 configuration) for the
 * baroclinic and barotropic phases on DMZ, Tiger, and Longs.  Both
 * phases scale almost linearly at this coarse resolution.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Table 12 (POP multi-core speedup)",
           "Speedup vs one core for the baroclinic and barotropic "
           "phases (x1, 50 steps)",
           "both phases near-linear on every system (paper: 16.11 / "
           "14.85 at 16 on Longs)");

    std::printf("  %-7s %-7s %-12s %-12s\n", "cores", "system",
                "Baroclinic", "Barotropic");
    for (auto cfg_fn : {dmzConfig, tigerConfig, longsConfig}) {
        MachineConfig cfg = cfg_fn();
        std::vector<int> all = {1};
        for (int r = 2; r <= cfg.totalCores(); r *= 2)
            all.push_back(r);
        auto t_bc =
            defaultScalingTimes(cfg, all, "pop-x1", tags::kBaroclinic);
        auto t_bt =
            defaultScalingTimes(cfg, all, "pop-x1", tags::kBarotropic);
        for (size_t i = 1; i < all.size(); ++i) {
            std::printf("  %-7d %-7s %-12.2f %-12.2f\n", all[i],
                        cfg.name.c_str(), t_bc[0] / t_bc[i],
                        t_bt[0] / t_bt[i]);
        }
    }

    auto t_bc = defaultScalingTimes(longsConfig(), {1, 16}, "pop-x1",
                                    tags::kBaroclinic);
    std::printf("\n");
    observe("baroclinic speedup at 16 on Longs (paper: 16.11)",
            formatFixed(t_bc[0] / t_bc[1], 2));
    return 0;
}
