/**
 * @file
 * Table 10: LAMMPS multi-core speedup (no numactl) for the LJ,
 * chain, and EAM benchmarks on DMZ, Longs, and Tiger.  Chain's tiny
 * per-rank working set drops into L2 and the benchmark goes
 * super-linear (19.95x at 16 in the paper).
 */

#include <cstdio>

#include "apps/md/lammps.hh"
#include "bench_util.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Table 10 (LAMMPS multi-core speedup)",
           "Speedup vs one core for LJ / chain / EAM (32,000 atoms, "
           "100 steps)",
           "chain super-linear (cache capacity); ordering at 16 "
           "cores: chain > eam > lj");

    auto benches = lammpsBenchmarks();

    for (auto cfg_fn : {dmzConfig, longsConfig, tigerConfig}) {
        MachineConfig cfg = cfg_fn();
        std::vector<int> ranks;
        for (int r = 2; r <= cfg.totalCores(); r *= 2)
            ranks.push_back(r);

        std::printf("%s:\n  %-7s", cfg.name.c_str(), "cores");
        for (const auto &b : benches)
            std::printf("  %-8s", b.name.c_str());
        std::printf("\n");
        std::vector<std::vector<double>> speed(ranks.size());
        for (const auto &b : benches) {
            std::vector<int> all = {1};
            all.insert(all.end(), ranks.begin(), ranks.end());
            auto t = defaultScalingTimes(cfg, all, "lammps-" + b.name);
            for (size_t i = 0; i < ranks.size(); ++i)
                speed[i].push_back(t[0] / t[i + 1]);
        }
        for (size_t i = 0; i < ranks.size(); ++i) {
            std::printf("  %-7d", ranks[i]);
            for (double s : speed[i])
                std::printf("  %-8.2f", s);
            std::printf("\n");
        }
        std::printf("\n");
    }

    auto t = defaultScalingTimes(longsConfig(), {1, 16}, "lammps-chain");
    observe("chain speedup at 16 on Longs (paper: 19.95, "
            "super-linear)",
            formatFixed(t[0] / t[1], 2));
    return 0;
}
