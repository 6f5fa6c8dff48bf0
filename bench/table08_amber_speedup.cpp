/**
 * @file
 * Table 8: AMBER multi-core speedup (no numactl) for the five
 * Table 6 benchmarks on DMZ and Longs.  GB (compute-bound) scales
 * nearly linearly to 16 cores; PME saturates near 7-8x.
 */

#include <cstdio>

#include "apps/md/amber.hh"
#include "bench_util.hh"
#include "core/metrics.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Table 8 (AMBER multi-core speedup)",
           "Speedup vs one core, Default placement, for dhfr / "
           "factor_ix / gb_cox2 / gb_mb / JAC",
           "near-linear to 4 cores everywhere; at 16 cores GB "
           "reaches ~14x while PME saturates near 7-8x");

    auto benches = amberBenchmarks();

    for (auto cfg_fn : {dmzConfig, longsConfig}) {
        MachineConfig cfg = cfg_fn();
        std::vector<int> ranks;
        for (int r = 2; r <= cfg.totalCores(); r *= 2)
            ranks.push_back(r);

        std::printf("%s:\n  %-7s", cfg.name.c_str(), "cores");
        for (const auto &b : benches)
            std::printf("  %-9s", b.name.c_str());
        std::printf("\n");

        std::vector<std::vector<double>> speed(ranks.size());
        for (const auto &b : benches) {
            std::vector<int> all = {1};
            all.insert(all.end(), ranks.begin(), ranks.end());
            auto t = defaultScalingTimes(cfg, all,
                                         "amber-" + toLower(b.name));
            for (size_t i = 0; i < ranks.size(); ++i)
                speed[i].push_back(t[0] / t[i + 1]);
        }
        for (size_t i = 0; i < ranks.size(); ++i) {
            std::printf("  %-7d", ranks[i]);
            for (double s : speed[i])
                std::printf("  %-9.2f", s);
            std::printf("\n");
        }
        std::printf("\n");
    }

    auto t_gb = defaultScalingTimes(longsConfig(), {1, 16}, "amber-gb_mb");
    auto t_pme = defaultScalingTimes(longsConfig(), {1, 16}, "amber-jac");
    observe("gb_mb speedup at 16 (paper: 14.93)",
            formatFixed(t_gb[0] / t_gb[1], 2));
    observe("JAC speedup at 16 (paper: 7.97)",
            formatFixed(t_pme[0] / t_pme[1], 2));
    return 0;
}
