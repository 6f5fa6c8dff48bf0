/**
 * @file
 * Extension experiment: the full NPB kernel subset (CG, FT, EP, MG,
 * IS) side by side on every machine.  The paper ran CG and FT; the
 * extended set spans the behaviour space -- EP is the pure-compute
 * control, MG adds the shrinking-message pyramid, IS the all-to-all
 * integer shuffle -- and shows which machine property each kernel
 * keys on.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Extension (full NPB kernel subset)",
           "Parallel efficiency vs one core for CG / FT / EP / MG / "
           "IS, Default placement",
           "EP ~1.0 everywhere; MG tracks FT; IS worst (all-to-all); "
           "CG collapses only on the 8-socket ladder");

    const char *kernels[] = {"nas-cg-b", "nas-ft-b", "nas-ep-b",
                             "nas-mg-b", "nas-is-b"};

    for (auto cfg_fn : {dmzConfig, longsConfig}) {
        MachineConfig cfg = cfg_fn();
        std::vector<int> all = {1};
        for (int r = 2; r <= cfg.totalCores(); r *= 2)
            all.push_back(r);

        std::printf("%s (efficiency = speedup / cores):\n  %-7s",
                    cfg.name.c_str(), "cores");
        for (const char *k : kernels)
            std::printf("  %-9s", k + 4);
        std::printf("\n");

        std::vector<std::vector<double>> eff(all.size() - 1);
        for (const char *k : kernels) {
            auto t = defaultScalingTimes(cfg, all, k);
            for (size_t i = 1; i < all.size(); ++i)
                eff[i - 1].push_back(t[0] / t[i] / all[i]);
        }
        for (size_t i = 1; i < all.size(); ++i) {
            std::printf("  %-7d", all[i]);
            for (double v : eff[i - 1])
                std::printf("  %-9.2f", v);
            std::printf("\n");
        }
        std::printf("\n");
    }

    auto t_ep = defaultScalingTimes(longsConfig(), {1, 16}, "nas-ep-b");
    auto t_is = defaultScalingTimes(longsConfig(), {1, 16}, "nas-is-b");
    observe("EP efficiency at 16 on Longs (control: near 1.0)",
            formatFixed(t_ep[0] / t_ep[1] / 16.0, 2));
    observe("IS efficiency at 16 on Longs (all-to-all bound)",
            formatFixed(t_is[0] / t_is[1] / 16.0, 2));
    return 0;
}
