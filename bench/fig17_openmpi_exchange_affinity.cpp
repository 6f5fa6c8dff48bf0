/**
 * @file
 * Figure 17: OpenMPI Exchange on DMZ under scheduler-affinity
 * configurations (bound / unbound / parked / 4 procs).  The same-die
 * fast path survives the heavier bidirectional pattern.
 */

#include <cstdio>

#include "bench_util.hh"
#include "util/str.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Figure 17 (OpenMPI Exchange with scheduler affinity)",
           "Exchange on DMZ: bound to one socket, unbound, unbound + "
           "parked, and the 4-process variant",
           "bound-to-socket keeps the same-die advantage; four "
           "processes halve per-pair bandwidth");

    NumactlOption bound = {"bound", TaskScheme::Packed,
                           MemPolicy::LocalAlloc};
    NumactlOption unbound = {"unbound", TaskScheme::OsDefault,
                             MemPolicy::Default};

    auto exchangeTime = [](const NumactlOption &opt, int ranks,
                           double noise, double bytes, int iters) {
        return exchangeSeconds(dmzConfig(), opt, ranks, MpiImpl::OpenMpi,
                               SubLayer::USysV, noise, bytes, iters);
    };
    std::printf("%-10s  %-12s %-12s %-12s %-12s   [us/iter]\n",
                "size", "bound 0", "unbound", "unb+parked",
                "4 procs");
    for (double bytes = 64.0; bytes <= 4.0 * 1024 * 1024;
         bytes *= 16.0) {
        double t_b = exchangeTime(bound, 2, 1.0, bytes, 50);
        double t_u = exchangeTime(unbound, 2, 1.15, bytes, 50);
        double t_p = exchangeTime(unbound, 2, 1.30, bytes, 50);
        double t_4 = exchangeTime(bound, 4, 1.0, bytes, 50);
        std::printf("%-10s  %-12.2f %-12.2f %-12.2f %-12.2f\n",
                    formatBytes(bytes).c_str(), t_b * 1e6, t_u * 1e6,
                    t_p * 1e6, t_4 * 1e6);
    }

    double t_b = exchangeTime(bound, 2, 1.0, 1 << 20, 30);
    double t_u = exchangeTime(unbound, 2, 1.15, 1 << 20, 30);
    std::printf("\n");
    observe("bound vs unbound 1MB exchange advantage",
            formatFixed((t_u / t_b - 1.0) * 100.0, 1) + "%");
    return 0;
}
