/**
 * @file
 * Figure 4: BLAS-1 DAXPY performance with the vendor (ACML) library
 * on DMZ -- total and per-core GFlop/s across vector lengths for 1-4
 * cores.  In cache every core contributes; out of cache the socket's
 * memory link is the ceiling.
 */

#include <cstdio>
#include <map>

#include "bench_util.hh"
#include "kernels/blas1.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Figure 4 (DAXPY, ACML)",
           "DAXPY total and per-core GFlop/s vs vector length on DMZ",
           "cache-resident sizes scale with cores; large sizes "
           "collapse onto the per-socket memory bandwidth ceiling");

    MachineConfig dmz = dmzConfig();
    std::printf("%-10s", "n");
    for (int ranks : {1, 2, 4})
        std::printf("  total(%d)  per-core(%d)", ranks, ranks);
    std::printf("   [GFlop/s]\n");

    const size_t small = size_t(16) << 10, large = size_t(8) << 20;
    std::map<std::pair<size_t, int>, double> seconds;
    for (size_t n : {small, size_t(128) << 10, size_t(1) << 20, large}) {
        int iters = n <= (size_t(128) << 10) ? 400 : 20;
        DaxpyWorkload daxpy(n, iters, BlasVariant::Acml);
        std::printf("%-10zu", n);
        for (int ranks : {1, 2, 4}) {
            RunResult r = run(dmz, pinnedPacked(), ranks, daxpy);
            seconds[{n, ranks}] = r.seconds;
            double gf = daxpy.flopsPerIteration() * iters * ranks /
                        r.seconds / 1e9;
            std::printf("  %8.2f  %11.2f", gf, gf / ranks);
        }
        std::printf("\n");
    }

    std::printf("\n");
    // Per-rank-sized work: perfect scaling keeps time flat as cores
    // are added, bandwidth saturation inflates it.
    observe("in-cache time inflation, 4 cores vs 1 (ideal 1.0)",
            formatFixed(seconds[{small, 4}] / seconds[{small, 1}], 2));
    observe("out-of-cache time inflation, 4 cores vs 1 "
            "(bandwidth-bound: ~2)",
            formatFixed(seconds[{large, 4}] / seconds[{large, 1}], 2));
    return 0;
}
