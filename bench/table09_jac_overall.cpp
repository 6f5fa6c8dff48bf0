/**
 * @file
 * Table 9: overall JAC runtime across numactl options on Longs and
 * DMZ.  The FFT-phase sensitivities of Table 7 dilute into a 5-15%
 * application-level effect, with membind/interleave still clearly
 * harmful at scale.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Table 9 (JAC overall runtime x numactl)",
           "Total AMBER JAC runtime in seconds across the Table 5 "
           "options",
           "localalloc best on Longs; DMZ default near-optimal; "
           "membind at 16 tasks clearly worse");

    printOptionSweep(longsConfig(), {2, 4, 8, 16}, "amber-jac", "JAC");
    printOptionSweep(dmzConfig(), {2, 4}, "amber-jac", "JAC");

    OptionSweepResult longs =
        sweepOptions(longsConfig(), {2}, "amber-jac");
    double def = longs.seconds[0][0];
    double best = def;
    for (double v : longs.seconds[0]) {
        if (!std::isnan(v))
            best = std::min(best, v);
    }
    observe("2-task Longs placement gain (paper: 38.08 -> 35.21, "
            "~8%)",
            formatFixed((def - best) / def * 100.0, 1) + "%");
    return 0;
}
