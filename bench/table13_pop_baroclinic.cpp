/**
 * @file
 * Table 13: POP baroclinic execution time across numactl options on
 * Longs and DMZ.  The stencil phase is bandwidth-flavored, so
 * localalloc leads and membind/interleave pay NUMA penalties.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Table 13 (POP baroclinic x numactl)",
           "Baroclinic-phase seconds across the Table 5 options",
           "localalloc best (paper 2-task Longs: 332.29 vs 358.57 "
           "default); membind worst at 8-16");

    printOptionSweep(longsConfig(), {2, 4, 8, 16}, "pop-x1",
                     "baroclinic", tags::kBaroclinic);
    printOptionSweep(dmzConfig(), {2, 4}, "pop-x1", "baroclinic",
                     tags::kBaroclinic);

    OptionSweepResult s =
        sweepOptions(longsConfig(), {2}, "pop-x1", tags::kBaroclinic);
    observe("2-task Longs localalloc gain over default (paper: "
            "~7%)",
            formatFixed((s.seconds[0][0] - s.seconds[0][1]) /
                            s.seconds[0][0] * 100.0,
                        1) +
                "%");
    return 0;
}
