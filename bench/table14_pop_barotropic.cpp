/**
 * @file
 * Table 14: POP barotropic execution time across numactl options on
 * Longs and DMZ.  The conjugate-gradient solver phase is latency-
 * sensitive like NAS CG, so the placement effects echo Table 2.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Table 14 (POP barotropic x numactl)",
           "Barotropic-phase seconds across the Table 5 options",
           "CG-like sensitivity: localalloc leads at low counts; "
           "membind hurts at 8 (paper: 21.99 vs 8.96)");

    printOptionSweep(longsConfig(), {2, 4, 8, 16}, "pop-x1",
                     "barotropic", tags::kBarotropic);
    printOptionSweep(dmzConfig(), {2, 4}, "pop-x1", "barotropic",
                     tags::kBarotropic);

    OptionSweepResult s =
        sweepOptions(longsConfig(), {8}, "pop-x1", tags::kBarotropic);
    observe("8-task membind(two)/default ratio (paper: 21.99/8.74 = "
            "2.5)",
            formatFixed(s.seconds[0][4] / s.seconds[0][0], 2));
    return 0;
}
