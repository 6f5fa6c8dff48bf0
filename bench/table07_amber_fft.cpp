/**
 * @file
 * Table 7: FFT-phase time in the AMBER JAC benchmark across numactl
 * options on Longs and DMZ.  The PME reciprocal (FFT) phase inherits
 * the placement sensitivity the NAS FT kernel predicted.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Table 7 (JAC FFT-phase time x numactl)",
           "Seconds spent in the PME reciprocal (FFT) phase of the "
           "AMBER JAC benchmark",
           "FFT phase shows the NAS-FT-like placement sensitivity on "
           "Longs; interleave blows up at 16 tasks");

    printOptionSweep(longsConfig(), {2, 4, 8, 16}, "amber-jac",
                     "JAC FFT", tags::kFft);
    printOptionSweep(dmzConfig(), {2, 4}, "amber-jac", "JAC FFT",
                     tags::kFft);

    OptionSweepResult longs16 =
        sweepOptions(longsConfig(), {16}, "amber-jac", tags::kFft);
    observe("16-task interleave/default FFT-phase ratio (paper: "
            "2.22/0.63 = 3.5)",
            formatFixed(longs16.seconds[0][5] / longs16.seconds[0][0],
                        2));
    return 0;
}
