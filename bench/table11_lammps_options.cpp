/**
 * @file
 * Table 11: LAMMPS LJ overall runtime across numactl options on
 * Longs and DMZ.  The placement impact mirrors what AMBER showed:
 * visible on the ladder, marginal on the 2-socket box.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Table 11 (LAMMPS LJ x numactl)",
           "LJ benchmark runtime in seconds across the Table 5 "
           "options",
           "same story as AMBER: localalloc best on Longs, membind "
           "bad at 16 tasks, DMZ indifferent");

    printOptionSweep(longsConfig(), {2, 4, 8, 16}, "lammps-lj", "LJ",
                     -1, 3);
    printOptionSweep(dmzConfig(), {2, 4}, "lammps-lj", "LJ", -1, 5);

    OptionSweepResult longs16 =
        sweepOptions(longsConfig(), {16}, "lammps-lj");
    observe("16-task membind(two)/localalloc(two) ratio (paper: "
            "0.77/0.63 = 1.22)",
            formatFixed(longs16.seconds[0][4] /
                            longs16.seconds[0][3],
                        2));
    return 0;
}
