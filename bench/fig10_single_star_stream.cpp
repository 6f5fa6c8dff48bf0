/**
 * @file
 * Figure 10: HPCC Single vs Star STREAM triad on Longs across
 * runtime options.  The paper's most disturbing observation: with
 * default placement the Single:Star ratio exceeds 2:1, so engaging
 * the second core is a net per-socket *loss* for bandwidth-bound
 * code.
 */

#include <cstdio>

#include "bench_util.hh"
#include "kernels/stream.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Figure 10 (Single/Star STREAM)",
           "STREAM triad GB/s per core, Single (1) vs Star (16) on "
           "Longs, across runtime options",
           "Single:Star > 2:1 for default placement -- a net "
           "per-socket loss from the second core");

    MachineConfig longs = longsConfig();
    StreamWorkload stream(4u << 20, 10);

    struct Combo
    {
        const char *label;
        NumactlOption option;
        SubLayer sublayer;
    };
    const Combo combos[] = {
        {"default",
         {"default", TaskScheme::OsDefault, MemPolicy::Default},
         SubLayer::SysV},
        {"usysv",
         {"usysv", TaskScheme::OsDefault, MemPolicy::Default},
         SubLayer::USysV},
        {"localalloc",
         {"localalloc", TaskScheme::TwoTasksPerSocket,
          MemPolicy::LocalAlloc},
         SubLayer::SysV},
        {"localalloc+usysv",
         {"localalloc+usysv", TaskScheme::TwoTasksPerSocket,
          MemPolicy::LocalAlloc},
         SubLayer::USysV},
        {"interleave",
         {"interleave", TaskScheme::OsDefault, MemPolicy::Interleave},
         SubLayer::SysV},
    };

    // Each option pairs a Single (1 rank) and a Star (16 ranks) run,
    // with a Packed transform for Single.  The STREAM size is not the
    // registry's, so the points run directly rather than as a plan.
    std::printf("%-18s  %-10s %-10s %-12s\n", "option",
                "Single", "Star", "Single:Star");
    for (const Combo &c : combos) {
        NumactlOption single_opt = c.option;
        if (single_opt.scheme == TaskScheme::TwoTasksPerSocket)
            single_opt.scheme = TaskScheme::Packed;
        RunResult single =
            run(longs, single_opt, 1, stream, MpiImpl::Lam, c.sublayer);
        RunResult star =
            run(longs, c.option, 16, stream, MpiImpl::Lam, c.sublayer);
        double bw_s =
            stream.bytesPerIteration() * 10 / single.seconds / 1e9;
        double bw_x =
            stream.bytesPerIteration() * 10 / star.seconds / 1e9;
        std::printf("%-18s  %-10.2f %-10.2f %-12.2f   [GB/s per "
                    "core]\n",
                    c.label, bw_s, bw_x, star.seconds / single.seconds);
    }

    RunResult s = run(longs, pinnedSpread(), 1, stream);
    std::printf("\n");
    observe("best single-core bandwidth on Longs (paper: < 2.05 "
            "GB/s)",
            formatFixed(stream.bytesPerIteration() * 10 / s.seconds /
                            1e9,
                        2) +
                " GB/s");
    return 0;
}
