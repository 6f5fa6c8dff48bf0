/**
 * @file
 * Ablation study: turn each calibrated mechanism off and show which
 * paper observation it is responsible for.
 *
 *  - coherence tax      -> Longs' sub-half single-core bandwidth
 *  - same-die fast path -> the Figure 16/17 bound-vs-cross gap
 *  - SysV lock cost     -> the Figure 11-13 small-message collapse
 *  - scheduler drift    -> the Default-vs-localalloc gap at partial
 *                          load (Tables 2/13)
 */

#include <cstdio>

#include "bench_util.hh"
#include "kernels/stream.hh"
#include "simmpi/comm.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Ablation (model mechanisms)",
           "Each calibrated mechanism disabled in isolation, with the "
           "paper effect it carries",
           "disabling a mechanism erases exactly its effect");

    // --- Coherence tax ----------------------------------------------
    {
        StreamWorkload stream(4u << 20, 10);
        MachineConfig longs = longsConfig();
        RunResult with_tax =
            run(longs, pinnedSpread(), 1, stream);
        MachineConfig no_tax = longs;
        no_tax.coherenceAlpha = 0.0;
        RunResult without =
            run(no_tax, pinnedSpread(), 1, stream);
        double bw_with = stream.bytesPerIteration() * 10 /
                         with_tax.seconds / 1e9;
        double bw_without = stream.bytesPerIteration() * 10 /
                            without.seconds / 1e9;
        std::printf("coherence tax (Longs single-core STREAM):\n");
        std::printf("  with:    %.2f GB/s   (paper: < 2.05)\n",
                    bw_with);
        std::printf("  without: %.2f GB/s   (recovers the full "
                    "DDR-400 rate)\n\n",
                    bw_without);
    }

    // --- Same-die fast path -----------------------------------------
    {
        MachineConfig dmz = dmzConfig();
        Machine with_m(dmz);
        auto pl = Placement::create(dmz, with_m.topology(),
                                    pinnedPacked(), 4);
        MpiRuntime with_rt(with_m, *pl);
        double gain_with =
            with_rt.transferBandwidth(0, 1, 1 << 20) /
            with_rt.transferBandwidth(0, 2, 1 << 20);

        MachineConfig no_fast = dmz;
        no_fast.sameDieBandwidthBoost = 1.0;
        no_fast.sameDieLatencyFactor = 1.0;
        Machine without_m(no_fast);
        auto pl2 = Placement::create(no_fast, without_m.topology(),
                                     pinnedPacked(), 4);
        MpiRuntime without_rt(without_m, *pl2);
        double gain_without =
            without_rt.transferBandwidth(0, 1, 1 << 20) /
            without_rt.transferBandwidth(0, 2, 1 << 20);
        std::printf("same-die fast path (bound/cross bandwidth "
                    "ratio):\n");
        std::printf("  with:    %.3f   (paper: 1.10-1.13)\n",
                    gain_with);
        std::printf("  without: %.3f   (gap collapses to the bare "
                    "link effect)\n\n",
                    gain_without);
    }

    // --- SysV lock cost ----------------------------------------------
    {
        MachineConfig longs = longsConfig();
        Machine m(longs);
        auto pl = Placement::create(longs, m.topology(),
                                    table5Options()[0], 2);
        MpiRuntime sysv(m, *pl, MpiImpl::Lam, SubLayer::SysV);
        MpiRuntime usysv(m, *pl, MpiImpl::Lam, SubLayer::USysV);
        std::printf("SysV semaphore cost (8-byte one-way latency):\n");
        std::printf("  sysv:  %.2f us   usysv: %.2f us   (paper: "
                    "SysV dominates all small-message results)\n\n",
                    sysv.messageOverhead(0, 1, 8.0) * 1e6,
                    usysv.messageOverhead(0, 1, 8.0) * 1e6);
    }

    // --- Scheduler drift ---------------------------------------------
    {
        MachineConfig longs = longsConfig();
        OptionSweepResult sweep = sweepOptions(longs, {4}, "nas-cg-b");
        double def = sweep.seconds[0][0];
        double local = sweep.seconds[0][1];
        std::printf("scheduler drift (CG 4 tasks, Default vs One MPI "
                    "+ Local Alloc):\n");
        std::printf("  default: %.2f s   localalloc: %.2f s   gap "
                    "%.1f%%   (paper: 98.51 vs 88.21, ~10%%)\n",
                    def, local, (def - local) / def * 100.0);
        OptionSweepResult full = sweepOptions(longs, {16}, "nas-cg-b");
        std::printf("  at 16 tasks the gap closes: default %.2f vs "
                    "two+localalloc %.2f (paper: 54.17 vs 54.45)\n",
                    full.seconds[0][0], full.seconds[0][3]);
    }
    return 0;
}
