/**
 * @file
 * Extension experiment: sensitivity of the reproduced shapes to the
 * two load-bearing calibration constants.
 *
 *  - coherenceAlpha: the probe tax behind "Longs gets less than half
 *    the expected bandwidth".  The paper's qualitative claims should
 *    survive a wide range of alpha; only the absolute bandwidth moves.
 *  - streamConcurrencyBytes: the miss-level parallelism that sets the
 *    remote-access penalty.  The NUMA-placement spread should grow as
 *    concurrency shrinks and collapse when latency is fully hidden.
 *
 * If a paper conclusion held only at the exact calibrated values, it
 * would be an artifact of fitting; this bench shows it does not.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "kernels/stream.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Extension (calibration sensitivity)",
           "Sweep coherenceAlpha and streamConcurrencyBytes; watch "
           "the paper's qualitative claims",
           "shapes are robust: the single-core bandwidth deficit and "
           "the placement spread vary smoothly, never invert");

    StreamWorkload stream(4u << 20, 8);
    std::unique_ptr<Workload> cg = makeWorkload("nas-cg-b");
    const std::vector<NumactlOption> options = table5Options();

    std::printf("coherenceAlpha sweep (Longs):\n");
    std::printf("  %-8s %-16s %-18s %-14s\n", "alpha",
                "1-core GB/s", "vs 4.1 GB/s part", "CG eff @16");
    for (double alpha : {0.0, 0.08, 0.165, 0.33}) {
        MachineConfig cfg = longsConfig();
        cfg.coherenceAlpha = alpha;
        RunResult r1 = run(cfg, pinnedSpread(), 1, stream);
        double bw = stream.bytesPerIteration() * 8 / r1.seconds / 1e9;
        double t1 = run(cfg, options[0], 1, *cg).seconds;
        double t16 = run(cfg, options[0], 16, *cg).seconds;
        std::printf("  %-8.3f %-16.2f %-18.2f %-14.2f\n", alpha, bw,
                    bw / 4.1, t1 / t16 / 16.0);
    }
    std::printf("\n");

    std::printf("streamConcurrencyBytes sweep (Longs, CG 8 tasks):\n");
    std::printf("  %-8s %-20s %-20s\n", "bytes",
                "membind/localalloc", "interleave/default");
    for (double conc : {200.0, 400.0, 800.0, 1600.0}) {
        MachineConfig cfg = longsConfig();
        cfg.streamConcurrencyBytes = conc;
        auto t = [&](size_t option) {
            return run(cfg, options[option], 8, *cg).seconds;
        };
        std::printf("  %-8.0f %-20.2f %-20.2f\n", conc, t(2) / t(1),
                    t(5) / t(0));
    }
    return 0;
}
