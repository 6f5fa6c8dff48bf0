/**
 * @file
 * Figure 2: aggregate STREAM-triad memory bandwidth vs. number of
 * active cores, for Tiger, DMZ, and Longs, activating the first core
 * of each socket before any second core (socket-first) and the
 * reverse (core-first).
 */

#include <cstdio>
#include <map>

#include "bench_util.hh"
#include "kernels/stream.hh"

using namespace mcscope;
using namespace mcscope::bench;

namespace {

/** Print one series; returns its single-core GB/s. */
double
series(const MachineConfig &cfg, const NumactlOption &opt,
       const char *label)
{
    StreamWorkload stream(4u << 20, 10);
    std::printf("%-7s %-18s:", cfg.name.c_str(), label);
    double single = 0.0;
    for (int ranks = 1; ranks <= cfg.totalCores(); ranks *= 2) {
        RunResult r = run(cfg, opt, ranks, stream);
        double bw =
            stream.bytesPerIteration() * 10.0 * ranks / r.seconds;
        if (ranks == 1)
            single = bw / 1e9;
        std::printf("  %2d:%6.2f", ranks, bw / 1e9);
    }
    std::printf("   (GB/s aggregate)\n");
    return single;
}

} // namespace

int
main()
{
    banner("Figure 2 (memory bandwidth)",
           "LMbench3 STREAM-triad aggregate bandwidth vs active cores",
           "near-linear growth per socket; flat when second cores "
           "join; 8-socket system starts below half the expected "
           "per-socket bandwidth");

    std::map<std::string, double> single;
    for (auto cfg_fn : {tigerConfig, dmzConfig, longsConfig}) {
        MachineConfig cfg = cfg_fn();
        single[cfg.name] = series(cfg, pinnedSpread(), "socket-first");
        if (cfg.coresPerSocket > 1)
            series(cfg, pinnedPacked(), "core-first");
    }

    std::printf("\n");
    observe("Longs single-core GB/s (paper: < 2.05, i.e. < half of "
            "4.1)",
            formatFixed(single["Longs"], 2));
    observe("DMZ single-core GB/s", formatFixed(single["DMZ"], 2));
    return 0;
}
