/**
 * @file
 * Figure 16: OpenMPI PingPong on DMZ under scheduler-affinity
 * configurations: two processes bound to one dual-core processor
 * (socket 0 or 1), unbound, and unbound with two parked processes.
 * Confining communication within one multi-core processor buys
 * ~10-13% bandwidth and lower latency.
 */

#include <cstdio>

#include "bench_util.hh"
#include "util/str.hh"

using namespace mcscope;
using namespace mcscope::bench;

namespace {

struct Config
{
    const char *label;
    NumactlOption option;
    double noise;
};

/** One-way time of this configuration's OpenMPI PingPong on DMZ. */
double
pingPong(const Config &c, double bytes)
{
    return pingPongSeconds(dmzConfig(), c.option, MpiImpl::OpenMpi,
                           SubLayer::USysV, c.noise, bytes, 50);
}

} // namespace

int
main()
{
    banner("Figure 16 (OpenMPI PingPong with scheduler affinity)",
           "PingPong on DMZ: 2 procs bound to one dual-core socket vs "
           "unbound vs unbound + 2 parked",
           "bound-to-one-socket wins ~10-13% bandwidth and small-"
           "message latency; parked processes add jitter");

    const NumactlOption bound = {"bound", TaskScheme::Packed,
                                 MemPolicy::LocalAlloc};
    const NumactlOption unbound = {"unbound", TaskScheme::OsDefault,
                                   MemPolicy::Default};
    const Config configs[] = {
        {"2 procs, bound 0", bound, 1.0},
        {"2 procs, bound 1", bound, 1.0},
        {"2 procs, unbound", unbound, 1.15},
        {"2 procs, unbound, 2 parked", unbound, 1.30},
    };

    std::printf("%-28s", "size");
    for (const Config &c : configs)
        std::printf("  %-14s", c.label);
    std::printf("\n");
    std::vector<double> lat64; // the table's first row, per config
    for (double bytes = 64.0; bytes <= 4.0 * 1024 * 1024;
         bytes *= 16.0) {
        std::printf("%-28s", formatBytes(bytes).c_str());
        for (const Config &c : configs) {
            double lat = pingPong(c, bytes);
            if (bytes == 64.0)
                lat64.push_back(lat);
            std::printf("  %-14.1f", bytes / lat / 1e6);
        }
        std::printf("   [MB/s]\n");
    }

    const double mb = 1 << 20;
    double bw_b = mb / pingPong(configs[0], mb);
    double bw_u = mb / pingPong(configs[2], mb);
    double slat_b = lat64[0];
    double slat_u = lat64[2];
    std::printf("\n");
    observe("bound vs unbound bandwidth gain at 1MB (paper: "
            "10-13%)",
            formatFixed((bw_b / bw_u - 1.0) * 100.0, 1) + "%");
    observe("bound vs unbound 64B latency",
            formatFixed(slat_b * 1e6, 2) + "us vs " +
                formatFixed(slat_u * 1e6, 2) + "us");
    return 0;
}
