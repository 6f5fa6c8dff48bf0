/**
 * @file
 * Figure 14: Intel MPI Benchmarks PingPong on DMZ, comparing MPICH2,
 * LAM, and OpenMPI across message sizes.  MPICH2 pays a high
 * small-message overhead but wins for large messages; LAM wins below
 * ~16 KB; OpenMPI takes the intermediate sizes.
 */

#include <cstdio>
#include <map>

#include "bench_util.hh"
#include "util/str.hh"

using namespace mcscope;
using namespace mcscope::bench;

int
main()
{
    banner("Figure 14 (IMB PingPong, MPI implementations)",
           "Intra-node PingPong latency and bandwidth on DMZ: MPICH2 "
           "vs LAM vs OpenMPI",
           "LAM best < 16 KB, OpenMPI best at intermediate sizes, "
           "MPICH2 best for large messages; MPICH2's small-message "
           "latency ~2x the others");

    // One-way latency of a DMZ PingPong across the two sockets.
    auto pingPong = [](MpiImpl impl, double bytes) {
        return pingPongSeconds(dmzConfig(),
                               {"spread", TaskScheme::Spread,
                                MemPolicy::LocalAlloc},
                               impl, SubLayer::USysV, 1.0, bytes, 50);
    };
    std::printf("%-10s  %-22s %-22s %-22s\n", "size",
                "MPICH2 (us | MB/s)", "LAM (us | MB/s)",
                "OpenMPI (us | MB/s)");
    std::map<MpiImpl, double> lat8; // the table's first row
    for (double bytes = 8.0; bytes <= 4.0 * 1024 * 1024;
         bytes *= 8.0) {
        std::printf("%-10s", formatBytes(bytes).c_str());
        for (MpiImpl impl :
             {MpiImpl::Mpich2, MpiImpl::Lam, MpiImpl::OpenMpi}) {
            double lat = pingPong(impl, bytes);
            if (bytes == 8.0)
                lat8[impl] = lat;
            std::printf("  %8.2f | %-10.1f", lat * 1e6,
                        bytes / lat / 1e6);
        }
        std::printf("\n");
    }

    std::printf("\n");
    observe("MPICH2/LAM 8-byte latency ratio (paper: high overhead)",
            formatFixed(lat8[MpiImpl::Mpich2] / lat8[MpiImpl::Lam], 2));
    observe("MPICH2/LAM time ratio at 16KB (paper: comparable)",
            formatFixed(pingPong(MpiImpl::Mpich2, 16.0 * 1024) /
                            pingPong(MpiImpl::Lam, 16.0 * 1024),
                        2));
    return 0;
}
