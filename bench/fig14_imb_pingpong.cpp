/**
 * @file
 * Figure 14: Intel MPI Benchmarks PingPong on DMZ, comparing MPICH2,
 * LAM, and OpenMPI across message sizes.  MPICH2 pays a high
 * small-message overhead but wins for large messages; LAM wins below
 * ~16 KB; OpenMPI takes the intermediate sizes.
 */

#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "sim/task.hh"
#include "simmpi/comm.hh"
#include "util/str.hh"

using namespace mcscope;
using namespace mcscope::bench;

namespace {

/** One PingPong run: returns (one-way latency s, bandwidth B/s). */
std::pair<double, double>
pingPong(MpiImpl impl, double bytes, int iters)
{
    MachineConfig cfg = dmzConfig();
    Machine machine(cfg);
    auto placement = Placement::create(
        cfg, machine.topology(),
        {"spread", TaskScheme::Spread, MemPolicy::LocalAlloc}, 2);
    MpiRuntime rt(machine, *placement, impl, SubLayer::USysV);

    std::vector<Prim> p0, p1;
    rt.appendSend(p0, 0, 1, bytes, 0x1000ULL);
    rt.appendRecv(p0, 0, 1, bytes, 0x2000ULL);
    rt.appendRecv(p1, 1, 0, bytes, 0x1000ULL);
    rt.appendSend(p1, 1, 0, bytes, 0x2000ULL);
    machine.engine().addTask(TaskProgram(
        "pp0", std::vector<Prim>{}, p0, iters));
    machine.engine().addTask(TaskProgram(
        "pp1", std::vector<Prim>{}, p1, iters));
    machine.engine().run();
    double one_way = machine.engine().makespan() / iters / 2.0;
    return {one_way, bytes / one_way};
}

} // namespace

int
main()
{
    banner("Figure 14 (IMB PingPong, MPI implementations)",
           "Intra-node PingPong latency and bandwidth on DMZ: MPICH2 "
           "vs LAM vs OpenMPI",
           "LAM best < 16 KB, OpenMPI best at intermediate sizes, "
           "MPICH2 best for large messages; MPICH2's small-message "
           "latency ~2x the others");

    std::printf("%-10s  %-22s %-22s %-22s\n", "size",
                "MPICH2 (us | MB/s)", "LAM (us | MB/s)",
                "OpenMPI (us | MB/s)");
    for (double bytes = 8.0; bytes <= 4.0 * 1024 * 1024;
         bytes *= 8.0) {
        std::printf("%-10s", formatBytes(bytes).c_str());
        for (MpiImpl impl :
             {MpiImpl::Mpich2, MpiImpl::Lam, MpiImpl::OpenMpi}) {
            auto [lat, bw] = pingPong(impl, bytes, 50);
            std::printf("  %8.2f | %-10.1f", lat * 1e6, bw / 1e6);
        }
        std::printf("\n");
    }

    auto [lat_mpich, bw_m] = pingPong(MpiImpl::Mpich2, 8.0, 50);
    auto [lat_lam, bw_l] = pingPong(MpiImpl::Lam, 8.0, 50);
    auto [lat_m16, bw_m16] =
        pingPong(MpiImpl::Mpich2, 16.0 * 1024, 50);
    auto [lat_l16, bw_l16] = pingPong(MpiImpl::Lam, 16.0 * 1024, 50);
    (void)bw_m;
    (void)bw_l;
    std::printf("\n");
    observe("MPICH2/LAM 8-byte latency ratio (paper: high overhead)",
            formatFixed(lat_mpich / lat_lam, 2));
    observe("MPICH2/LAM time ratio at 16KB (paper: comparable)",
            formatFixed(lat_m16 / lat_l16, 2));
    return 0;
}
