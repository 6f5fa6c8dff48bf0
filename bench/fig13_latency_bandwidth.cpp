/**
 * @file
 * Figure 13: communication latency on Longs -- ring vs PingPong
 * under the LAM/NUMA runtime options.  Ring latencies exceed
 * PingPong latencies (more hops on the HT ladder), but both are
 * overwhelmed by the SysV semaphore cost.
 */

#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "sim/task.hh"
#include "simmpi/collectives.hh"
#include "simmpi/comm.hh"

using namespace mcscope;
using namespace mcscope::bench;

namespace {

/** Average one-way PingPong latency between the two farthest ranks. */
double
pingPongLatencyUs(const MachineConfig &cfg, SubLayer sl, int iters)
{
    Machine machine(cfg);
    auto placement = Placement::create(
        cfg, machine.topology(),
        {"spread", TaskScheme::Spread, MemPolicy::LocalAlloc}, 2);
    MpiRuntime rt(machine, *placement, MpiImpl::Lam, sl);

    std::vector<Prim> p0, p1;
    rt.appendSend(p0, 0, 1, 8.0, 0x1000ULL);
    rt.appendRecv(p0, 0, 1, 8.0, 0x2000ULL);
    rt.appendRecv(p1, 1, 0, 8.0, 0x1000ULL);
    rt.appendSend(p1, 1, 0, 8.0, 0x2000ULL);
    machine.engine().addTask(TaskProgram(
        "pp0", std::vector<Prim>{}, p0, iters));
    machine.engine().addTask(TaskProgram(
        "pp1", std::vector<Prim>{}, p1, iters));
    machine.engine().run();
    return machine.engine().makespan() / iters / 2.0 * 1e6;
}

/** Average per-hop ring latency over the full 16-rank job. */
double
ringLatencyUs(const MachineConfig &cfg, SubLayer sl, int iters)
{
    Machine machine(cfg);
    auto placement = Placement::create(
        cfg, machine.topology(),
        {"two", TaskScheme::TwoTasksPerSocket, MemPolicy::LocalAlloc},
        16);
    MpiRuntime rt(machine, *placement, MpiImpl::Lam, sl);
    for (int r = 0; r < 16; ++r) {
        std::vector<Prim> body;
        appendRingShift(rt, body, r, 8.0, 0x3000ULL);
        machine.engine().addTask(TaskProgram(
            "ring" + std::to_string(r), std::vector<Prim>{}, body,
            iters));
    }
    machine.engine().run();
    return machine.engine().makespan() / iters * 1e6;
}

} // namespace

int
main()
{
    banner("Figure 13 (communication latency)",
           "8-byte latency on Longs: PingPong (2 ranks, cross-ladder) "
           "vs ring (16 ranks), SysV vs USysV sub-layers",
           "ring > PingPong; the SysV semaphore cost dwarfs the "
           "topology differences");

    const int iters = 200;
    double pp_usysv =
        pingPongLatencyUs(longsConfig(), SubLayer::USysV, iters);
    double pp_sysv =
        pingPongLatencyUs(longsConfig(), SubLayer::SysV, iters);
    double ring_usysv =
        ringLatencyUs(longsConfig(), SubLayer::USysV, iters);
    double ring_sysv =
        ringLatencyUs(longsConfig(), SubLayer::SysV, iters);

    std::printf("  %-22s %10s %10s\n", "pattern", "usysv", "sysv");
    std::printf("  %-22s %8.2fus %8.2fus\n", "PingPong (one-way)",
                pp_usysv, pp_sysv);
    std::printf("  %-22s %8.2fus %8.2fus\n", "ring (per shift)",
                ring_usysv, ring_sysv);

    std::printf("\n");
    observe("ring/PingPong latency ratio (usysv)",
            formatFixed(ring_usysv / pp_usysv, 2));
    observe("SysV/USysV latency blowup (PingPong)",
            formatFixed(pp_sysv / pp_usysv, 2) + "x");
    return 0;
}
