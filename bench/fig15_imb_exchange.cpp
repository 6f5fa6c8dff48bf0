/**
 * @file
 * Figure 15: Intel MPI Benchmarks Exchange on DMZ across MPICH2,
 * LAM, and OpenMPI.  Same personality crossovers as PingPong, with
 * the bidirectional neighbor pattern stressing the copy path harder.
 */

#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "sim/task.hh"
#include "simmpi/collectives.hh"
#include "simmpi/comm.hh"
#include "util/str.hh"

using namespace mcscope;
using namespace mcscope::bench;

namespace {

/** One Exchange run over `ranks` ranks; returns time per iteration. */
double
exchangeTime(MpiImpl impl, int ranks, double bytes, int iters)
{
    MachineConfig cfg = dmzConfig();
    Machine machine(cfg);
    auto placement = Placement::create(
        cfg, machine.topology(),
        {"packed", TaskScheme::Packed, MemPolicy::LocalAlloc}, ranks);
    MpiRuntime rt(machine, *placement, impl, SubLayer::USysV);
    for (int r = 0; r < ranks; ++r) {
        std::vector<Prim> body;
        appendExchange(rt, body, r, bytes, 0x5000ULL);
        machine.engine().addTask(TaskProgram(
            "xc" + std::to_string(r), std::vector<Prim>{}, body,
            iters));
    }
    machine.engine().run();
    return machine.engine().makespan() / iters;
}

} // namespace

int
main()
{
    banner("Figure 15 (IMB Exchange, MPI implementations)",
           "Intra-node Exchange time per iteration on DMZ (2 ranks): "
           "MPICH2 vs LAM vs OpenMPI",
           "LAM leads for small messages, OpenMPI mid-sizes, MPICH2 "
           "large messages");

    std::printf("%-10s  %-12s %-12s %-12s   [us/iter]\n", "size",
                "MPICH2", "LAM", "OpenMPI");
    for (double bytes = 8.0; bytes <= 4.0 * 1024 * 1024;
         bytes *= 8.0) {
        std::printf("%-10s", formatBytes(bytes).c_str());
        for (MpiImpl impl :
             {MpiImpl::Mpich2, MpiImpl::Lam, MpiImpl::OpenMpi}) {
            double t = exchangeTime(impl, 2, bytes, 50);
            std::printf("  %-12.2f", t * 1e6);
        }
        std::printf("\n");
    }

    double small_lam = exchangeTime(MpiImpl::Lam, 2, 1024.0, 50);
    double small_mpich = exchangeTime(MpiImpl::Mpich2, 2, 1024.0, 50);
    double big_lam =
        exchangeTime(MpiImpl::Lam, 2, 4.0 * 1024 * 1024, 20);
    double big_mpich =
        exchangeTime(MpiImpl::Mpich2, 2, 4.0 * 1024 * 1024, 20);
    std::printf("\n");
    observe("1KB: LAM faster than MPICH2 by",
            formatFixed(small_mpich / small_lam, 2) + "x");
    observe("4MB: MPICH2 faster than LAM by",
            formatFixed(big_lam / big_mpich, 2) + "x");
    return 0;
}
