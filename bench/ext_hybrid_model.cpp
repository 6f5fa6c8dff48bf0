/**
 * @file
 * Extension experiment: the programming model the paper proposes in
 * its Section 3.4 conclusion -- "OpenMP only within each multi-core
 * processor, and MPI for communication both between processor
 * sockets" -- tested against pure MPI on the same core budget.
 *
 * Not a paper artifact; this runs the experiment the authors
 * suggested as future work.
 */

#include <cstdio>
#include <memory>

#include "apps/pop/pop.hh"
#include "bench_util.hh"
#include "core/hybrid.hh"
#include "kernels/nas_cg.hh"
#include "kernels/nas_ft.hh"

using namespace mcscope;
using namespace mcscope::bench;

namespace {

void
compare(const char *label, std::shared_ptr<const LoopWorkload> base)
{
    MachineConfig longs = longsConfig();

    // Pure MPI: 16 ranks, two per socket, local pages.
    ExperimentConfig pure_cfg;
    pure_cfg.machine = longs;
    pure_cfg.option = {"two", TaskScheme::TwoTasksPerSocket,
                       MemPolicy::LocalAlloc};
    pure_cfg.ranks = 16;
    RunResult pure = runExperiment(pure_cfg, *base);

    // Hybrid: 8 MPI tasks x 2 threads on the same 16 cores.
    HybridWorkload hybrid(base, 2);
    ExperimentConfig hyb_cfg;
    hyb_cfg.machine = longs;
    hyb_cfg.option = {"contexts", TaskScheme::Packed,
                      MemPolicy::LocalAlloc};
    hyb_cfg.ranks = 16;
    RunResult hyb = runExperiment(hyb_cfg, hybrid);

    std::printf("  %-10s pure-MPI %8.2f s   hybrid %8.2f s   "
                "hybrid/pure %.3f\n",
                label, pure.seconds, hyb.seconds,
                hyb.seconds / pure.seconds);
}

} // namespace

int
main()
{
    banner("Extension (hybrid MPI+threads model, Section 3.4)",
           "16 cores of Longs: 16 pure-MPI ranks vs 8 MPI tasks x 2 "
           "socket threads",
           "the paper predicts the hybrid should be 'a high-"
           "performance alternative' -- fewer ladder messages, no "
           "same-socket MPI traffic");

    compare("nas-cg-b",
            std::make_shared<NasCgWorkload>(nasCgClassB()));
    compare("nas-ft-b",
            std::make_shared<NasFtWorkload>(nasFtClassB()));
    compare("pop-x1", std::make_shared<PopWorkload>(popX1Config()));
    return 0;
}
