/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: banner
 * printing, common option sets, and the PingPong and Exchange runs
 * of Figures 13-17.  Every binary in bench/ regenerates
 * one figure of the paper (or an extension beyond it) and prints the
 * same rows/series the paper reports; the tables are batch specs
 * under examples/paper/.
 */

#ifndef MCSCOPE_BENCH_BENCH_UTIL_HH
#define MCSCOPE_BENCH_BENCH_UTIL_HH

#include <iostream>
#include <string>

#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/registry.hh"
#include "machine/config.hh"
#include "sim/task.hh"
#include "simmpi/collectives.hh"
#include "simmpi/comm.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace mcscope {
namespace bench {

/** Print the standard banner naming the paper artifact. */
inline void
banner(const std::string &artifact, const std::string &what,
       const std::string &expected_shape)
{
    std::cout << "=================================================="
                 "====================\n";
    std::cout << "mcscope reproduction of " << artifact << "\n";
    std::cout << what << "\n";
    std::cout << "Paper shape: " << expected_shape << "\n";
    std::cout << "=================================================="
                 "====================\n\n";
}

/** Print one labeled observation line. */
inline void
observe(const std::string &label, const std::string &value)
{
    std::cout << "  -> " << label << ": " << value << "\n";
}

/** Pinned one-rank-per-socket-then-wrap placement with local pages. */
inline NumactlOption
pinnedSpread()
{
    return {"spread+localalloc", TaskScheme::Spread,
            MemPolicy::LocalAlloc};
}

/** Pinned fill-socket-first placement with local pages. */
inline NumactlOption
pinnedPacked()
{
    return {"packed+localalloc", TaskScheme::Packed,
            MemPolicy::LocalAlloc};
}

/** Run a workload under an explicit option; fatal on invalid. */
inline RunResult
run(const MachineConfig &machine, const NumactlOption &option, int ranks,
    const Workload &workload, MpiImpl impl = MpiImpl::OpenMpi,
    SubLayer sublayer = SubLayer::USysV)
{
    ExperimentConfig cfg;
    cfg.machine = machine;
    cfg.option = option;
    cfg.ranks = ranks;
    cfg.impl = impl;
    cfg.sublayer = sublayer;
    RunResult r = runExperiment(cfg, workload);
    MCSCOPE_ASSERT(r.valid, "'", option.label, "' cannot host ", ranks,
                   " ranks on ", machine.name);
    return r;
}

/** One-way time of a two-rank PingPong of `bytes`, in seconds. */
inline double
pingPongSeconds(const MachineConfig &cfg, const NumactlOption &option,
                MpiImpl impl, SubLayer sublayer, double noise,
                double bytes, int iters)
{
    Machine machine(cfg);
    auto placement =
        Placement::create(cfg, machine.topology(), option, 2);
    MpiRuntime rt(machine, *placement, impl, sublayer);
    rt.setLatencyNoiseFactor(noise);
    std::vector<Prim> p0, p1;
    rt.appendSend(p0, 0, 1, bytes, 0x1000ULL);
    rt.appendRecv(p0, 0, 1, bytes, 0x2000ULL);
    rt.appendRecv(p1, 1, 0, bytes, 0x1000ULL);
    rt.appendSend(p1, 1, 0, bytes, 0x2000ULL);
    Engine &engine = machine.engine();
    engine.addTask(TaskProgram("pp0", std::vector<Prim>{}, p0, iters));
    engine.addTask(TaskProgram("pp1", std::vector<Prim>{}, p1, iters));
    engine.run();
    return engine.makespan() / iters / 2.0;
}

/** Time per iteration of an IMB Exchange over `ranks` ranks, in seconds. */
inline double
exchangeSeconds(const MachineConfig &cfg, const NumactlOption &option,
                int ranks, MpiImpl impl, SubLayer sublayer, double noise,
                double bytes, int iters)
{
    Machine machine(cfg);
    auto placement =
        Placement::create(cfg, machine.topology(), option, ranks);
    MpiRuntime rt(machine, *placement, impl, sublayer);
    rt.setLatencyNoiseFactor(noise);
    Engine &engine = machine.engine();
    for (int r = 0; r < ranks; ++r) {
        std::vector<Prim> body;
        appendExchange(rt, body, r, bytes, 0x5000ULL);
        engine.addTask(TaskProgram("xc" + std::to_string(r),
                                   std::vector<Prim>{}, body, iters));
    }
    engine.run();
    return engine.makespan() / iters;
}

} // namespace bench
} // namespace mcscope

#endif // MCSCOPE_BENCH_BENCH_UTIL_HH
