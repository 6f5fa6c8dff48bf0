/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: banner
 * printing and common option sets.  Every binary in bench/ regenerates
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

} // namespace bench
} // namespace mcscope

#endif // MCSCOPE_BENCH_BENCH_UTIL_HH
