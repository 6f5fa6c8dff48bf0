/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: banner
 * printing, standard sweeps, and common option sets.  Every binary in
 * bench/ regenerates one figure or table of the paper and prints the
 * same rows/series the paper reports.
 */

#ifndef MCSCOPE_BENCH_BENCH_UTIL_HH
#define MCSCOPE_BENCH_BENCH_UTIL_HH

#include <iostream>
#include <string>

#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/plan.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "machine/config.hh"
#include "util/str.hh"
#include "util/table.hh"

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
    return runExperiment(cfg, workload);
}

/** One row-group of a combined option-sweep table. */
struct SweepRow
{
    std::string workload; ///< registry name (core/registry.hh)
    std::string label;    ///< row label the paper uses ("CG", "FFT")
};

/**
 * Expand (workloads x ranks x Table 5 options) on one machine preset
 * through the scenario pipeline, execute it (sharing the process
 * result cache with every other sweep in the binary), and print the
 * combined table with one separated row-group per workload --
 * the Tables 2/3 layout.  Returns the per-workload (rank x option)
 * slices in row order so callers can compute observation ratios.
 */
inline std::vector<OptionSweepResult>
printPlannedSweep(const std::string &machine_preset,
                  const std::vector<SweepRow> &rows,
                  const std::vector<int> &ranks,
                  const std::string &header_label = "Kernel",
                  int precision = 2)
{
    SweepAxes axes;
    axes.machinePreset = machine_preset;
    for (const SweepRow &row : rows)
        axes.workloads.push_back(row.workload);
    axes.rankCounts = ranks;
    SweepPlan plan = SweepPlan::expand(axes);
    RunnerOptions opts;
    PlanResults results = runPlan(plan, opts);

    TextTable t(optionSweepHeader(header_label));
    std::vector<OptionSweepResult> slices;
    for (size_t w = 0; w < rows.size(); ++w) {
        if (w > 0)
            t.addSeparator();
        OptionSweepResult slice =
            optionSweepSlice(plan, results, w, 0, 0);
        appendOptionSweepRows(t, slice, rows[w].label, precision);
        slices.push_back(std::move(slice));
    }
    t.print(std::cout);
    return slices;
}

/**
 * Print the standard option-sweep table (Tables 2/3/7/9/11/13/14
 * layout) for one registry workload on one machine.
 */
inline void
printOptionSweep(const MachineConfig &machine,
                 const std::vector<int> &rank_counts,
                 const std::string &workload,
                 const std::string &row_label, int tag = -1,
                 int precision = 2)
{
    OptionSweepResult sweep =
        sweepOptions(machine, rank_counts, workload, tag);
    TextTable t(optionSweepHeader("Workload"));
    appendOptionSweepRows(t, sweep, row_label, precision);
    std::cout << machine.name << ":\n";
    t.print(std::cout);
    std::cout << "\n";
}

} // namespace bench
} // namespace mcscope

#endif // MCSCOPE_BENCH_BENCH_UTIL_HH
