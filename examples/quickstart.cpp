/**
 * @file
 * Quickstart: build the paper's three machines, run STREAM triad and
 * NAS CG across core counts and placement options, and print the
 * headline observations.  Start here to learn the mcscope API.
 */

#include <cstdio>
#include <iostream>

#include "core/calibration.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "kernels/stream.hh"
#include "machine/config.hh"
#include "util/table.hh"

using namespace mcscope;

namespace {

void
printSystems()
{
    std::cout << "=== Evaluation systems (paper Table 1) ===\n";
    TextTable t({"Name", "Opteron", "GHz", "Cores/Socket", "Sockets",
                 "Total Cores", "Memory"});
    for (const std::string &name : presetNames()) {
        MachineConfig c = configByName(name);
        t.addRow({c.name, c.opteronModel, cell(c.coreGHz, 1),
                  std::to_string(c.coresPerSocket),
                  std::to_string(c.sockets),
                  std::to_string(c.totalCores()),
                  cell(c.nodeMemoryGiB, 0) + " GB " + c.memoryType});
    }
    t.print(std::cout);
    std::cout << "\n";
}

void
streamScaling(const MachineConfig &cfg)
{
    std::cout << "STREAM triad on " << cfg.name
              << " (socket-first placement):\n";
    StreamWorkload stream(4u << 20, 10);
    for (int ranks = 1; ranks <= cfg.totalCores(); ranks *= 2) {
        ExperimentConfig ec;
        ec.machine = cfg;
        ec.option = {"spread+local", TaskScheme::Spread,
                     MemPolicy::LocalAlloc};
        ec.ranks = ranks;
        RunResult r = runExperiment(ec, stream);
        double bytes = stream.bytesPerIteration() * 10.0 * ranks;
        std::printf("  %2d cores: %6.2f GB/s aggregate, %5.2f GB/s per "
                    "core\n",
                    ranks, bytes / r.seconds / 1e9,
                    bytes / r.seconds / 1e9 / ranks);
    }
    std::cout << "\n";
}

void
nasCgOptions()
{
    std::cout << "NAS CG class B on Longs, 8 tasks, Table 5 options:\n";
    // A sweep is a declarative plan: empty axes take their defaults
    // (here the six Table 5 options); optionSweepSlice() reads the
    // results back as the paper's (rank x option) table.
    SweepAxes axes;
    axes.machinePreset = "longs";
    axes.workloads = {"nas-cg-b"};
    axes.rankCounts = {8};
    SweepPlan plan = SweepPlan::expand(axes);
    OptionSweepResult sweep =
        optionSweepSlice(plan, runPlan(plan, RunnerOptions{}), 0, 0, 0);
    for (size_t i = 0; i < sweep.options.size(); ++i) {
        std::printf("  %-22s %s s\n", sweep.options[i].label.c_str(),
                    cell(sweep.seconds[0][i], 2).c_str());
    }
    double gain = placementGain(sweep.seconds[0]);
    std::printf("  -> placement gain over Default: %.0f%%\n\n",
                gain * 100.0);
}

} // namespace

int
main()
{
    std::cout << "mcscope quickstart: multi-core scientific workload "
                 "characterization\n\n";
    printSystems();
    streamScaling(dmzConfig());
    streamScaling(longsConfig());
    nasCgOptions();
    std::cout << "Calibrated model constants:\n"
              << calibrationReport() << "\n";
    return 0;
}
