/**
 * @file
 * Molecular-dynamics scaling study: run the *functional* mini-MD
 * engine to validate the physics (energy behaviour, neighbor counts),
 * then project the LAMMPS and AMBER benchmarks across core counts
 * with the simulator -- the Section 4.1 workflow of the paper.
 */

#include <cstdio>

#include "apps/md/amber.hh"
#include "apps/md/engine.hh"
#include "apps/md/lammps.hh"
#include "core/runner.hh"
#include "machine/config.hh"
#include "util/str.hh"

using namespace mcscope;

namespace {

void
functionalChecks()
{
    std::printf("Functional mini-MD checks (real integrator):\n");
    for (MdStyle style : {MdStyle::LennardJones, MdStyle::Chain,
                          MdStyle::Metal}) {
        MdSystem sys = makeMdSystem(256, 0.6, style, 42);
        MdEnergies e0 = measureEnergies(sys);
        MdEnergies e1 = integrate(sys, 5.0e-4, 100);
        const char *name =
            style == MdStyle::LennardJones
                ? "lj"
                : (style == MdStyle::Chain ? "chain" : "eam");
        std::printf("  %-6s 100 steps: E0=%9.3f E=%9.3f drift=%6.3f%% "
                    "neighbors=%.1f\n",
                    name, e0.total(), e1.total(),
                    (e1.total() - e0.total()) /
                        std::abs(e0.total()) * 100.0,
                    averageNeighborCount(sys));
    }
    std::printf("\n");
}

void
scalingStudy()
{
    std::printf("Projected strong scaling on Longs (speedup vs 1 "
                "core):\n  %-14s", "cores");
    std::vector<int> ranks = {1, 2, 4, 8, 16};
    for (size_t i = 1; i < ranks.size(); ++i)
        std::printf("  %6d", ranks[i]);
    std::printf("\n");

    // One plan holds every series: Default placement, each registry
    // workload across the rank counts.
    std::vector<std::string> labels;
    for (const LammpsBenchmark &b : lammpsBenchmarks())
        labels.push_back("lammps-" + b.name);
    for (const AmberBenchmark &b : amberBenchmarks())
        labels.push_back("amber-" + b.name);
    SweepAxes axes;
    axes.machinePreset = "longs";
    for (const std::string &label : labels)
        axes.workloads.push_back(toLower(label));
    axes.rankCounts = ranks;
    axes.options = {table5Options().front()}; // Default
    SweepPlan plan = SweepPlan::expand(axes);
    PlanResults results = runPlan(plan, RunnerOptions{});

    for (size_t w = 0; w < labels.size(); ++w) {
        auto t = [&](size_t r) {
            return results.at(plan, plan.pointIndex(w, 0, 0, r, 0))
                .seconds;
        };
        std::printf("  %-14s", labels[w].c_str());
        for (size_t i = 1; i < ranks.size(); ++i)
            std::printf("  %6.2f", t(0) / t(i));
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    std::printf("mcscope MD scaling example\n\n");
    functionalChecks();
    scalingStudy();
    std::printf("\nNote the chain benchmark's super-linear speedup "
                "(cache capacity) and the\nPME-vs-GB split at 16 "
                "cores, both as in Tables 8 and 10 of the paper.\n");
    return 0;
}
