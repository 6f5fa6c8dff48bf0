/**
 * @file
 * Tests for the ocean-model substrate: grid decomposition, the
 * five-point operator, the barotropic CG solver, and the POP cost
 * model's phase structure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "apps/pop/grid.hh"
#include "apps/pop/pop.hh"
#include "apps/pop/solver.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"
#include "machine/config.hh"
#include "util/rng.hh"

namespace mcscope {
namespace {

TEST(Grid, FivePointIdentity)
{
    Field2d in(8, 6, 2.0);
    Field2d out(8, 6);
    applyFivePoint(in, out, 1.0, 0.0);
    for (double v : out.data)
        EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(Grid, FivePointLaplacianOfConstantIsScaled)
{
    // With center = 1 + 4k and w = -k, a constant field (ignoring the
    // clamped y boundary contributions) maps to itself in the
    // interior.
    Field2d in(8, 8, 3.0);
    Field2d out(8, 8);
    applyFivePoint(in, out, 1.0 + 4.0 * 0.1, -0.1);
    for (size_t y = 1; y + 1 < 8; ++y)
        for (size_t x = 0; x < 8; ++x)
            EXPECT_NEAR(out.at(x, y), 3.0, 1e-12);
}

TEST(Grid, DecompositionBalancesAndCountsNeighbors)
{
    auto d1 = BlockDecomposition::make(320, 384, 1);
    EXPECT_EQ(d1.pr * d1.pc, 1);
    EXPECT_EQ(d1.neighborCount(), 0);
    EXPECT_DOUBLE_EQ(d1.localPoints(), 320.0 * 384.0);

    auto d16 = BlockDecomposition::make(320, 384, 16);
    EXPECT_EQ(d16.pr * d16.pc, 16);
    EXPECT_EQ(d16.pr, 4);
    EXPECT_EQ(d16.pc, 4);
    EXPECT_EQ(d16.neighborCount(), 4);
    EXPECT_DOUBLE_EQ(d16.localPoints(), 320.0 * 384.0 / 16.0);
    EXPECT_GT(d16.haloPoints(), 0.0);

    // Prime count still decomposes (1 x p strips).
    auto d7 = BlockDecomposition::make(320, 384, 7);
    EXPECT_EQ(d7.pr * d7.pc, 7);
}

TEST(Grid, HaloShrinksRelativeToVolumeAsGridGrows)
{
    auto small = BlockDecomposition::make(64, 64, 4);
    auto large = BlockDecomposition::make(512, 512, 4);
    EXPECT_GT(small.haloPoints() / small.localPoints(),
              large.haloPoints() / large.localPoints());
}

TEST(BarotropicSolver, SolvesToTolerance)
{
    Rng rng(3);
    Field2d b(32, 24);
    for (double &v : b.data)
        v = rng.uniform(-1.0, 1.0);
    BarotropicResult res = solveBarotropic(b, 0.3, 500, 1e-10);
    EXPECT_LT(res.residual, 1e-10);
    EXPECT_GT(res.iterations, 1);

    // Verify against the operator.
    Field2d check(32, 24);
    barotropicOperator(res.solution, check, 0.3);
    for (size_t i = 0; i < b.data.size(); ++i)
        EXPECT_NEAR(check.data[i], b.data[i], 1e-7);
}

TEST(BarotropicSolver, MoreImplicitnessNeedsMoreIterations)
{
    Field2d b(24, 24, 0.0);
    b.at(12, 12) = 1.0;
    auto easy = solveBarotropic(b, 0.05, 2000, 1e-10);
    auto hard = solveBarotropic(b, 5.0, 2000, 1e-10);
    EXPECT_GE(hard.iterations, easy.iterations);
}

TEST(PopModel, PhasesAreTaggedAndBarotropicIsMinor)
{
    PopWorkload pop(popX1Config());
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = 4;
    RunResult r = runExperiment(cfg, pop);
    ASSERT_TRUE(r.valid);
    double baro = r.tagged(tags::kBaroclinic);
    double btrop = r.tagged(tags::kBarotropic);
    EXPECT_GT(baro, 0.0);
    EXPECT_GT(btrop, 0.0);
    // The paper's x1 runs: baroclinic ~10x barotropic (Tables 13-14).
    EXPECT_GT(baro / btrop, 4.0);
    EXPECT_LT(baro / btrop, 30.0);
}

/** POP's makespan under one Table 5 option; NaN where it cannot run. */
double
popSeconds(const MachineConfig &machine, const NumactlOption &option,
           int ranks)
{
    PopWorkload pop(popX1Config());
    ExperimentConfig cfg;
    cfg.machine = machine;
    cfg.option = option;
    cfg.ranks = ranks;
    RunResult r = runExperiment(cfg, pop);
    return r.valid ? r.seconds : std::nan("");
}

/** Parallel efficiency of POP on every core of @p m under Default. */
double
popEfficiencyOnAllCores(const MachineConfig &m)
{
    const NumactlOption def = table5Options()[0];
    return popSeconds(m, def, 1) / popSeconds(m, def, m.totalCores()) /
           m.totalCores();
}

TEST(PopModel, ScalesNearlyLinearlyOnLongs)
{
    // Table 12: 16.11 at 16 cores.
    double eff = popEfficiencyOnAllCores(longsConfig());
    EXPECT_GT(eff, 0.85);
    EXPECT_LT(eff, 1.25);
}

TEST(PopModel, ScalesNearlyLinearlyOnDmz)
{
    // Table 12: POP is near-linear on the 4-core DMZ too.
    double eff = popEfficiencyOnAllCores(dmzConfig());
    EXPECT_GT(eff, 0.85);
    EXPECT_LT(eff, 1.25);
}

TEST(PopModel, PlacementSpreadsFourRanksOnLongs)
{
    // Section 4: placement is worth 10-20% at the application level.
    std::vector<double> row;
    for (const NumactlOption &option : table5Options())
        row.push_back(popSeconds(longsConfig(), option, 4));
    EXPECT_GT(placementGain(row), 0.03);
    double lo = 1e300, hi = 0.0;
    for (double v : row) {
        if (std::isnan(v))
            continue;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_GT(hi / lo, 1.10);
}

} // namespace
} // namespace mcscope
