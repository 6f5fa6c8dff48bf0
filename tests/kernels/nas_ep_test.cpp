/**
 * @file
 * Tests for the NAS EP kernel: Marsaglia-polar statistics in the
 * functional version, perfect scaling in the cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/experiment.hh"
#include "kernels/nas_ep.hh"
#include "machine/config.hh"

namespace mcscope {
namespace {

/** Class A EP on Longs: not a registry workload, so run directly. */
RunResult
runEpClassA(const NumactlOption &option, int ranks)
{
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.option = option;
    cfg.ranks = ranks;
    return runExperiment(cfg, NasEpWorkload(nasEpClassA()));
}

TEST(EpFunctional, AcceptanceRateIsPiOverFour)
{
    EpResult res = epFunctional(200000, 7);
    double rate = static_cast<double>(res.accepted) / res.pairs;
    EXPECT_NEAR(rate, 3.14159265 / 4.0, 0.01);
}

TEST(EpFunctional, DeviatesAreZeroMeanGaussian)
{
    EpResult res = epFunctional(400000, 11);
    // Mean of the accepted Gaussian deviates ~ 0.
    EXPECT_NEAR(res.sumX / res.accepted, 0.0, 0.02);
    EXPECT_NEAR(res.sumY / res.accepted, 0.0, 0.02);
}

TEST(EpFunctional, DeterministicInSeed)
{
    EpResult a = epFunctional(50000, 42);
    EpResult b = epFunctional(50000, 42);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_DOUBLE_EQ(a.sumX, b.sumX);
    EpResult c = epFunctional(50000, 43);
    EXPECT_NE(a.accepted, c.accepted);
}

TEST(EpModel, ScalesLinearlyWhereCgCollapses)
{
    const NumactlOption def = table5Options().front();
    double eff = runEpClassA(def, 1).seconds /
                 runEpClassA(def, 16).seconds / 16.0;
    // EP is the control: no memory, no ladder, near-ideal efficiency
    // on the very machine where CG drops to ~0.4.
    EXPECT_GT(eff, 0.90);
    EXPECT_LT(eff, 1.15);
}

TEST(EpModel, PlacementInsensitive)
{
    double lo = 1e300, hi = 0.0;
    for (const NumactlOption &option : table5Options()) {
        RunResult r = runEpClassA(option, 8);
        if (!r.valid)
            continue;
        lo = std::min(lo, r.seconds);
        hi = std::max(hi, r.seconds);
    }
    EXPECT_LT(hi / lo, 1.15);
}

} // namespace
} // namespace mcscope
