/**
 * @file
 * Cost-model tests for the AMBER and LAMMPS application workloads:
 * benchmark descriptors (Table 6), scaling characters (Tables 8, 10),
 * and phase tagging (Table 7's FFT phase).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/md/amber.hh"
#include "apps/md/lammps.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/runner.hh"
#include "machine/config.hh"

namespace mcscope {
namespace {

TEST(AmberBench, Table6Descriptors)
{
    auto benches = amberBenchmarks();
    ASSERT_EQ(benches.size(), 5u);
    EXPECT_EQ(benches[0].name, "dhfr");
    EXPECT_EQ(benches[0].atoms, 22930);
    EXPECT_EQ(benches[0].technique, MdTechnique::Pme);
    EXPECT_EQ(benches[1].name, "factor_ix");
    EXPECT_EQ(benches[1].atoms, 90906);
    EXPECT_EQ(benches[2].name, "gb_cox2");
    EXPECT_EQ(benches[2].technique, MdTechnique::Gb);
    EXPECT_EQ(benches[3].name, "gb_mb");
    EXPECT_EQ(benches[3].atoms, 2492);
    EXPECT_EQ(benches[4].name, "JAC");
    EXPECT_EQ(benches[4].atoms, 23558);
    EXPECT_EQ(mdTechniqueName(MdTechnique::Pme), "PME");
}

TEST(AmberBench, PmeRunsTagFftPhase)
{
    AmberWorkload jac(amberBenchmarkByName("JAC"));
    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = 2;
    RunResult r = runExperiment(cfg, jac);
    ASSERT_TRUE(r.valid);
    double fft = r.tagged(tags::kFft);
    EXPECT_GT(fft, 0.0);
    // FFT is a minor but visible phase (Table 7 vs Table 9: ~5-15%).
    EXPECT_LT(fft / r.seconds, 0.5);
    EXPECT_GT(fft / r.seconds, 0.01);
}

TEST(AmberBench, GbHasNoFftPhase)
{
    AmberWorkload gb(amberBenchmarkByName("gb_mb"));
    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = 2;
    RunResult r = runExperiment(cfg, gb);
    ASSERT_TRUE(r.valid);
    EXPECT_DOUBLE_EQ(r.tagged(tags::kFft), 0.0);
}

TEST(AmberBench, GbScalesBetterThanPmeAt16)
{
    // Table 8: GB ~14x at 16 cores; PME saturates near 7-8x.
    auto t_gb = defaultScalingTimes(longsConfig(), {1, 16}, "amber-gb_cox2");
    auto t_pme = defaultScalingTimes(longsConfig(), {1, 16}, "amber-jac");
    double s_gb = t_gb[0] / t_gb[1];
    double s_pme = t_pme[0] / t_pme[1];
    EXPECT_GT(s_gb, s_pme);
    EXPECT_GT(s_gb, 10.0);
    EXPECT_LT(s_pme, 15.0);
}

TEST(AmberBench, FactorIxIsBiggestPmeRun)
{
    AmberWorkload fix(amberBenchmarkByName("factor_ix"));
    AmberWorkload dhfr(amberBenchmarkByName("dhfr"));
    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = 4;
    double t_fix = runExperiment(cfg, fix).seconds;
    double t_dhfr = runExperiment(cfg, dhfr).seconds;
    EXPECT_GT(t_fix, 2.0 * t_dhfr);
}

TEST(LammpsBench, DescriptorsMatchPaper)
{
    auto benches = lammpsBenchmarks();
    ASSERT_EQ(benches.size(), 3u);
    for (const auto &b : benches) {
        EXPECT_EQ(b.atoms, 32000);
        EXPECT_EQ(b.steps, 100);
    }
    EXPECT_EQ(lammpsBenchmarkByName("lj").style,
              MdStyle::LennardJones);
    EXPECT_EQ(lammpsBenchmarkByName("chain").style, MdStyle::Chain);
    EXPECT_EQ(lammpsBenchmarkByName("eam").style, MdStyle::Metal);
}

TEST(LammpsBench, ChainIsSuperLinearOnLongs)
{
    // Table 10: chain reaches 19.95x on 16 cores (cache capacity).
    auto t = defaultScalingTimes(longsConfig(), {1, 16}, "lammps-chain");
    double speedup = t[0] / t[1];
    EXPECT_GT(speedup, 16.0);
    EXPECT_LT(speedup, 26.0);
}

TEST(LammpsBench, OrderingChainAboveEamAboveLj)
{
    // Table 10 at 16 cores: chain 19.95 > eam 12.54 > lj 10.65.
    auto speedup16 = [](const char *name) {
        auto t = defaultScalingTimes(longsConfig(), {1, 16}, name);
        return t[0] / t[1];
    };
    double lj = speedup16("lammps-lj");
    double chain = speedup16("lammps-chain");
    double eam = speedup16("lammps-eam");
    EXPECT_GT(chain, eam);
    EXPECT_GT(eam, lj);
}

TEST(LammpsBench, NearLinearAtTwoCores)
{
    // Table 10 at 2 cores: ~1.8-2.2 on every system.
    for (auto cfg_fn : {dmzConfig, longsConfig, tigerConfig}) {
        auto t = defaultScalingTimes(cfg_fn(), {1, 2}, "lammps-lj");
        double s = t[0] / t[1];
        EXPECT_GT(s, 1.6);
        EXPECT_LT(s, 2.4);
    }
}

TEST(AppModels, PlacementMattersMoreOnLongsThanDmz)
{
    // Tables 9/11: DMZ default is near-optimal; Longs shows real
    // spread across numactl options.
    auto spread_of = [](const MachineConfig &m, int ranks) {
        OptionSweepResult s = sweepOptions(m, {ranks}, "amber-jac");
        double lo = 1e300, hi = 0.0;
        for (double v : s.seconds[0]) {
            if (std::isnan(v))
                continue;
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        return hi / lo;
    };
    // Paper Table 9 at the largest job each system hosts: Longs 16
    // tasks spread 8.96 -> 14.99 (1.67x); DMZ 4 tasks 14.38 -> 16.08
    // (1.12x).
    EXPECT_GT(spread_of(longsConfig(), 16),
              spread_of(dmzConfig(), 4) * 1.1);
}

} // namespace
} // namespace mcscope
