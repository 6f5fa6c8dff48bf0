/**
 * @file
 * Cost-model tests for the AMBER and LAMMPS application workloads:
 * benchmark descriptors (Table 6), relative run sizes, and phase
 * tagging (Table 7's FFT phase).  Their speedup and placement shapes
 * (Tables 8-10) are claims in tests/integration/paper_claims.json.
 */

#include <gtest/gtest.h>

#include "apps/md/amber.hh"
#include "apps/md/lammps.hh"
#include "core/experiment.hh"
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
    LammpsWorkload chain(lammpsBenchmarkByName("chain"));
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = 1;
    RunResult t1 = runExperiment(cfg, chain);
    cfg.ranks = 16;
    RunResult t16 = runExperiment(cfg, chain);
    ASSERT_TRUE(t1.valid && t16.valid);
    double speedup = t1.seconds / t16.seconds;
    EXPECT_GT(speedup, 16.0);
    EXPECT_LT(speedup, 26.0);
}

} // namespace
} // namespace mcscope
