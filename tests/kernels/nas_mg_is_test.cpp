/**
 * @file
 * Tests for the NPB MG and IS kernels and the full STREAM operation
 * set: real multigrid convergence, real sort correctness, and the
 * cost models' scaling characters.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/experiment.hh"
#include "kernels/nas_is.hh"
#include "kernels/nas_mg.hh"
#include "kernels/stream.hh"
#include "machine/config.hh"
#include "util/rng.hh"

namespace mcscope {
namespace {

Field3d
randomField(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Field3d f(n);
    for (double &v : f.data)
        v = rng.uniform(-1.0, 1.0);
    // Periodic Poisson needs a zero-mean right-hand side.
    double mean = 0.0;
    for (double v : f.data)
        mean += v;
    mean /= f.data.size();
    for (double &v : f.data)
        v -= mean;
    return f;
}

TEST(MgFunctional, SmoothingReducesResidual)
{
    Field3d v = randomField(16, 3);
    Field3d u(16);
    double before = mgResidualNorm(u, v);
    mgSmooth(u, v, 10);
    double after = mgResidualNorm(u, v);
    EXPECT_LT(after, before);
}

TEST(MgFunctional, VCycleBeatsPlainSmoothing)
{
    Field3d v = randomField(16, 5);
    Field3d u_smooth(16), u_mg(16);
    mgSmooth(u_smooth, v, 3); // same fine-level sweep budget
    double r_smooth = mgResidualNorm(u_smooth, v);
    double r_mg = mgVCycle(u_mg, v);
    EXPECT_LT(r_mg, r_smooth);
}

TEST(MgFunctional, RepeatedVCyclesConverge)
{
    Field3d v = randomField(16, 7);
    Field3d u(16);
    double r0 = mgResidualNorm(u, v);
    double r = r0;
    for (int i = 0; i < 12; ++i)
        r = mgVCycle(u, v);
    EXPECT_LT(r, 0.05 * r0);
}

TEST(MgFunctional, TransferOperatorsRoundTripConstants)
{
    // Restriction of a constant is (0.5 + 6/12) = the same constant;
    // prolongation of a constant is that constant.
    Field3d c(8, 2.5);
    Field3d coarse = mgRestrict(c);
    for (double v : coarse.data)
        EXPECT_NEAR(v, 2.5, 1e-12);
    Field3d fine = mgProlong(coarse, 8);
    for (double v : fine.data)
        EXPECT_NEAR(v, 2.5, 1e-12);
}

TEST(IsFunctional, SortsAndPreservesDistributionShape)
{
    auto sorted = isSortFunctional(50000, 1 << 12, 13);
    ASSERT_EQ(sorted.size(), 50000u);
    EXPECT_TRUE(isSorted(sorted));
    // The 4-uniform average concentrates keys near the middle.
    size_t mid = 0;
    for (uint32_t k : sorted) {
        if (k > (1u << 12) / 4 && k < 3u * (1 << 12) / 4)
            ++mid;
    }
    EXPECT_GT(mid, sorted.size() / 2);
}

TEST(IsFunctional, DeterministicInSeed)
{
    auto a = isSortFunctional(10000, 1 << 10, 21);
    auto b = isSortFunctional(10000, 1 << 10, 21);
    EXPECT_EQ(a, b);
}

TEST(MgModel, ScalesWellToEightThenSagsAtSixteen)
{
    // Class A is not a registry workload, so each point runs directly.
    NasMgWorkload mg(nasMgClassA());
    std::vector<double> t;
    for (int ranks : {1, 8, 16}) {
        ExperimentConfig cfg;
        cfg.machine = longsConfig();
        cfg.option = table5Options()[0];
        cfg.ranks = ranks;
        t.push_back(runExperiment(cfg, mg).seconds);
    }
    EXPECT_GT(t[0] / t[1] / 8.0, 0.85);  // near-linear to 8
    double eff16 = t[0] / t[2] / 16.0;
    EXPECT_LT(eff16, 0.85); // bandwidth-bound second cores
    EXPECT_GT(eff16, 0.4);
}

TEST(IsModel, SysVSensitive)
{
    NasIsWorkload is(nasIsClassB());
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = 16;
    cfg.sublayer = SubLayer::USysV;
    RunResult fast = runExperiment(cfg, is);
    cfg.sublayer = SubLayer::SysV;
    RunResult slow = runExperiment(cfg, is);
    EXPECT_GT(slow.seconds, fast.seconds);
}

TEST(StreamOps, FunctionalOperations)
{
    std::vector<double> a(64, 1.0), b(64, 2.0), c(64, 3.0);
    EXPECT_DOUBLE_EQ(
        streamOpFunctional(StreamOp::Copy, a, b, c, 2.0),
        64.0 * 1.0); // c = a
    EXPECT_DOUBLE_EQ(
        streamOpFunctional(StreamOp::Scale, a, b, c, 2.0),
        64.0 * 2.0); // b = 2 * c(=1)
    EXPECT_DOUBLE_EQ(
        streamOpFunctional(StreamOp::Add, a, b, c, 2.0),
        64.0 * 3.0); // c = a + b
    EXPECT_DOUBLE_EQ(
        streamOpFunctional(StreamOp::Triad, a, b, c, 2.0),
        64.0 * 8.0); // a = b(=2) + 2 * c(=3)
}

TEST(StreamOps, BytesPerElementAndNames)
{
    EXPECT_DOUBLE_EQ(streamBytesPerElement(StreamOp::Copy), 16.0);
    EXPECT_DOUBLE_EQ(streamBytesPerElement(StreamOp::Triad), 24.0);
    EXPECT_EQ(streamOpName(StreamOp::Scale), "scale");
}

TEST(StreamOps, CopyFasterThanTriadPerElement)
{
    // Same element count, fewer bytes: copy should finish sooner.
    StreamWorkload copy(4u << 20, 8, StreamOp::Copy);
    StreamWorkload triad(4u << 20, 8, StreamOp::Triad);
    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = {"spread", TaskScheme::Spread, MemPolicy::LocalAlloc};
    cfg.ranks = 1;
    double t_copy = runExperiment(cfg, copy).seconds;
    double t_triad = runExperiment(cfg, triad).seconds;
    EXPECT_NEAR(t_triad / t_copy, 24.0 / 16.0, 0.05);
}

} // namespace
} // namespace mcscope
