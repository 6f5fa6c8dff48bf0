/**
 * @file
 * Cost-model behaviour tests for the kernel workloads: each workload
 * builds valid task programs, runs to completion on every machine,
 * and exhibits its defining performance character (bandwidth-bound,
 * cache-friendly, latency-bound, lock-sensitive).
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/registry.hh"
#include "kernels/blas1.hh"
#include "kernels/blas3.hh"
#include "kernels/fft.hh"
#include "kernels/nas_cg.hh"
#include "kernels/nas_ft.hh"
#include "kernels/randomaccess.hh"
#include "kernels/stream.hh"
#include "machine/config.hh"

namespace mcscope {
namespace {

ExperimentConfig
config(const MachineConfig &m, int ranks,
       int option_index = 0, SubLayer sl = SubLayer::USysV)
{
    ExperimentConfig c;
    c.machine = m;
    c.option = table5Options()[option_index];
    c.ranks = ranks;
    c.sublayer = sl;
    return c;
}

TEST(StreamModel, SingleCoreBandwidthMatchesCalibration)
{
    StreamWorkload stream(4u << 20, 10);
    RunResult r = runExperiment(config(dmzConfig(), 1), stream);
    ASSERT_TRUE(r.valid);
    double bw = stream.bytesPerIteration() * 10.0 / r.seconds;
    // DMZ: ~3.5 GB/s effective after coherence tax.
    EXPECT_NEAR(bw / 1e9, 3.5, 0.3);

    RunResult rl = runExperiment(config(longsConfig(), 1), stream);
    double bwl = stream.bytesPerIteration() * 10.0 / rl.seconds;
    // Longs: less than half of the expected >4 GB/s (paper 3.3).
    EXPECT_LT(bwl / 1e9, 2.0);
}

TEST(StreamModel, SecondCoreAddsNoBandwidth)
{
    StreamWorkload stream(4u << 20, 10);
    // 2 ranks on one socket (packed) vs on two sockets (spread).
    ExperimentConfig packed = config(dmzConfig(), 2);
    packed.option = {"packed", TaskScheme::Packed,
                     MemPolicy::LocalAlloc};
    ExperimentConfig spread = config(dmzConfig(), 2);
    spread.option = {"spread", TaskScheme::Spread,
                     MemPolicy::LocalAlloc};
    RunResult rp = runExperiment(packed, stream);
    RunResult rs = runExperiment(spread, stream);
    // Same-socket pair shares a controller: ~2x slower than the
    // socket-per-rank placement.
    EXPECT_GT(rp.seconds / rs.seconds, 1.8);
}

TEST(DgemmModel, AcmlNearsPeakAndIsPlacementInsensitive)
{
    DgemmWorkload dgemm(1200, 2, BlasVariant::Acml);
    RunResult r1 = runExperiment(config(dmzConfig(), 1), dgemm);
    double gflops = dgemm.flopsPerIteration() * 2.0 / r1.seconds / 1e9;
    // 4.4 GFlop/s peak at 85% efficiency.
    EXPECT_NEAR(gflops, 3.7, 0.4);

    // Engaging the second core nearly doubles socket throughput.
    ExperimentConfig packed = config(dmzConfig(), 2);
    packed.option = {"packed", TaskScheme::Packed,
                     MemPolicy::LocalAlloc};
    RunResult r2 = runExperiment(packed, dgemm);
    EXPECT_LT(r2.seconds / r1.seconds, 1.15);
}

TEST(DgemmModel, VanillaMuchSlowerThanAcml)
{
    DgemmWorkload acml(1200, 2, BlasVariant::Acml);
    DgemmWorkload vanilla(1200, 2, BlasVariant::Vanilla);
    RunResult ra = runExperiment(config(dmzConfig(), 1), acml);
    RunResult rv = runExperiment(config(dmzConfig(), 1), vanilla);
    EXPECT_GT(rv.seconds / ra.seconds, 3.0);
}

TEST(DaxpyModel, LargeVectorsAreBandwidthBound)
{
    // Doubling the per-socket core count should NOT double DAXPY
    // throughput at large n (bandwidth-bound).
    DaxpyWorkload daxpy(8u << 20, 10, BlasVariant::Acml);
    RunResult r1 = runExperiment(config(dmzConfig(), 1), daxpy);
    ExperimentConfig packed = config(dmzConfig(), 2);
    packed.option = {"packed", TaskScheme::Packed,
                     MemPolicy::LocalAlloc};
    RunResult r2 = runExperiment(packed, daxpy);
    EXPECT_GT(r2.seconds / r1.seconds, 1.6);
}

TEST(DaxpyModel, SmallVectorsAreComputeBound)
{
    // In-cache DAXPY: the second core scales almost perfectly.
    DaxpyWorkload daxpy(8u << 10, 2000, BlasVariant::Acml);
    RunResult r1 = runExperiment(config(dmzConfig(), 1), daxpy);
    ExperimentConfig packed = config(dmzConfig(), 2);
    packed.option = {"packed", TaskScheme::Packed,
                     MemPolicy::LocalAlloc};
    RunResult r2 = runExperiment(packed, daxpy);
    EXPECT_LT(r2.seconds / r1.seconds, 1.25);
}

TEST(RandomAccessModel, LatencyBoundSingleCoreGups)
{
    RandomAccessWorkload ra(256.0e6, 1.0e6, 2);
    RunResult r = runExperiment(config(dmzConfig(), 1), ra);
    double gups = 2.0e6 / r.seconds / 1e9;
    // Opteron-era GUPS: a few hundredths.
    EXPECT_GT(gups, 0.005);
    EXPECT_LT(gups, 0.1);
}

TEST(RandomAccessModel, SecondCoreIsNetGain)
{
    // Unlike STREAM, RandomAccess leaves bandwidth on the table, so
    // the second core helps (Single:Star < 2, Figure 11).  Both runs
    // pinned with local pages, like the HPCC Single/Star modes.
    RandomAccessWorkload ra(256.0e6, 1.0e6, 2);
    ExperimentConfig single = config(dmzConfig(), 1);
    single.option = {"single", TaskScheme::Packed,
                     MemPolicy::LocalAlloc};
    RunResult r1 = runExperiment(single, ra);
    ExperimentConfig packed = config(dmzConfig(), 2);
    packed.option = {"packed", TaskScheme::Packed,
                     MemPolicy::LocalAlloc};
    RunResult r2 = runExperiment(packed, ra);
    EXPECT_LT(r2.seconds / r1.seconds, 1.5);
    EXPECT_GE(r2.seconds / r1.seconds, 1.0);
}

TEST(MpiRandomAccessModel, SysVWrecksIt)
{
    MpiRandomAccessWorkload ra(256.0e6, 1.0e6, 2);
    RunResult fast =
        runExperiment(config(longsConfig(), 8, 0, SubLayer::USysV), ra);
    RunResult slow =
        runExperiment(config(longsConfig(), 8, 0, SubLayer::SysV), ra);
    EXPECT_GT(slow.seconds / fast.seconds, 1.5);
}

TEST(NasModels, EveryClassBuildsAndRuns)
{
    for (const char *name : {"nas-cg-b", "nas-ft-b"}) {
        auto w = makeWorkload(name);
        for (int ranks : {1, 2, 4}) {
            RunResult r =
                runExperiment(config(dmzConfig(), ranks), *w);
            ASSERT_TRUE(r.valid) << name << " ranks=" << ranks;
            EXPECT_GT(r.seconds, 0.0);
        }
    }
}

TEST(NasModels, ClassAIsSmallerThanClassB)
{
    NasCgWorkload a(nasCgClassA());
    NasCgWorkload b(nasCgClassB());
    RunResult ra = runExperiment(config(dmzConfig(), 2), a);
    RunResult rb = runExperiment(config(dmzConfig(), 2), b);
    EXPECT_LT(ra.seconds, rb.seconds / 5.0);
}

TEST(FftModel, PlacementSensitivityIsIntermediate)
{
    // Figure 9/10: DGEMM insensitive, STREAM very sensitive, FFT in
    // between.  Compare localalloc vs membind-at-scale on Longs.
    // The sizes are not the registry's, so each point runs directly.
    auto spread_of = [](const Workload &w) {
        double lo = 1e300, hi = 0.0;
        for (const NumactlOption &option : table5Options()) {
            ExperimentConfig cfg = config(longsConfig(), 8);
            cfg.option = option;
            RunResult r = runExperiment(cfg, w);
            if (!r.valid)
                continue;
            lo = std::min(lo, r.seconds);
            hi = std::max(hi, r.seconds);
        }
        return hi / lo;
    };
    DgemmWorkload dgemm(1000, 1, BlasVariant::Acml);
    FftWorkload fft(1u << 22, 4);
    StreamWorkload stream(4u << 20, 8);
    double s_dgemm = spread_of(dgemm);
    double s_fft = spread_of(fft);
    double s_stream = spread_of(stream);
    EXPECT_LT(s_dgemm, s_fft);
    EXPECT_LT(s_fft, s_stream + 1e-9);
    EXPECT_LT(s_dgemm, 1.3);
    EXPECT_GT(s_stream, 2.0);
}

} // namespace
} // namespace mcscope
