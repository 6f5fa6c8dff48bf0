/**
 * @file
 * Integration tests asserting the paper's headline observations hold
 * end-to-end in the reproduction.  Each test names the paper artifact
 * it guards.  These are the contract between the model and the paper:
 * if a calibration change breaks one of these, the reproduction has
 * regressed.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/runner.hh"
#include "kernels/blas3.hh"
#include "kernels/stream.hh"
#include "machine/config.hh"
#include "simmpi/collectives.hh"
#include "simmpi/comm.hh"

namespace mcscope {
namespace {

ExperimentConfig
base(const MachineConfig &m, int ranks)
{
    ExperimentConfig c;
    c.machine = m;
    c.option = table5Options()[0];
    c.ranks = ranks;
    return c;
}

NumactlOption
pinnedSpread()
{
    return {"spread", TaskScheme::Spread, MemPolicy::LocalAlloc};
}

NumactlOption
pinnedPacked()
{
    return {"packed", TaskScheme::Packed, MemPolicy::LocalAlloc};
}

/** Figures 2-3: bandwidth scales with sockets, not cores. */
TEST(PaperShapes, StreamBandwidthScalesWithSocketsNotCores)
{
    StreamWorkload stream(4u << 20, 8);
    MachineConfig longs = longsConfig();

    auto bandwidth = [&](int ranks, const NumactlOption &opt) {
        ExperimentConfig cfg = base(longs, ranks);
        cfg.option = opt;
        RunResult r = runExperiment(cfg, stream);
        EXPECT_TRUE(r.valid);
        return stream.bytesPerIteration() * 8.0 * ranks / r.seconds;
    };

    // Socket-first: aggregate grows ~linearly through 8 ranks.
    double b1 = bandwidth(1, pinnedSpread());
    double b8 = bandwidth(8, pinnedSpread());
    EXPECT_GT(b8 / b1, 6.0);

    // Adding second cores on the same sockets is flat.
    double b16 = bandwidth(16, pinnedSpread());
    EXPECT_LT(b16 / b8, 1.15);

    // Core-first: 2 ranks fill socket 0 and gain almost nothing.
    double b2_packed = bandwidth(2, pinnedPacked());
    EXPECT_LT(b2_packed / b1, 1.15);
}

/** Section 3.3: Longs single-core bandwidth < half the expected. */
TEST(PaperShapes, LongsSingleCoreBandwidthBelowHalfExpected)
{
    StreamWorkload stream(4u << 20, 8);
    ExperimentConfig cfg = base(longsConfig(), 1);
    cfg.option = pinnedSpread();
    RunResult r = runExperiment(cfg, stream);
    double bw = stream.bytesPerIteration() * 8.0 / r.seconds;
    EXPECT_LT(bw, 0.5 * 4.1e9);
    // ...while the 2-socket DMZ gets most of the part's bandwidth.
    ExperimentConfig dcfg = base(dmzConfig(), 1);
    dcfg.option = pinnedSpread();
    RunResult rd = runExperiment(dcfg, stream);
    double bwd = stream.bytesPerIteration() * 8.0 / rd.seconds;
    EXPECT_GT(bwd, 0.8 * 4.1e9 / 1.2);
}

/** Figure 9 vs Figure 10: DGEMM Star ~= Single; STREAM Star > 2x. */
TEST(PaperShapes, SingleStarContrast)
{
    MachineConfig longs = longsConfig();

    DgemmWorkload dgemm(1000, 1, BlasVariant::Acml);
    ExperimentConfig single = base(longs, 1);
    single.option = pinnedPacked();
    double t1 = runExperiment(single, dgemm).seconds;
    ExperimentConfig star = base(longs, 16);
    star.option = pinnedPacked();
    double t16 = runExperiment(star, dgemm).seconds;
    double dgemm_ratio = singleToStarRatio(t1, t16);
    EXPECT_LT(dgemm_ratio, 1.25); // near 1:1 (Figure 9)

    StreamWorkload stream(4u << 20, 8);
    double s1 = runExperiment(single, stream).seconds;
    double s16 = runExperiment(star, stream).seconds;
    double stream_ratio = singleToStarRatio(s1, s16);
    EXPECT_GT(stream_ratio, 2.0); // net per-socket loss (Figure 10)
}

/** Figures 11-13: SysV wrecks small messages, spares large ones. */
TEST(PaperShapes, SysVHurtsSmallMessagesOnly)
{
    MachineConfig longs = longsConfig();
    Machine m_usysv(longs), m_sysv(longs);
    auto pl = Placement::create(longs, m_usysv.topology(),
                                table5Options()[0], 2);
    ASSERT_TRUE(pl.has_value());
    MpiRuntime fast(m_usysv, *pl, MpiImpl::Lam, SubLayer::USysV);
    MpiRuntime slow(m_sysv, *pl, MpiImpl::Lam, SubLayer::SysV);

    double small = 8.0;
    double large = 4.0 * 1024.0 * 1024.0;
    // Small-message one-way cost: SysV >> USysV.
    EXPECT_GT(slow.messageOverhead(0, 1, small) /
                  fast.messageOverhead(0, 1, small),
              3.0);
    // Large messages: the payload dominates; total time ratio ~ 1.
    auto total = [&](MpiRuntime &rt) {
        return rt.messageOverhead(0, 1, large) +
               large / rt.transferBandwidth(0, 1, large);
    };
    EXPECT_LT(total(slow) / total(fast), 1.05);
}

/** Figures 16-17: same-die communication beats cross-socket. */
TEST(PaperShapes, SameDieCommunicationAdvantage)
{
    MachineConfig dmz = dmzConfig();
    Machine machine(dmz);
    auto pl = Placement::create(dmz, machine.topology(),
                                pinnedPacked(), 4);
    ASSERT_TRUE(pl.has_value());
    MpiRuntime rt(machine, *pl);
    double bw_same = rt.transferBandwidth(0, 1, 1 << 20);
    double bw_cross = rt.transferBandwidth(0, 2, 1 << 20);
    double gain = bw_same / bw_cross - 1.0;
    // Paper: approximately 10 to 13%.
    EXPECT_GT(gain, 0.08);
    EXPECT_LT(gain, 0.18);
    EXPECT_LT(rt.messageOverhead(0, 1, 64.0),
              rt.messageOverhead(0, 2, 64.0));
}

/** Tables 2-3: localalloc best; membind/interleave pathological. */
TEST(PaperShapes, NumactlOptionOrderingOnLongs)
{
    OptionSweepResult sweep = sweepOptions(longsConfig(), {8}, "nas-cg-b");
    const auto &row = sweep.seconds[0];
    double def = row[0], one_la = row[1], one_mb = row[2];
    double two_la = row[3], two_mb = row[4], il = row[5];

    // LocalAlloc(one/socket) is best or ties default at full spread.
    EXPECT_LE(one_la, def * 1.05);
    // Membind is the pathology: ~2x or worse (paper: 109 vs 51).
    EXPECT_GT(one_mb / one_la, 1.8);
    EXPECT_GT(two_mb / two_la, 1.5);
    // Interleave clearly worse than default (paper: 67 vs 51).
    EXPECT_GT(il / def, 1.2);
}

/** Table 2, 16 tasks: Default ~ Two MPI + Local Alloc at full load. */
TEST(PaperShapes, DefaultMatchesPinnedAtFullLoad)
{
    OptionSweepResult sweep =
        sweepOptions(longsConfig(), {16}, "nas-cg-b");
    const auto &row = sweep.seconds[0];
    EXPECT_TRUE(std::isnan(row[1])); // One MPI infeasible at 16
    EXPECT_NEAR(row[0] / row[3], 1.0, 0.05);
}

/** Abstract: >25% improvement available from placement choices. */
TEST(PaperShapes, PlacementDecisionsWorthOverTwentyFivePercent)
{
    for (const char *w : {"nas-cg-b", "nas-ft-b"}) {
        OptionSweepResult sweep = sweepOptions(longsConfig(), {8}, w);
        double lo = 1e300, hi = 0.0;
        for (double v : sweep.seconds[0]) {
            if (std::isnan(v))
                continue;
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        EXPECT_GT(hi / lo, 1.25) << w;
    }
}

/** Table 4: CG scaling collapses on Longs beyond 8 tasks. */
TEST(PaperShapes, CgStopsScalingOnLongs)
{
    auto t = defaultScalingTimes(longsConfig(), {8, 16}, "nas-cg-b");
    // 16 tasks no better than ~15% over 8 tasks (paper: worse).
    EXPECT_GT(t[1] / t[0], 0.85);
}

/** Table 4: FT keeps scaling (weakly) where CG stalls. */
TEST(PaperShapes, FtOutScalesCgAtSixteen)
{
    auto tcg = defaultScalingTimes(longsConfig(), {8, 16}, "nas-cg-b");
    auto tft = defaultScalingTimes(longsConfig(), {8, 16}, "nas-ft-b");
    EXPECT_LT(tft[1] / tft[0], tcg[1] / tcg[0]);
}

/** Section 4: 10-20% app-level gain from placement (Longs). */
TEST(PaperShapes, ApplicationLevelPlacementGain)
{
    OptionSweepResult sweep = sweepOptions(longsConfig(), {4}, "pop-x1");
    double gain = placementGain(sweep.seconds[0]);
    EXPECT_GT(gain, 0.03);
    double lo = 1e300, hi = 0.0;
    for (double v : sweep.seconds[0]) {
        if (std::isnan(v))
            continue;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_GT(hi / lo, 1.10);
}

/** Table 12: POP scales nearly linearly everywhere. */
TEST(PaperShapes, PopScalesLinearly)
{
    for (auto cfg_fn : {dmzConfig, longsConfig}) {
        MachineConfig m = cfg_fn();
        auto t = defaultScalingTimes(m, {1, m.totalCores()}, "pop-x1");
        double eff = t[0] / t[1] / m.totalCores();
        EXPECT_GT(eff, 0.85) << m.name;
        EXPECT_LT(eff, 1.25) << m.name;
    }
}

} // namespace
} // namespace mcscope
