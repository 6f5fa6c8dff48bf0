/**
 * @file
 * Unit tests for the simulated MPI runtime: sub-layer and
 * implementation models, message overheads, transfer shaping, and
 * same-die fast paths.
 */

#include <gtest/gtest.h>

#include <memory>

#include "machine/config.hh"
#include "simmpi/comm.hh"
#include "simmpi/implementation.hh"
#include "simmpi/sublayer.hh"

namespace mcscope {
namespace {

/** Helper assembling machine + placement + runtime for a test body. */
struct Rig
{
    Machine machine;
    std::optional<Placement> placement;
    std::unique_ptr<MpiRuntime> rt;

    Rig(const MachineConfig &cfg, const NumactlOption &opt, int ranks,
        MpiImpl impl = MpiImpl::OpenMpi,
        SubLayer sl = SubLayer::USysV)
        : machine(cfg)
    {
        placement = Placement::create(cfg, machine.topology(), opt,
                                      ranks);
        EXPECT_TRUE(placement.has_value());
        rt = std::make_unique<MpiRuntime>(machine, *placement, impl, sl);
    }
};

NumactlOption
twoPerSocketLocal()
{
    return table5Options()[3];
}

NumactlOption
onePerSocketLocal()
{
    return table5Options()[1];
}

TEST(SubLayer, SysVIsMuchSlowerThanUSysV)
{
    SubLayerModel sysv = subLayerModel(SubLayer::SysV);
    SubLayerModel usysv = subLayerModel(SubLayer::USysV);
    EXPECT_GT(sysv.lockPairCost, 10.0 * usysv.lockPairCost);
}

TEST(Implementation, PersonalityOrderingMatchesFigure14)
{
    MpiImplModel mpich = mpiImplModel(MpiImpl::Mpich2);
    MpiImplModel lam = mpiImplModel(MpiImpl::Lam);
    MpiImplModel ompi = mpiImplModel(MpiImpl::OpenMpi);

    // Latency: LAM < OpenMPI < MPICH2.
    EXPECT_LT(lam.baseLatency, ompi.baseLatency);
    EXPECT_LT(ompi.baseLatency, mpich.baseLatency);

    // Bandwidth winners by size band.
    double small = 4.0 * 1024.0;
    double mid = 64.0 * 1024.0;
    double large = 1024.0 * 1024.0;
    EXPECT_GT(lam.copyEfficiency(small), ompi.copyEfficiency(small));
    EXPECT_GT(lam.copyEfficiency(small), mpich.copyEfficiency(small));
    EXPECT_GT(ompi.copyEfficiency(mid), lam.copyEfficiency(mid));
    EXPECT_GT(mpich.copyEfficiency(large), ompi.copyEfficiency(large));
    EXPECT_GT(mpich.copyEfficiency(large), lam.copyEfficiency(large));
}

TEST(Implementation, CopyEfficiencyIsSmoothAndBounded)
{
    for (MpiImpl impl : allMpiImpls()) {
        MpiImplModel m = mpiImplModel(impl);
        double prev = m.copyEfficiency(1.0);
        for (double b = 1.0; b <= 8.0 * 1024.0 * 1024.0; b *= 2.0) {
            double e = m.copyEfficiency(b);
            EXPECT_GT(e, 0.0);
            EXPECT_LE(e, 1.0);
            // No jumps bigger than the plateau gaps.
            EXPECT_LT(std::abs(e - prev), 0.35);
            prev = e;
        }
    }
}

TEST(Comm, SameDieLatencyBeatsCrossSocket)
{
    Rig rig(dmzConfig(), twoPerSocketLocal(), 4);
    // Ranks 0,1 share socket 0; rank 2 lives on socket 1.
    SimTime same = rig.rt->messageOverhead(0, 1, 1024.0);
    SimTime cross = rig.rt->messageOverhead(0, 2, 1024.0);
    EXPECT_LT(same, cross);
}

TEST(Comm, SameDieBandwidthBeatsCrossSocket)
{
    Rig rig(dmzConfig(), twoPerSocketLocal(), 4);
    double same = rig.rt->transferBandwidth(0, 1, 1 << 20);
    double cross = rig.rt->transferBandwidth(0, 2, 1 << 20);
    EXPECT_GT(same, cross);
    // Paper: ~10-13% benefit.
    EXPECT_NEAR(same / cross, 1.12, 0.05);
}

TEST(Comm, SysVDominatesSmallMessageOverhead)
{
    Rig usysv(dmzConfig(), twoPerSocketLocal(), 2, MpiImpl::Lam,
              SubLayer::USysV);
    Rig sysv(dmzConfig(), twoPerSocketLocal(), 2, MpiImpl::Lam,
             SubLayer::SysV);
    SimTime fast = usysv.rt->messageOverhead(0, 1, 8.0);
    SimTime slow = sysv.rt->messageOverhead(0, 1, 8.0);
    EXPECT_GT(slow, 3.0 * fast);
}

TEST(Comm, SysVMatchesUSysVForLargeMessages)
{
    // Figures 11-13: at 4 MiB the payload dominates the one-way time,
    // so the SysV semaphore cost all but vanishes.
    Rig usysv(longsConfig(), table5Options()[0], 2, MpiImpl::Lam,
              SubLayer::USysV);
    Rig sysv(longsConfig(), table5Options()[0], 2, MpiImpl::Lam,
             SubLayer::SysV);
    const double large = 4.0 * 1024.0 * 1024.0;
    auto total = [&](const Rig &rig) {
        return rig.rt->messageOverhead(0, 1, large) +
               large / rig.rt->transferBandwidth(0, 1, large);
    };
    EXPECT_LT(total(sysv) / total(usysv), 1.05);
}

TEST(Comm, HopsAddLatencyOnTheLadder)
{
    Rig rig(longsConfig(), onePerSocketLocal(), 8);
    // Find the pair with the most hops under this placement.
    SimTime min_lat = 1e9, max_lat = 0.0;
    for (int a = 0; a < 8; ++a) {
        for (int b = 0; b < 8; ++b) {
            if (a == b)
                continue;
            SimTime l = rig.rt->messageOverhead(a, b, 8.0);
            min_lat = std::min(min_lat, l);
            max_lat = std::max(max_lat, l);
        }
    }
    EXPECT_GT(max_lat, min_lat);
}

TEST(Comm, LatencyNoiseScalesOverhead)
{
    Rig rig(dmzConfig(), twoPerSocketLocal(), 2);
    SimTime quiet = rig.rt->messageOverhead(0, 1, 64.0);
    rig.rt->setLatencyNoiseFactor(1.5);
    SimTime noisy = rig.rt->messageOverhead(0, 1, 64.0);
    EXPECT_NEAR(noisy / quiet, 1.5, 1e-9);
}

TEST(Comm, RendezvousProtocolAddsCostAboveThreshold)
{
    Rig rig(dmzConfig(), twoPerSocketLocal(), 2, MpiImpl::OpenMpi);
    const MpiImplModel &m = rig.rt->implModel();
    SimTime below =
        rig.rt->messageOverhead(0, 1, m.eagerThreshold / 2.0);
    SimTime above =
        rig.rt->messageOverhead(0, 1, m.eagerThreshold * 2.0);
    EXPECT_GT(above, below);
}

TEST(Comm, PairKeyIsSymmetricAndRoundSeparated)
{
    EXPECT_EQ(MpiRuntime::pairKey(0, 0, 3, 5),
              MpiRuntime::pairKey(0, 0, 5, 3));
    EXPECT_NE(MpiRuntime::pairKey(0, 0, 3, 5),
              MpiRuntime::pairKey(0, 1, 3, 5));
    EXPECT_NE(MpiRuntime::pairKey(0, 0, 3, 5),
              MpiRuntime::pairKey(0, 0, 3, 6));
}

TEST(Comm, MembindBuffersShapeTransferPath)
{
    // Under membind, all comm buffers sit on node 0: transfers between
    // ranks far from node 0 still hammer node 0's controller.
    Rig rig(longsConfig(), table5Options()[2], 8);
    Work w = rig.rt->transfer(4, 5, 1 << 20);
    Machine &m = rig.machine;
    bool touches_node0 = false;
    for (ResourceId r : w.path)
        touches_node0 = touches_node0 || r == m.memResource(0);
    EXPECT_TRUE(touches_node0);
}

} // namespace
} // namespace mcscope
