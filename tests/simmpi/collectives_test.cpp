/**
 * @file
 * Unit tests for collective builders: message counts, deadlock
 * freedom across job sizes, and latency estimates.  Each test builds
 * a real engine run so the rendezvous matching is exercised.
 */

#include <gtest/gtest.h>

#include <memory>

#include "machine/config.hh"
#include "sim/task.hh"
#include "simmpi/collectives.hh"
#include "simmpi/comm.hh"

namespace mcscope {
namespace {

/** Run one collective across `ranks` tasks; returns the makespan. */
template <typename Builder>
SimTime
runCollective(int ranks, Builder build)
{
    MachineConfig cfg = longsConfig();
    Machine machine(cfg);
    auto placement = Placement::create(
        cfg, machine.topology(), table5Options()[0], ranks);
    EXPECT_TRUE(placement.has_value());
    MpiRuntime rt(machine, *placement);
    for (int r = 0; r < ranks; ++r) {
        std::vector<Prim> prims;
        build(rt, prims, r);
        machine.engine().addTask(TaskProgram(
            "r" + std::to_string(r), std::move(prims)));
    }
    machine.engine().run();
    return machine.engine().makespan();
}

TEST(Collectives, PowerOfTwoDetection)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(16));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(Collectives, AllReduceMessageCounts)
{
    EXPECT_EQ(allReduceMessageCount(1), 0);
    EXPECT_EQ(allReduceMessageCount(2), 1);
    EXPECT_EQ(allReduceMessageCount(8), 3);
    EXPECT_EQ(allReduceMessageCount(16), 4);
    EXPECT_EQ(allReduceMessageCount(6), 10); // ring fallback: 2(p-1)
}

class CollectiveSizes : public ::testing::TestWithParam<int>
{
};

TEST_P(CollectiveSizes, AllReduceCompletes)
{
    int p = GetParam();
    SimTime t = runCollective(p, [](const MpiRuntime &rt,
                                    std::vector<Prim> &out, int rank) {
        appendAllReduce(rt, out, rank, 1024.0, 0x10000ULL);
    });
    if (p > 1) {
        EXPECT_GT(t, 0.0);
    }
}

TEST_P(CollectiveSizes, AllToAllCompletes)
{
    int p = GetParam();
    SimTime t = runCollective(p, [](const MpiRuntime &rt,
                                    std::vector<Prim> &out, int rank) {
        appendAllToAll(rt, out, rank, 4096.0, 0x20000ULL);
    });
    if (p > 1) {
        EXPECT_GT(t, 0.0);
    }
}

TEST_P(CollectiveSizes, RingShiftCompletes)
{
    int p = GetParam();
    SimTime t = runCollective(p, [](const MpiRuntime &rt,
                                    std::vector<Prim> &out, int rank) {
        appendRingShift(rt, out, rank, 4096.0, 0x30000ULL);
    });
    if (p > 1) {
        EXPECT_GT(t, 0.0);
    }
}

TEST_P(CollectiveSizes, ExchangeCompletes)
{
    int p = GetParam();
    SimTime t = runCollective(p, [](const MpiRuntime &rt,
                                    std::vector<Prim> &out, int rank) {
        appendExchange(rt, out, rank, 4096.0, 0x40000ULL);
    });
    if (p > 1) {
        EXPECT_GT(t, 0.0);
    }
}

// 3, 5, 6 exercise the non-power-of-two fallbacks; odd sizes exercise
// ring parity handling.
INSTANTIATE_TEST_SUITE_P(JobSizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 16));

TEST(Collectives, BiggerMessagesTakeLonger)
{
    auto run = [](double bytes) {
        return runCollective(8, [bytes](const MpiRuntime &rt,
                                        std::vector<Prim> &out,
                                        int rank) {
            appendAllToAll(rt, out, rank, bytes, 0x50000ULL);
        });
    };
    EXPECT_GT(run(1 << 20), run(1 << 12));
}

TEST(Collectives, AllReduceLatencyEstimateGrowsWithRanks)
{
    MachineConfig cfg = longsConfig();
    Machine machine(cfg);
    SimTime prev = 0.0;
    for (int p : {2, 4, 8, 16}) {
        auto placement = Placement::create(
            cfg, machine.topology(), table5Options()[0], p);
        ASSERT_TRUE(placement.has_value());
        MpiRuntime rt(machine, *placement);
        SimTime est = allReduceLatencyEstimate(rt, 0, 16.0);
        EXPECT_GT(est, prev);
        prev = est;
    }
}

TEST(Collectives, SysVAllReduceSlowerThanUSysV)
{
    MachineConfig cfg = longsConfig();
    auto run = [&cfg](SubLayer sl) {
        Machine machine(cfg);
        auto placement = Placement::create(
            cfg, machine.topology(), table5Options()[0], 8);
        MpiRuntime rt(machine, *placement, MpiImpl::Lam, sl);
        for (int r = 0; r < 8; ++r) {
            std::vector<Prim> prims;
            appendAllReduce(rt, prims, r, 16.0, 0x60000ULL);
            machine.engine().addTask(TaskProgram(
                "r" + std::to_string(r), std::move(prims)));
        }
        machine.engine().run();
        return machine.engine().makespan();
    };
    EXPECT_GT(run(SubLayer::SysV), 2.0 * run(SubLayer::USysV));
}

} // namespace
} // namespace mcscope
