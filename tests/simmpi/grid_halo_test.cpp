/**
 * @file
 * Tests for the 2-D grid halo exchange: deadlock freedom across grid
 * shapes, volume accounting, and the periodic/open edge distinction.
 */

#include <gtest/gtest.h>

#include <memory>

#include "machine/config.hh"
#include "sim/task.hh"
#include "simmpi/collectives.hh"
#include "simmpi/comm.hh"

namespace mcscope {
namespace {

SimTime
runGridHalo(int rows, int cols, double bytes_ew, double bytes_ns,
            int iterations = 1)
{
    MachineConfig cfg = longsConfig();
    int ranks = rows * cols;
    Machine machine(cfg);
    auto placement = Placement::create(
        cfg, machine.topology(), table5Options()[0], ranks);
    EXPECT_TRUE(placement.has_value());
    MpiRuntime rt(machine, *placement);
    for (int r = 0; r < ranks; ++r) {
        std::vector<Prim> body;
        appendGridHalo(rt, body, r, rows, cols, bytes_ew, bytes_ns,
                       0x10000ULL);
        machine.engine().addTask(TaskProgram(
            "g" + std::to_string(r), std::vector<Prim>{},
            std::move(body), iterations));
    }
    machine.engine().run();
    return machine.engine().makespan();
}

struct GridShape
{
    int rows;
    int cols;
};

class GridHaloShapes : public ::testing::TestWithParam<GridShape>
{
};

TEST_P(GridHaloShapes, CompletesWithoutDeadlock)
{
    auto [rows, cols] = GetParam();
    SimTime t = runGridHalo(rows, cols, 4096.0, 4096.0, 3);
    if (rows * cols > 1) {
        EXPECT_GT(t, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GridHaloShapes,
    ::testing::Values(GridShape{1, 2}, GridShape{2, 1}, GridShape{2, 2},
                      GridShape{1, 8}, GridShape{8, 1}, GridShape{2, 4},
                      GridShape{4, 4}, GridShape{2, 8},
                      GridShape{3, 5}, GridShape{1, 16}));

TEST(GridHalo, SingleRankIsFree)
{
    EXPECT_DOUBLE_EQ(runGridHalo(1, 1, 1e6, 1e6), 0.0);
}

TEST(GridHalo, MoreVolumeTakesLonger)
{
    SimTime small = runGridHalo(4, 4, 4096.0, 4096.0);
    SimTime big = runGridHalo(4, 4, 1 << 20, 1 << 20);
    EXPECT_GT(big, small);
}

TEST(GridHalo, RowOnlyGridSkipsNorthSouthVolume)
{
    // 1 x 16: only the periodic east-west ring carries bytes, so
    // inflating bytes_ns must not change the time.
    SimTime a = runGridHalo(1, 16, 65536.0, 1.0);
    SimTime b = runGridHalo(1, 16, 65536.0, 1e9);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(GridHalo, ShapeMismatchPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_DEATH(
        {
            MachineConfig cfg = longsConfig();
            Machine machine(cfg);
            auto placement = Placement::create(
                cfg, machine.topology(), table5Options()[0], 8);
            MpiRuntime rt(machine, *placement);
            std::vector<Prim> body;
            appendGridHalo(rt, body, 0, 3, 3, 1.0, 1.0, 0x1ULL);
        },
        "does not cover");
}

} // namespace
} // namespace mcscope
