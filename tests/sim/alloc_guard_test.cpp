/**
 * @file
 * Tests for the Debug-build allocation guard (sim/alloc_guard.hh) and
 * the Engine::run zero-allocation contract it enforces (DESIGN.md
 * §12).
 *
 * The positive direction -- representative workloads complete without
 * tripping the in-engine assert -- and the negative direction -- a
 * traced run whose flow paths spill PathVec's inline storage aborts
 * -- are both covered, so the guard is proven live, not just compiled
 * in.  The guard-specific tests skip on builds without
 * MCSCOPE_ALLOC_GUARD (RelWithDebInfo tier-1 runs them as no-op smoke
 * tests).
 */

#include <gtest/gtest.h>

#include <new>

#include "core/experiment.hh"
#include "core/registry.hh"
#include "machine/config.hh"
#include "machine/registry.hh"
#include "sim/alloc_guard.hh"
#include "sim/engine.hh"
#include "sim/task.hh"

namespace mcscope {
namespace {

ExperimentConfig
defaultConfig()
{
    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = table5Options().front(); // Default
    cfg.ranks = 4;
    return cfg;
}

/**
 * A shipped zoo machine, loaded from the source tree's machines/;
 * nullptr when it is missing.
 */
const MachineConfig *
zooMachine(const char *name)
{
    MachineRegistry &reg = MachineRegistry::instance();
    if (reg.find(name) == nullptr) {
        std::string problem = reg.loadDirectory(
            std::string(MCSCOPE_SOURCE_DIR) + "/machines");
        EXPECT_EQ(problem, "");
    }
    return reg.find(name);
}

TEST(AllocGuard, CompileTimeAndRuntimeViewsAgree)
{
    EXPECT_EQ(alloc_guard::kEnabled, alloc_guard::compiledIn());
    // Never armed at rest, regardless of build flavor.
    EXPECT_FALSE(alloc_guard::armed());
}

TEST(AllocGuard, CountsAllocationsOnlyWhileArmed)
{
    if (!alloc_guard::compiledIn())
        GTEST_SKIP() << "MCSCOPE_ALLOC_GUARD not compiled in";

    volatile char *sink = new char[64];
    delete[] const_cast<char *>(sink);
    const uint64_t allocs0 = alloc_guard::allocationCount();
    const uint64_t frees0 = alloc_guard::deallocationCount();

    alloc_guard::arm();
    EXPECT_TRUE(alloc_guard::armed());
    sink = new char[64];
    delete[] const_cast<char *>(sink);
    alloc_guard::disarm();
    EXPECT_FALSE(alloc_guard::armed());

    EXPECT_GT(alloc_guard::allocationCount(), allocs0);
    EXPECT_GT(alloc_guard::deallocationCount(), frees0);

    // Disarmed traffic leaves the counters alone.
    const uint64_t allocs1 = alloc_guard::allocationCount();
    sink = new char[64];
    delete[] const_cast<char *>(sink);
    EXPECT_EQ(alloc_guard::allocationCount(), allocs1);
}

TEST(AllocGuard, CountsEveryOperatorVariant)
{
    if (!alloc_guard::compiledIn())
        GTEST_SKIP() << "MCSCOPE_ALLOC_GUARD not compiled in";

    // The interposition must cover the whole operator family --
    // aligned, nothrow, array, sized -- or a container switch in the
    // hot loop could allocate invisibly.
    struct alignas(64) Wide
    {
        char pad[64];
    };

    alloc_guard::arm();
    const uint64_t allocs0 = alloc_guard::allocationCount();
    const uint64_t frees0 = alloc_guard::deallocationCount();

    Wide *w = new Wide;        // over-aligned new / delete
    delete w;
    Wide *wa = new Wide[3];    // over-aligned new[] / delete[]
    delete[] wa;
    int *ia = new int[8];      // sized delete[]
    delete[] ia;
    char *nt = new (std::nothrow) char;       // nothrow new
    delete nt;
    char *nta = new (std::nothrow) char[16];  // nothrow new[]
    delete[] nta;
    Wide *wn = new (std::nothrow) Wide;       // aligned nothrow new
    delete wn;
    Wide *wna = new (std::nothrow) Wide[2];   // aligned nothrow new[]
    delete[] wna;
    ::operator delete(nullptr);               // null free is a no-op

    alloc_guard::disarm();
    EXPECT_EQ(alloc_guard::allocationCount() - allocs0, 7u);
    EXPECT_EQ(alloc_guard::deallocationCount() - frees0, 7u);
}

TEST(AllocGuard, PauseSuppressesCountingAndNests)
{
    if (!alloc_guard::compiledIn())
        GTEST_SKIP() << "MCSCOPE_ALLOC_GUARD not compiled in";

    alloc_guard::arm();
    const uint64_t allocs0 = alloc_guard::allocationCount();
    {
        alloc_guard::Pause outer;
        alloc_guard::Pause inner;
        volatile char *sink = new char[64];
        delete[] const_cast<char *>(sink);
    }
    EXPECT_EQ(alloc_guard::allocationCount(), allocs0);

    // Counting resumes once every Pause has unwound.
    volatile char *sink = new char[64];
    delete[] const_cast<char *>(sink);
    alloc_guard::disarm();
    EXPECT_GT(alloc_guard::allocationCount(), allocs0);
}

TEST(AllocGuard, SteadyStateLoopIsAllocationFree)
{
    if (!alloc_guard::compiledIn())
        GTEST_SKIP() << "MCSCOPE_ALLOC_GUARD not compiled in";

    // Engine::run arms the guard itself and hard-asserts on any
    // steady-state allocation without scratch-capacity growth, so a
    // valid result IS the proof.  Cover both reference machines, the
    // T3-4 and cluster12 zoo machines, and every registered workload.
    // The 8-socket Longs ladder produces the longest resource paths
    // (and would catch a PathVec inline capacity regression); the zoo
    // machines carry hundreds of resources, so their later components
    // outgrow the solver's first-sized scratch.  Task programs are
    // interpreted under the guard as well: nothing pauses it around
    // event handling.
    const MachineConfig *t34 = zooMachine("t3-4");
    const MachineConfig *cluster12 = zooMachine("cluster12");
    ASSERT_NE(t34, nullptr);
    ASSERT_NE(cluster12, nullptr);
    for (const std::string &name : registeredWorkloads()) {
        auto workload = makeWorkload(name);
        ASSERT_NE(workload, nullptr);

        ExperimentConfig cfg = defaultConfig();
        RunResult dmz = runExperiment(cfg, *workload);
        EXPECT_TRUE(dmz.valid) << name;

        cfg.machine = longsConfig();
        cfg.option = table5Options()[1]; // One MPI + Local Alloc
        cfg.ranks = 8;
        RunResult longs = runExperiment(cfg, *workload);
        EXPECT_TRUE(longs.valid) << name;

        cfg.option = {"spread", TaskScheme::Spread,
                      MemPolicy::LocalAlloc};
        cfg.ranks = 16;
        for (const MachineConfig *zoo : {t34, cluster12}) {
            cfg.machine = *zoo;
            RunResult res = runExperiment(cfg, *workload);
            EXPECT_TRUE(res.valid) << name << " on " << zoo->name;
        }
    }
}

/**
 * Two tasks replaying one Work across `hops` resources, traced.  The
 * run loop copies each finished flow's path into its FlowEnd trace
 * event outside any Pause, so a path longer than PathVec's inline
 * capacity allocates on every flow completion.
 */
void
runTracedLoop(int hops)
{
    Engine e;
    Work w;
    w.amount = 100.0;
    for (int h = 0; h < hops; ++h)
        w.path.push_back(e.addResource("r" + std::to_string(h), 10.0));
    for (int t = 0; t < 2; ++t) {
        e.addTask(TaskProgram(
            "t" + std::to_string(t), std::vector<Prim>{},
            std::vector<Prim>{w}, 50));
    }
    e.setTraceSink([](const TraceEvent &) {});
    e.run();
}

TEST(AllocGuard, InlinePathTracedRunStaysAllocationFree)
{
    runTracedLoop(8); // PathVec's inline capacity: no spill
}

TEST(AllocGuardDeathTest, SpilledPathCopyTripsContract)
{
    if (!alloc_guard::compiledIn())
        GTEST_SKIP() << "MCSCOPE_ALLOC_GUARD not compiled in";

    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // One hop past the inline capacity: each FlowEnd copy allocates
    // once scratch capacities stop growing.  This is the proof the
    // guard can actually fire.
    EXPECT_DEATH(runTracedLoop(9), "zero-allocation contract violated");
}

} // namespace
} // namespace mcscope
