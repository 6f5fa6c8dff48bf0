/**
 * @file
 * Tests for the Debug-build allocation guard (sim/alloc_guard.hh) and
 * the Engine::run zero-allocation contract it enforces (DESIGN.md
 * §12).
 *
 * The positive direction -- representative workloads complete without
 * tripping the in-engine assert -- and the negative direction -- the
 * retained Reference allocator, which reallocates per rerun by
 * design, aborts the run when enforcement is left on -- are both
 * covered, so the guard is proven live, not just compiled in.  The
 * whole suite skips on builds without MCSCOPE_ALLOC_GUARD
 * (RelWithDebInfo tier-1 runs it as a no-op smoke test).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "core/experiment.hh"
#include "core/registry.hh"
#include "machine/config.hh"
#include "machine/machine.hh"
#include "machine/registry.hh"
#include "sim/alloc_guard.hh"

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
    // outgrow the subset solver's first-sized scratch.
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

TEST(AllocGuard, EnvForcedReferenceAllocatorDisablesEnforcement)
{
    // MCSCOPE_REFERENCE_ALLOCATOR=1 is the user-facing A/B switch;
    // it must not turn every Debug run into an abort.
    ::setenv("MCSCOPE_REFERENCE_ALLOCATOR", "1", 1);
    Machine machine(dmzConfig());
    ::unsetenv("MCSCOPE_REFERENCE_ALLOCATOR");

    EXPECT_EQ(machine.engine().allocator(),
              Engine::AllocatorKind::Reference);
    EXPECT_FALSE(machine.engine().allocGuardEnforced());

    auto workload = makeWorkload(registeredWorkloads().front());
    ASSERT_NE(workload, nullptr);
    RunResult res =
        runExperimentOn(machine, defaultConfig(), *workload);
    EXPECT_TRUE(res.valid);
}

TEST(AllocGuardDeathTest, ReferenceAllocatorTripsContract)
{
    if (!alloc_guard::compiledIn())
        GTEST_SKIP() << "MCSCOPE_ALLOC_GUARD not compiled in";

    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Explicitly selecting the Reference oracle keeps enforcement on
    // (unlike the env switch above): its per-rerun reallocation must
    // trip the contract once scratch capacities stop growing.  This
    // is the proof the guard can actually fire.
    EXPECT_DEATH(
        {
            auto workload =
                makeWorkload(registeredWorkloads().front());
            Machine machine(dmzConfig());
            machine.engine().setAllocator(
                Engine::AllocatorKind::Reference);
            runExperimentOn(machine, defaultConfig(), *workload);
        },
        "zero-allocation contract violated");
}

} // namespace
} // namespace mcscope
