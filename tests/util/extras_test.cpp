/**
 * @file
 * Coverage for the smaller utility and task pieces: logging levels,
 * primitive names, task sequencing edge cases, and CLI CSV output.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/cli.hh"
#include "sim/engine.hh"
#include "sim/task.hh"
#include "util/logging.hh"

namespace mcscope {
namespace {

TEST(Logging, LevelsGate)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    // These must not crash at any level; output goes to stderr.
    inform("informational ", 42);
    warn("warning ", 3.14);
    debugLog("debug detail");
    setLogLevel(LogLevel::Quiet);
    inform("suppressed");
    setLogLevel(before);
}

TEST(LoggingDeath, PanicAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_DEATH({ MCSCOPE_PANIC("boom ", 7); }, "boom 7");
    ASSERT_DEATH({ MCSCOPE_ASSERT(1 == 2, "math broke"); },
                 "math broke");
}

TEST(LoggingDeath, FatalExitsCleanly)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_EXIT({ fatal("user error"); },
                ::testing::ExitedWithCode(1), "user error");
}

TEST(Prims, KindNames)
{
    EXPECT_EQ(primKindName(Work{}), "Work");
    EXPECT_EQ(primKindName(Delay{}), "Delay");
    EXPECT_EQ(primKindName(Rendezvous{}), "Rendezvous");
    EXPECT_EQ(primKindName(SyncAll{}), "SyncAll");
}

TEST(Tasks, StraightLineProgramRunsEveryPrim)
{
    // A program that is only a prologue runs each primitive once, in
    // order, then finishes: one event per primitive plus one for the
    // completion.
    Engine e;
    e.addResource("r", 1.0);
    const int t =
        e.addTask(TaskProgram("seq", {Delay{0.5, 0}, Delay{0.25, 1}}));
    e.run();
    EXPECT_DOUBLE_EQ(e.taskFinishTime(t), 0.75);
    EXPECT_DOUBLE_EQ(e.taggedTime(t, 0), 0.5);
    EXPECT_DOUBLE_EQ(e.taggedTime(t, 1), 0.25);
    EXPECT_EQ(e.eventCount(), 3u);
}

TEST(Tasks, LoopTaskEpilogueRuns)
{
    Engine e;
    ResourceId r = e.addResource("r", 1.0);
    Work w;
    w.amount = 1.0;
    w.path = {r};
    Work epi;
    epi.amount = 3.0;
    epi.path = {r};
    e.addTask(TaskProgram(
        "loop", std::vector<Prim>{w} /* prologue */,
        std::vector<Prim>{w}, 2, std::vector<Prim>{epi}));
    e.run();
    // prologue 1 + 2 iterations + epilogue 3 = 6 units at 1/s.
    EXPECT_NEAR(e.makespan(), 6.0, 1e-9);
}

TEST(Tasks, LoopTaskZeroIterations)
{
    Engine e;
    ResourceId r = e.addResource("r", 1.0);
    Work w;
    w.amount = 2.0;
    w.path = {r};
    e.addTask(TaskProgram(
        "empty", std::vector<Prim>{w}, std::vector<Prim>{}, 5));
    e.run();
    // Empty body: only the prologue runs.
    EXPECT_NEAR(e.makespan(), 2.0, 1e-9);
}

TEST(Cli, SweepCsvIsParseable)
{
    std::ostringstream oss;
    int rc = runCli({"sweep", "stream", "--machine", "dmz", "--ranks",
                     "2,4", "--csv"},
                    oss);
    EXPECT_EQ(rc, 0);
    std::string out = oss.str();
    // Header + two data rows.
    size_t lines = 0;
    for (char c : out)
        lines += c == '\n';
    EXPECT_EQ(lines, 3u);
    EXPECT_NE(out.find("ranks,Default"), std::string::npos);
    // Infeasible cells are empty, not "-" (machine readability).
    EXPECT_NE(out.find(",,"), std::string::npos);
}

} // namespace
} // namespace mcscope
