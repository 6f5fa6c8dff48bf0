/**
 * @file
 * Tests for the fork-join sweep executor: exactly-once coverage,
 * serial degradation, exception funneling, and the end-to-end
 * guarantee that a parallel option sweep is bit-identical to the
 * serial one (deterministic result ordering by index).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/parallel_for.hh"
#include "core/runner.hh"
#include "machine/config.hh"

namespace mcscope {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (int jobs : {1, 2, 4, 7}) {
        std::vector<std::atomic<int>> hits(100);
        parallelFor(hits.size(), jobs,
                    [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << " with jobs=" << jobs;
    }
}

TEST(ParallelFor, HandlesEmptyAndSingleItemRanges)
{
    int calls = 0;
    parallelFor(0, 8, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, 8, [&](size_t i) {
        ++calls;
        EXPECT_EQ(i, 0u);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, FunnelsWorkerExceptionToCaller)
{
    for (int jobs : {1, 4}) {
        std::atomic<int> ran{0};
        EXPECT_THROW(
            parallelFor(64, jobs,
                        [&](size_t i) {
                            ran.fetch_add(1);
                            if (i == 5)
                                throw std::runtime_error("boom");
                        }),
            std::runtime_error)
            << "jobs=" << jobs;
        EXPECT_GE(ran.load(), 1);
    }
}

TEST(ParallelFor, DefaultJobsReadsEnvironment)
{
    ASSERT_EQ(setenv("MCSCOPE_JOBS", "6", 1), 0);
    EXPECT_EQ(defaultJobs(), 6);
    ASSERT_EQ(setenv("MCSCOPE_JOBS", "garbage", 1), 0);
    EXPECT_EQ(defaultJobs(), 1);
    ASSERT_EQ(setenv("MCSCOPE_JOBS", "0", 1), 0);
    EXPECT_EQ(defaultJobs(), 1);
    ASSERT_EQ(unsetenv("MCSCOPE_JOBS"), 0);
    EXPECT_EQ(defaultJobs(), 1);
}

/** DMZ STREAM over ranks {1, 2, 4}; `options` empty = all six. */
SweepPlan
streamPlan(std::vector<NumactlOption> options)
{
    SweepAxes axes;
    axes.machinePreset = "dmz";
    axes.workloads = {"stream"};
    axes.rankCounts = {1, 2, 4};
    axes.options = std::move(options);
    return SweepPlan::expand(axes);
}

/**
 * Run `plan` with `jobs` workers against a fresh cache, so every
 * unique spec is simulated rather than served from memory.
 */
PlanResults
simulate(const SweepPlan &plan, int jobs)
{
    ResultCache cache;
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.cache = &cache;
    PlanResults results = runPlan(plan, opts);
    EXPECT_EQ(results.stats.simulations, results.stats.uniqueSpecs)
        << "jobs=" << jobs;
    return results;
}

TEST(ParallelSweep, ParallelOptionSweepMatchesSerialBitForBit)
{
    const SweepPlan plan = streamPlan({});
    OptionSweepResult serial =
        optionSweepSlice(plan, simulate(plan, 1), 0, 0, 0);
    OptionSweepResult parallel =
        optionSweepSlice(plan, simulate(plan, 4), 0, 0, 0);

    ASSERT_EQ(parallel.seconds.size(), serial.seconds.size());
    for (size_t i = 0; i < serial.seconds.size(); ++i) {
        ASSERT_EQ(parallel.seconds[i].size(), serial.seconds[i].size());
        for (size_t j = 0; j < serial.seconds[i].size(); ++j) {
            const double a = serial.seconds[i][j];
            const double b = parallel.seconds[i][j];
            if (std::isnan(a)) {
                EXPECT_TRUE(std::isnan(b))
                    << "cell (" << i << ", " << j << ")";
            } else {
                EXPECT_EQ(a, b) << "cell (" << i << ", " << j << ")";
            }
        }
    }
}

TEST(ParallelSweep, ParallelScalingMatchesSerialBitForBit)
{
    const SweepPlan plan = streamPlan({table5Options().front()});
    const PlanResults serial = simulate(plan, 1);
    const PlanResults parallel = simulate(plan, 4);
    ASSERT_EQ(parallel.bySpec.size(), serial.bySpec.size());
    for (size_t i = 0; i < serial.bySpec.size(); ++i) {
        EXPECT_TRUE(serial.bySpec[i].valid) << "rank index " << i;
        EXPECT_EQ(serial.bySpec[i].seconds, parallel.bySpec[i].seconds)
            << "rank index " << i;
        EXPECT_EQ(serial.bySpec[i].events, parallel.bySpec[i].events)
            << "rank index " << i;
    }
}

} // namespace
} // namespace mcscope
