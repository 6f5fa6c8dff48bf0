/**
 * @file
 * Unit tests for the experiment harness: run orchestration, sweeps,
 * metrics, reports, the registry, and calibration documentation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/calibration.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/registry.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "kernels/stream.hh"
#include "machine/config.hh"

namespace mcscope {
namespace {

TEST(Experiment, InvalidPlacementYieldsInvalidResult)
{
    StreamWorkload stream(1u << 20, 2);
    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = table5Options()[1]; // one per socket
    cfg.ranks = 4;                   // > 2 sockets
    RunResult r = runExperiment(cfg, stream);
    EXPECT_FALSE(r.valid);
}

TEST(Experiment, DeterministicAcrossRuns)
{
    StreamWorkload stream(1u << 20, 4);
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.option = table5Options()[5];
    cfg.ranks = 8;
    RunResult a = runExperiment(cfg, stream);
    RunResult b = runExperiment(cfg, stream);
    ASSERT_TRUE(a.valid && b.valid);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.events, b.events);
}

TEST(Experiment, SweepShapeMatchesTableLayout)
{
    OptionSweepResult sweep = sweepOptions(dmzConfig(), {2, 4}, "stream");
    ASSERT_EQ(sweep.rankCounts.size(), 2u);
    ASSERT_EQ(sweep.options.size(), 6u);
    ASSERT_EQ(sweep.seconds.size(), 2u);
    ASSERT_EQ(sweep.seconds[0].size(), 6u);
    // DMZ at 4 ranks: the One-MPI columns are "-" (Table 3).
    EXPECT_FALSE(std::isnan(sweep.seconds[1][0]));
    EXPECT_TRUE(std::isnan(sweep.seconds[1][1]));
    EXPECT_TRUE(std::isnan(sweep.seconds[1][2]));
    EXPECT_FALSE(std::isnan(sweep.seconds[1][3]));
}

TEST(Metrics, SpeedupsAndEfficiencies)
{
    std::vector<double> times = {100.0, 50.0, 30.0};
    auto s = speedups(times);
    EXPECT_DOUBLE_EQ(s[0], 1.0);
    EXPECT_DOUBLE_EQ(s[1], 2.0);
    EXPECT_NEAR(s[2], 100.0 / 30.0, 1e-12);

    auto e = efficiencies(times, {1, 2, 4});
    EXPECT_DOUBLE_EQ(e[0], 1.0);
    EXPECT_DOUBLE_EQ(e[1], 1.0);
    EXPECT_NEAR(e[2], (100.0 / 30.0) / 4.0, 1e-12);
}

TEST(Metrics, EfficienciesRejectNonPositiveRanks)
{
    std::vector<double> times = {100.0, 50.0};
    EXPECT_DEATH(efficiencies(times, {1, 0}), "positive");
    EXPECT_DEATH(efficiencies(times, {-2, 4}), "positive");
}

TEST(Metrics, SingleStarRatioAndPlacementGain)
{
    EXPECT_DOUBLE_EQ(singleToStarRatio(1.0, 2.5), 2.5);
    EXPECT_NEAR(placementGain({100.0, 80.0, 120.0}), 0.2, 1e-12);
    EXPECT_DOUBLE_EQ(placementGain({100.0}), 0.0);
    // NaN cells (invalid options) are ignored.
    EXPECT_NEAR(placementGain({100.0, std::nan(""), 50.0}), 0.5,
                1e-12);
}

TEST(Telemetry, SweepRecordsEveryGridPoint)
{
    SweepAxes axes;
    axes.machinePreset = "dmz";
    axes.workloads = {"stream"};
    axes.rankCounts = {2, 4};
    const SweepPlan plan = SweepPlan::expand(axes);
    // A cache of its own, so every sample is a simulation and not a
    // hit left behind by another test.
    ResultCache cache;
    SweepTelemetry telemetry;
    RunnerOptions opts;
    opts.jobs = 2;
    opts.cache = &cache;
    opts.telemetry = &telemetry;
    const PlanResults results = runPlan(plan, opts);
    ASSERT_EQ(results.stats.simulations, results.stats.uniqueSpecs);
    const OptionSweepResult sweep =
        optionSweepSlice(plan, results, 0, 0, 0);
    ASSERT_EQ(telemetry.points.size(),
              2 * sweep.options.size());
    EXPECT_EQ(telemetry.jobs, 2);
    EXPECT_GT(telemetry.wallSeconds, 0.0);
    EXPECT_GT(telemetry.totalEvents(), 0u);
    EXPECT_GT(telemetry.eventsPerSecond(), 0.0);
    EXPECT_GT(telemetry.occupancy(), 0.0);
    EXPECT_LE(telemetry.occupancy(), 1.0 + 1e-9);
    // Samples line up with the sweep grid, row-major.
    for (size_t row = 0; row < 2; ++row) {
        for (size_t col = 0; col < sweep.options.size(); ++col) {
            const GridPointSample &p =
                telemetry.points[row * sweep.options.size() + col];
            EXPECT_EQ(p.ranks, sweep.rankCounts[row]);
            EXPECT_EQ(p.label, sweep.options[col].label);
            EXPECT_EQ(p.valid,
                      !std::isnan(sweep.seconds[row][col]));
            if (p.valid) {
                EXPECT_DOUBLE_EQ(p.simSeconds,
                                 sweep.seconds[row][col]);
            }
        }
    }
    EXPECT_NE(telemetry.summary().find("grid points"),
              std::string::npos);
}

TEST(Telemetry, JsonDumpHasAllFields)
{
    SweepTelemetry t;
    t.jobs = 2;
    t.wallSeconds = 1.5;
    t.points.push_back({4, "Default", true, 0.5, 2.5, 100});
    t.points.push_back({8, "Inter\"leave", false, 0.25, 0.0, 0});
    std::ostringstream oss;
    t.writeJson(oss);
    const std::string json = oss.str();
    EXPECT_NE(json.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"grid_points\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"total_events\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"valid\": false"), std::string::npos);
    // Labels pass through the JSON string escaper.
    EXPECT_NE(json.find("Inter\\\"leave"), std::string::npos);
}

TEST(Report, OptionSweepTablePrintsDashesForInvalid)
{
    StreamWorkload stream(1u << 20, 2);
    OptionSweepResult sweep;
    sweep.rankCounts = {4};
    sweep.options = table5Options();
    sweep.seconds.emplace_back();
    for (const NumactlOption &option : sweep.options) {
        ExperimentConfig cfg;
        cfg.machine = dmzConfig();
        cfg.option = option;
        cfg.ranks = 4;
        RunResult r = runExperiment(cfg, stream);
        sweep.seconds[0].push_back(r.valid ? r.seconds : std::nan(""));
    }
    TextTable t(optionSweepHeader("Kernel"));
    appendOptionSweepRows(t, sweep, "STREAM");
    std::string s = t.str();
    EXPECT_NE(s.find("One MPI + Local Alloc"), std::string::npos);
    EXPECT_NE(s.find("STREAM"), std::string::npos);
    EXPECT_NE(s.find(" - "), std::string::npos);
}

TEST(Report, SpeedupTableShape)
{
    TextTable t = speedupTable({2, 4}, {"CG", "FT"},
                               {{1.9, 1.8}, {3.5, 3.2}});
    std::string s = t.str();
    EXPECT_NE(s.find("Number of cores"), std::string::npos);
    EXPECT_NE(s.find("1.90"), std::string::npos);
    EXPECT_NE(s.find("3.20"), std::string::npos);
}

TEST(Registry, AllWorkloadsInstantiate)
{
    for (const std::string &name : registeredWorkloads()) {
        auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr) << name;
        EXPECT_FALSE(w->name().empty());
    }
}

TEST(Registry, EveryWorkloadHasASignature)
{
    // Every spec is digested with its registry workload's signature,
    // so an empty one would leave a spec without a digest.
    std::vector<std::string> names = registeredWorkloads();
    names.push_back("stream-triad");
    for (const std::string &name : names)
        EXPECT_FALSE(makeWorkload(name)->signature().empty()) << name;
}

TEST(Registry, EveryWorkloadRunsOnTwoRanks)
{
    for (const std::string &name : registeredWorkloads()) {
        auto w = makeWorkload(name);
        ExperimentConfig cfg;
        cfg.machine = dmzConfig();
        cfg.option = table5Options()[0];
        cfg.ranks = 2;
        RunResult r = runExperiment(cfg, *w);
        ASSERT_TRUE(r.valid) << name;
        EXPECT_GT(r.seconds, 0.0) << name;
        EXPECT_TRUE(std::isfinite(r.seconds)) << name;
    }
}

TEST(Calibration, TableIsPopulatedAndRenderable)
{
    auto entries = calibrationTable();
    EXPECT_GE(entries.size(), 10u);
    for (const auto &e : entries) {
        EXPECT_FALSE(e.name.empty());
        EXPECT_FALSE(e.provenance.empty());
    }
    std::string report = calibrationReport();
    EXPECT_NE(report.find("coherenceAlpha"), std::string::npos);
    EXPECT_NE(report.find("sysv"), std::string::npos);
}

} // namespace
} // namespace mcscope
