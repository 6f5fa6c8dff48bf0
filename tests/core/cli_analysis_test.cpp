/**
 * @file
 * Tests for the CLI front end and the bottleneck-analysis module.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "core/analysis.hh"
#include "core/cli.hh"
#include "core/experiment.hh"
#include "core/registry.hh"
#include "kernels/stream.hh"
#include "machine/config.hh"

namespace mcscope {
namespace {

int
cli(const std::vector<std::string> &args, std::string *out = nullptr)
{
    std::ostringstream oss;
    int rc = runCli(args, oss);
    if (out)
        *out = oss.str();
    return rc;
}

TEST(Cli, UsageOnEmptyAndUnknown)
{
    std::string out;
    EXPECT_EQ(cli({}, &out), 2);
    EXPECT_NE(out.find("usage"), std::string::npos);
    EXPECT_EQ(cli({"frobnicate"}, &out), 2);
}

TEST(Cli, ListShowsEverything)
{
    std::string out;
    EXPECT_EQ(cli({"list"}, &out), 0);
    EXPECT_NE(out.find("nas-cg-b"), std::string::npos);
    EXPECT_NE(out.find("longs"), std::string::npos);
    EXPECT_NE(out.find("One MPI + Local Alloc"), std::string::npos);
}

TEST(Cli, CalibrationPrints)
{
    std::string out;
    EXPECT_EQ(cli({"calibration"}, &out), 0);
    EXPECT_NE(out.find("coherenceAlpha"), std::string::npos);
}

TEST(Cli, RunBasic)
{
    std::string out;
    EXPECT_EQ(cli({"run", "stream", "--machine", "dmz", "--ranks",
                   "2"},
                  &out),
              0);
    EXPECT_NE(out.find("stream-triad"), std::string::npos);
    EXPECT_NE(out.find(" s"), std::string::npos);
}

TEST(Cli, RunResolvesOptionByLabelFragment)
{
    std::string out;
    EXPECT_EQ(cli({"run", "stream", "--machine", "longs", "--ranks",
                   "4", "--option", "localalloc"},
                  &out),
              0);
    EXPECT_NE(out.find("Local Alloc"), std::string::npos);
}

TEST(Cli, RunReportsInfeasible)
{
    std::string out;
    EXPECT_EQ(cli({"run", "stream", "--machine", "dmz", "--ranks",
                   "4", "--option", "1"},
                  &out),
              1);
    EXPECT_NE(out.find("infeasible"), std::string::npos);
}

TEST(Cli, RunRejectsBadFlags)
{
    std::string out;
    EXPECT_EQ(cli({"run", "stream", "--walrus"}, &out), 2);
    EXPECT_EQ(cli({"run", "not-a-workload"}, &out), 2);
    EXPECT_EQ(cli({"run", "stream", "--impl", "zmpi"}, &out), 2);
    EXPECT_EQ(cli({"run", "stream", "--ranks", "x,2"}, &out), 2);
    EXPECT_EQ(cli({"run", "stream", "--option", "nothing-matches"},
                  &out),
              2);
}

TEST(Cli, DetailIncludesBottleneck)
{
    std::string out;
    EXPECT_EQ(cli({"run", "stream", "--machine", "dmz", "--ranks",
                   "2", "--detail"},
                  &out),
              0);
    EXPECT_NE(out.find("bottleneck:"), std::string::npos);
    EXPECT_NE(out.find("controllers"), std::string::npos);
}

TEST(Cli, SweepPrintsTableAndGains)
{
    std::string out;
    EXPECT_EQ(cli({"sweep", "stream", "--machine", "dmz", "--ranks",
                   "2,4"},
                  &out),
              0);
    EXPECT_NE(out.find("Interleave"), std::string::npos);
    EXPECT_NE(out.find("placement gain at 2 ranks"),
              std::string::npos);
}

TEST(Cli, SweepPrintsDashForGainWhenDefaultCannotHost)
{
    // Longs has 16 cores, so no option hosts 32 ranks: the row's
    // cells are "-" and so is its placement gain.
    std::string out;
    EXPECT_EQ(cli({"sweep", "nas-cg-b", "--machine", "longs", "--ranks",
                   "32"},
                  &out),
              0)
        << out;
    EXPECT_NE(out.find("placement gain at 32 ranks: -\n"),
              std::string::npos)
        << out;
}

TEST(Cli, SweepWithJobsMatchesSerialOutput)
{
    std::string serial;
    EXPECT_EQ(cli({"sweep", "stream", "--machine", "dmz", "--ranks",
                   "2,4"},
                  &serial),
              0);
    std::string parallel;
    EXPECT_EQ(cli({"sweep", "stream", "--machine", "dmz", "--ranks",
                   "2,4", "--jobs", "4"},
                  &parallel),
              0);
    EXPECT_EQ(serial, parallel);
}

TEST(Cli, SweepAuditValidatesCachedPoints)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("mcscope_cli_audit_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    const std::vector<std::string> args = {
        "sweep",   "stream", "--machine",   "dmz", "--ranks",
        "2",       "--audit", "--cache-dir", dir,   "--cache-stats"};
    std::string cold, warm;
    EXPECT_EQ(cli(args, &cold), 0);
    EXPECT_EQ(cli(args, &warm), 0);
    std::filesystem::remove_all(dir);
    EXPECT_EQ(cold.find("audit-validated"), std::string::npos) << cold;
    EXPECT_NE(warm.find("hits audit-validated"), std::string::npos)
        << warm;
}

TEST(Cli, RejectsBadJobsValues)
{
    std::string out;
    EXPECT_EQ(cli({"sweep", "stream", "--jobs", "0"}, &out), 2);
    EXPECT_NE(out.find("bad --jobs"), std::string::npos);
    EXPECT_EQ(cli({"sweep", "stream", "--jobs", "-2"}, &out), 2);
    EXPECT_EQ(cli({"sweep", "stream", "--jobs", "many"}, &out), 2);
    EXPECT_EQ(cli({"sweep", "stream", "--jobs"}, &out), 2);
}

TEST(Cli, ScalingPrintsSeries)
{
    std::string out;
    EXPECT_EQ(cli({"scaling", "lammps-chain", "--machine", "dmz"},
                  &out),
              0);
    EXPECT_NE(out.find("efficiency"), std::string::npos);
}

TEST(Cli, ScalingHonorsImplAndSublayerLikeSweep)
{
    // sweep and scaling share one prologue, so the MPI flags reach
    // both plans: no flag is silently ignored.
    std::string by_default, lam;
    ASSERT_EQ(cli({"scaling", "nas-cg-b", "--machine", "dmz", "--ranks",
                   "1,2"},
                  &by_default),
              0);
    ASSERT_EQ(cli({"scaling", "nas-cg-b", "--machine", "dmz", "--ranks",
                   "1,2", "--impl", "lam", "--sublayer", "sysv"},
                  &lam),
              0);
    EXPECT_NE(by_default, lam);
    EXPECT_NE(lam.find("107.768"), std::string::npos) << lam;
}

TEST(Cli, ScalingReportsInfeasibleRankCount)
{
    std::string out;
    EXPECT_EQ(cli({"scaling", "nas-cg-b", "--machine", "longs",
                   "--ranks", "1,32"},
                  &out),
              1);
    EXPECT_EQ(out, "infeasible: 'Default' cannot host 32 ranks on "
                   "Longs\n");
}

TEST(Cli, ParseRankList)
{
    EXPECT_EQ(parseRankList("2,4,8"), (std::vector<int>{2, 4, 8}));
    EXPECT_EQ(parseRankList("16"), (std::vector<int>{16}));
    EXPECT_TRUE(parseRankList("").empty());
    EXPECT_TRUE(parseRankList("2,x").empty());
    EXPECT_TRUE(parseRankList("-3").empty());
    EXPECT_TRUE(parseRankList("0").empty());
}

TEST(Cli, ParseRankListRejectsOverflowInsteadOfThrowing)
{
    // All-digits strings beyond int range used to reach std::stoi and
    // escape as std::out_of_range; they must read as invalid input.
    EXPECT_TRUE(parseRankList("99999999999999999999").empty());
    EXPECT_TRUE(parseRankList("2147483648").empty()); // INT_MAX + 1
    EXPECT_TRUE(parseRankList("4,99999999999999999999").empty());
    EXPECT_EQ(parseRankList("2147483647"),
              (std::vector<int>{2147483647}));
}

TEST(Cli, NumericFlagsRejectOverflowInsteadOfThrowing)
{
    std::string out;
    EXPECT_EQ(cli({"run", "stream", "--ranks",
                   "99999999999999999999"},
                  &out),
              2);
    EXPECT_NE(out.find("bad --ranks"), std::string::npos);
    EXPECT_EQ(cli({"sweep", "stream", "--jobs",
                   "99999999999999999999"},
                  &out),
              2);
    EXPECT_NE(out.find("bad --jobs"), std::string::npos);
    EXPECT_EQ(cli({"run", "stream", "--option",
                   "99999999999999999999"},
                  &out),
              2);
    EXPECT_NE(out.find("unknown --option"), std::string::npos);
    EXPECT_EQ(cli({"run", "stream", "--timeline-buckets",
                   "99999999999999999999"},
                  &out),
              2);
    EXPECT_NE(out.find("bad --timeline-buckets"), std::string::npos);
}

TEST(Cli, ServeRejectsSharedFlagsExactlyLikeBatch)
{
    // Both commands parse the executor flags in one place: the same
    // bad input reads the same after the "batch: "/"serve: " prefix.
    auto firstLineAfterPrefix = [](const std::string &out) {
        return out.substr(out.find(": ") + 2,
                          out.find('\n') - out.find(": ") - 2);
    };
    for (const std::vector<std::string> &bad :
         {std::vector<std::string>{"--backoff", "soon"},
          std::vector<std::string>{"--walrus"}}) {
        std::vector<std::string> batch_args = {"batch", "spec.json"};
        std::vector<std::string> serve_args = {"serve"};
        batch_args.insert(batch_args.end(), bad.begin(), bad.end());
        serve_args.insert(serve_args.end(), bad.begin(), bad.end());
        std::string batch, serve;
        EXPECT_EQ(cli(batch_args, &batch), 2) << bad[0];
        EXPECT_EQ(cli(serve_args, &serve), 2) << bad[0];
        EXPECT_EQ(batch.rfind("batch: ", 0), 0u) << batch;
        EXPECT_EQ(serve.rfind("serve: ", 0), 0u) << serve;
        EXPECT_EQ(firstLineAfterPrefix(serve), firstLineAfterPrefix(batch));
    }
}

TEST(Cli, TraceOutWritesParseableRecords)
{
    const std::string path =
        testing::TempDir() + "mcscope_cli_trace.json";
    std::string out;
    EXPECT_EQ(cli({"run", "stream-triad", "--machine", "dmz",
                   "--ranks", "2", "--trace-out", path},
                  &out),
              0);
    EXPECT_NE(out.find("trace: "), std::string::npos);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(body.str().find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(body.str().find("\"ph\":\"E\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Cli, TimelineOutWritesCsv)
{
    const std::string path =
        testing::TempDir() + "mcscope_cli_timeline.csv";
    std::string out;
    EXPECT_EQ(cli({"run", "stream", "--machine", "dmz", "--ranks",
                   "2", "--timeline-out", path, "--timeline-buckets",
                   "8"},
                  &out),
              0);
    EXPECT_NE(out.find("timeline: "), std::string::npos);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header.rfind("bucket_start,bucket_end,", 0), 0u);
    std::remove(path.c_str());
}

TEST(Cli, DetailIncludesEngineCountersAndTimeline)
{
    std::string out;
    EXPECT_EQ(cli({"run", "stream", "--machine", "dmz", "--ranks",
                   "2", "--detail", "--timeline-buckets", "8"},
                  &out),
              0);
    EXPECT_NE(out.find("engine: "), std::string::npos);
    EXPECT_NE(out.find("allocator reruns"), std::string::npos);
    EXPECT_NE(out.find(" component solves), "), std::string::npos);
    EXPECT_NE(out.find("utilization timeline"), std::string::npos);
}

TEST(Cli, BatchCoherenceOverrideReachesEveryMachineVariant)
{
    // A spec with a machines axis: --coherence must change the rows of
    // every machine, not only the first (the resolved) one.
    const std::string spec = std::string(MCSCOPE_SOURCE_DIR) +
                             "/examples/paper/table11_lammps_options.json";
    std::string plain;
    std::string snoopy;
    ASSERT_EQ(cli({"batch", spec, "--csv"}, &plain), 0) << plain;
    ASSERT_EQ(cli({"batch", spec, "--csv", "--coherence", "snoopy"},
                  &snoopy),
              0)
        << snoopy;
    auto rowsOf = [](const std::string &csv, const std::string &machine) {
        std::istringstream in(csv);
        std::string rows;
        for (std::string line; std::getline(in, line);) {
            if (line.rfind(machine + ",", 0) == 0)
                rows += line + "\n";
        }
        return rows;
    };
    for (const char *machine : {"Longs", "DMZ"}) {
        const std::string before = rowsOf(plain, machine);
        const std::string after = rowsOf(snoopy, machine);
        EXPECT_FALSE(before.empty()) << machine;
        EXPECT_EQ(std::count(before.begin(), before.end(), '\n'),
                  std::count(after.begin(), after.end(), '\n'))
            << machine;
        EXPECT_NE(before, after)
            << "--coherence snoopy left the " << machine
            << " rows unchanged";
    }
}

TEST(Cli, BatchRejectsCoherenceOnDirectorySweep)
{
    // Every variant of a directory_entries sweep runs in Directory
    // mode, so an override would be dropped without a word.
    const std::string spec = std::string(MCSCOPE_SOURCE_DIR) +
                             "/examples/batch_dirsweep.json";
    std::string out;
    EXPECT_EQ(cli({"batch", spec, "--csv", "--coherence", "snoopy"},
                  &out),
              2);
    EXPECT_EQ(out, "batch: --coherence cannot be combined with a "
                   "directory_entries spec\n");
}

TEST(Cli, SweepTelemetryJsonAndSummary)
{
    const std::string path =
        testing::TempDir() + "mcscope_cli_telemetry.json";
    std::string out;
    EXPECT_EQ(cli({"sweep", "stream", "--machine", "dmz", "--ranks",
                   "2,4", "--telemetry-out", path},
                  &out),
              0);
    EXPECT_NE(out.find("telemetry: "), std::string::npos);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("\"grid_points\": 12"),
              std::string::npos);
    EXPECT_NE(body.str().find("\"points\": ["), std::string::npos);
    EXPECT_NE(body.str().find("\"component_solves\": "),
              std::string::npos);
    std::remove(path.c_str());

    // --detail alone prints the summary without needing a file.
    EXPECT_EQ(cli({"scaling", "stream", "--machine", "dmz",
                   "--ranks", "1,2", "--detail"},
                  &out),
              0);
    EXPECT_NE(out.find("telemetry: "), std::string::npos);
    EXPECT_NE(out.find("grid points"), std::string::npos);
}

TEST(Analysis, StreamIsControllerBound)
{
    StreamWorkload stream(4u << 20, 8);
    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = {"packed", TaskScheme::Packed,
                  MemPolicy::LocalAlloc};
    cfg.ranks = 2;
    DetailedResult res = runExperimentDetailed(cfg, stream);
    ASSERT_TRUE(res.run.valid);
    // Both ranks on socket 0: its controller is the bottleneck.
    EXPECT_EQ(res.hottest().name, "mem0");
    EXPECT_GT(res.hottest().utilization, 0.9);
    EXPECT_GT(res.meanUtilization(ResourceKind::MemoryController),
              res.meanUtilization(ResourceKind::Core));
    std::string report = bottleneckReport(res);
    EXPECT_NE(report.find("bottleneck: mem0"), std::string::npos);
}

TEST(Analysis, BucketsCoverAllResources)
{
    StreamWorkload stream(1u << 20, 2);
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = 4;
    DetailedResult res = runExperimentDetailed(cfg, stream);
    ASSERT_TRUE(res.run.valid);
    EXPECT_EQ(res.cores.size(), 16u);
    EXPECT_EQ(res.controllers.size(), 8u);
    EXPECT_EQ(res.links.size(), 20u); // 10 undirected HT links
}

TEST(Analysis, InvalidRunStaysInvalid)
{
    StreamWorkload stream(1u << 20, 2);
    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = table5Options()[1];
    cfg.ranks = 4;
    DetailedResult res = runExperimentDetailed(cfg, stream);
    EXPECT_FALSE(res.run.valid);
    EXPECT_TRUE(res.cores.empty());
}

} // namespace
} // namespace mcscope
