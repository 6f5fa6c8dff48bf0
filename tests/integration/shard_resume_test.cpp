/**
 * @file
 * End-to-end crash/resume properties of the sharded batch executor,
 * driving the real `mcscope` binary (MCSCOPE_TOOL_PATH is injected by
 * CMake) so the worker re-exec path, the journal, and the fault
 * injection hook are all exercised exactly as in production.
 *
 * The core property: for a small plan, crashing a worker at *every*
 * point index and then resuming must reproduce the uninterrupted
 * CSV byte for byte.
 */

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/audit.hh"
#include "util/subprocess.hh"

using namespace mcscope;

namespace {

/** Fresh empty directory under the system temp dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("mcscope_" + tag + "_" +
                  std::to_string(static_cast<unsigned>(getpid()))))
                    .string();
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

struct ToolRun {
    int exit = -1;
    int signal = 0;
    std::string out;
};

/** Run the real tool to completion, capturing stdout. */
ToolRun
runTool(const std::vector<std::string> &args,
        const std::vector<std::string> &extra_env = {})
{
    std::vector<std::string> argv{MCSCOPE_TOOL_PATH};
    argv.insert(argv.end(), args.begin(), args.end());
    Subprocess proc(argv, /*stdin_data=*/"", extra_env);
    ToolRun run;
    while (proc.readAvailable(run.out)) {
        struct pollfd pfd = {proc.outFd(), POLLIN, 0};
        if (pfd.fd >= 0)
            ::poll(&pfd, 1, 50);
    }
    proc.wait();
    run.exit = proc.exitCode();
    run.signal = proc.termSignal();
    return run;
}

/** Write the small plan spec used throughout; returns its path. */
std::string
writeSpec(const TempDir &dir)
{
    const std::string path = dir.file("plan.json");
    std::ofstream(path) << "{\n"
                           "  \"machine\": \"dmz\",\n"
                           "  \"workloads\": [\"nas-ep-b\"],\n"
                           "  \"ranks\": [2, 4],\n"
                           "  \"options\": [0, 3]\n"
                           "}\n";
    return path;
}

/**
 * Plan points in a pivoted batch CSV: one data row per rank, one
 * column per numactl option after the five fixed columns.
 */
size_t
countPoints(const std::string &csv)
{
    size_t rows = 0;
    size_t optionCols = 0;
    bool sawHeader = false;
    size_t start = 0;
    while (start < csv.size()) {
        size_t end = csv.find('\n', start);
        if (end == std::string::npos)
            end = csv.size();
        if (end > start) {
            if (!sawHeader) {
                sawHeader = true;
                const std::string header =
                    csv.substr(start, end - start);
                size_t fields = 1;
                for (char c : header)
                    if (c == ',')
                        ++fields;
                optionCols = fields > 5 ? fields - 5 : 0;
            } else {
                ++rows;
            }
        }
        start = end + 1;
    }
    return rows * optionCols;
}

TEST(ShardResume, CrashAtEveryPointIndexResumesByteIdentical)
{
    TempDir dir("shard_resume_crash");
    const std::string spec = writeSpec(dir);

    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;
    ASSERT_FALSE(golden.out.empty());
    const size_t points = countPoints(golden.out);
    ASSERT_GE(points, 2u);
    ASSERT_LE(points, 16u) << "plan grew; keep this test small";

    for (size_t i = 0; i < points; ++i) {
        SCOPED_TRACE("crash at point " + std::to_string(i));
        const std::string journal =
            dir.file("crash_" + std::to_string(i) + ".journal");

        // A worker is killed the moment it reaches point i; with no
        // retries allowed the point degrades to a gap and the batch
        // still exits cleanly.
        ToolRun faulted = runTool(
            {"batch", spec, "--csv", "--shards", "2", "--journal",
             journal, "--max-retries", "0"},
            {"MCSCOPE_FAULT_INJECT=crash:" + std::to_string(i)});
        ASSERT_EQ(faulted.exit, 0) << faulted.out;
        ASSERT_NE(faulted.out, golden.out);

        // Resume without the fault: only the gap point runs, the
        // rest comes from the journal.
        ToolRun resumed = runTool({"batch", spec, "--csv",
                                   "--cache-stats", "--resume",
                                   journal});
        ASSERT_EQ(resumed.exit, 0) << resumed.out;
        EXPECT_NE(resumed.out.find(std::to_string(points - 1) +
                                   " from journal, 1 executed"),
                  std::string::npos)
            << resumed.out;

        // A second resume replays entirely from the journal and must
        // match the uninterrupted run byte for byte.
        ToolRun replay =
            runTool({"batch", spec, "--csv", "--resume", journal});
        ASSERT_EQ(replay.exit, 0) << replay.out;
        EXPECT_EQ(replay.out, golden.out);
    }
}

TEST(ShardResume, HangIsKilledByTimeoutAndResumable)
{
    TempDir dir("shard_resume_hang");
    const std::string spec = writeSpec(dir);

    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;

    const std::string journal = dir.file("hang.journal");
    ToolRun faulted = runTool(
        {"batch", spec, "--csv", "--shards", "2", "--journal",
         journal, "--point-timeout", "0.3", "--max-retries", "0",
         "--cache-stats"},
        {"MCSCOPE_FAULT_INJECT=hang:1"});
    ASSERT_EQ(faulted.exit, 0) << faulted.out;
    EXPECT_NE(faulted.out.find("1 timeouts"), std::string::npos)
        << faulted.out;

    ToolRun resumed =
        runTool({"batch", spec, "--csv", "--resume", journal});
    ASSERT_EQ(resumed.exit, 0) << resumed.out;
    EXPECT_EQ(resumed.out, golden.out);
}

TEST(ShardResume, ShardedMatchesSerialWithoutFaults)
{
    TempDir dir("shard_resume_clean");
    const std::string spec = writeSpec(dir);

    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;

    ToolRun sharded = runTool({"batch", spec, "--csv", "--shards",
                               "3", "--journal",
                               dir.file("clean.journal")});
    ASSERT_EQ(sharded.exit, 0) << sharded.out;
    EXPECT_EQ(sharded.out, golden.out);
}

TEST(ShardResume, WarmCacheDirServesEveryPointFromWorkers)
{
    TempDir dir("shard_resume_warm_cache");
    const std::string spec = writeSpec(dir);
    const std::vector<std::string> args = {
        "batch",       spec, "--csv", "--shards", "2", "--cache-dir",
        dir.file("cache"), "--cache-stats"};

    // The CSV comes first, the one-line "journal: ..." summary last.
    auto run = [&](std::string *csv, std::string *stats) {
        ToolRun r = runTool(args);
        ASSERT_EQ(r.exit, 0) << r.out;
        const size_t at = r.out.rfind("journal: ");
        ASSERT_NE(at, std::string::npos) << r.out;
        *csv = r.out.substr(0, at);
        *stats = r.out.substr(at);
    };
    std::string cold_csv, cold_stats, warm_csv, warm_stats;
    run(&cold_csv, &cold_stats);
    run(&warm_csv, &warm_stats);
    EXPECT_EQ(warm_csv, cold_csv);
    EXPECT_EQ(cold_stats.find("worker cache hits"), std::string::npos)
        << cold_stats;

    // Every point is a worker cache hit, so none was simulated --
    // unless MCSCOPE_AUDIT makes the workers validate their hits.
    const std::string points = std::to_string(countPoints(cold_csv));
    EXPECT_NE(warm_stats.find(points + " executed"), std::string::npos)
        << warm_stats;
    if (!auditRequestedByEnv()) {
        EXPECT_NE(warm_stats.find(points + " worker cache hits"),
                  std::string::npos)
            << warm_stats;
    }
}

TEST(ShardResume, AuditedBatchFailsOnDisagreeingCachedRecord)
{
    TempDir dir("shard_resume_audit");
    const std::string spec = writeSpec(dir);
    const std::string cache = dir.file("cache");
    ToolRun cold = runTool(
        {"batch", spec, "--csv", "--shards", "1", "--cache-dir", cache});
    ASSERT_EQ(cold.exit, 0) << cold.out;

    // Plant a wrong number in one valid record: right digest, other
    // seconds.
    const std::string file = cache + "/results.jsonl";
    std::string text;
    {
        std::ifstream in(file);
        text.assign(std::istreambuf_iterator<char>(in), {});
    }
    const size_t valid = text.find("\"valid\":true");
    ASSERT_NE(valid, std::string::npos) << text;
    const size_t at = text.find("\"seconds\":", valid);
    const size_t end = text.find(',', at);
    ASSERT_NE(end, std::string::npos) << text;
    text.replace(at, end - at, "\"seconds\":1.5");
    std::ofstream(file, std::ios::trunc) << text;

    // The audited worker re-simulates the hit and disagrees; the
    // point is not retried, and the run fails instead of printing a
    // table with a gap in it.
    ToolRun audited = runTool({"batch", spec, "--csv", "--shards", "1",
                               "--audit", "--cache-dir", cache,
                               "--cache-stats"});
    EXPECT_EQ(audited.exit, 1) << audited.out;
    EXPECT_NE(audited.out.find("batch: 1 point(s) failed audit validation"),
              std::string::npos)
        << audited.out;
    const std::string header = cold.out.substr(0, cold.out.find('\n'));
    EXPECT_EQ(audited.out.find(header), std::string::npos) << audited.out;
}

TEST(ShardResume, RefusesToOverwriteJournalWithoutResume)
{
    TempDir dir("shard_resume_refuse");
    const std::string spec = writeSpec(dir);
    const std::string journal = dir.file("existing.journal");

    ToolRun first = runTool({"batch", spec, "--csv", "--shards", "2",
                             "--journal", journal});
    ASSERT_EQ(first.exit, 0) << first.out;

    ToolRun second = runTool({"batch", spec, "--csv", "--shards",
                              "2", "--journal", journal});
    EXPECT_EQ(second.exit, 2);
    EXPECT_NE(second.out.find("--resume"), std::string::npos)
        << second.out;

    // Resuming from A while journaling into pre-existing B must also
    // refuse: B's foreign records were never vouched for by --resume.
    ToolRun crossed = runTool(
        {"batch", spec, "--csv", "--shards", "2", "--resume",
         dir.file("other.journal"), "--journal", journal});
    EXPECT_EQ(crossed.exit, 2);
    EXPECT_NE(crossed.out.find("--resume"), std::string::npos)
        << crossed.out;

    // Resuming the same journal it appends to stays allowed.
    ToolRun resumed = runTool({"batch", spec, "--csv", "--shards",
                               "2", "--resume", journal});
    EXPECT_EQ(resumed.exit, 0) << resumed.out;
}

} // namespace
