/**
 * @file
 * Record file and sharded-executor protocol tests: append/load round
 * trips, corrupt-tail tolerance, concurrent appenders across threads
 * and processes, resume lookups, hostile numbers in manifests and
 * worker records, and the fault-injection grammar.
 */

#include <algorithm>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/journal.hh"
#include "core/runner.hh"
#include "util/json.hh"
#include "util/transport.hh"

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
    const std::string &path() const { return path_; }
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

RunResult
sampleResult(double seconds, uint64_t events)
{
    RunResult r;
    r.valid = true;
    r.seconds = seconds;
    r.taggedSeconds[1] = seconds * 0.75;
    r.events = events;
    return r;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(Journal, AppendLoadRoundTrip)
{
    TempDir dir("journal_roundtrip");
    const std::string path = dir.file("sweep.journal");
    {
        SweepJournal journal(path);
        journal.append(0x1111, sampleResult(1.5, 10));
        journal.append(0x2222, sampleResult(2.5, 20));
        RunResult infeasible; // valid=false cells journal too
        journal.append(0x3333, infeasible);
        EXPECT_EQ(journal.appended(), 3u);
    }
    JournalLoadStats stats;
    auto loaded = loadJournal(path, &stats);
    EXPECT_EQ(stats.records, 3u);
    EXPECT_EQ(stats.corrupt, 0u);
    ASSERT_EQ(loaded.size(), 3u);
    EXPECT_DOUBLE_EQ(loaded.at(0x1111).seconds, 1.5);
    EXPECT_EQ(loaded.at(0x1111).events, 10u);
    EXPECT_DOUBLE_EQ(loaded.at(0x1111).taggedSeconds.at(1),
                     1.5 * 0.75);
    EXPECT_DOUBLE_EQ(loaded.at(0x2222).seconds, 2.5);
    EXPECT_FALSE(loaded.at(0x3333).valid);
}

TEST(Journal, MissingFileLoadsEmpty)
{
    TempDir dir("journal_missing");
    JournalLoadStats stats;
    auto loaded = loadJournal(dir.file("nonexistent.journal"), &stats);
    EXPECT_TRUE(loaded.empty());
    EXPECT_EQ(stats.records, 0u);
    EXPECT_EQ(stats.corrupt, 0u);
}

TEST(Journal, ToleratesTornTail)
{
    TempDir dir("journal_torn");
    const std::string path = dir.file("sweep.journal");
    {
        SweepJournal journal(path);
        journal.append(0xaaaa, sampleResult(1.0, 5));
        journal.append(0xbbbb, sampleResult(2.0, 6));
    }
    // Simulate a supervisor killed mid-append: truncate the file
    // inside the last record.
    std::string text = readFile(path);
    ASSERT_GT(text.size(), 20u);
    std::ofstream(path, std::ios::trunc)
        << text.substr(0, text.size() - 20);

    JournalLoadStats stats;
    auto loaded = loadJournal(path, &stats);
    EXPECT_EQ(stats.records, 1u);
    EXPECT_EQ(stats.corrupt, 1u);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_DOUBLE_EQ(loaded.at(0xaaaa).seconds, 1.0);
}

TEST(Journal, AppendAfterTornTailIsKept)
{
    TempDir dir("journal_torn_append");
    const std::string path = dir.file("sweep.journal");
    {
        SweepJournal journal(path);
        journal.append(0xaaaa, sampleResult(1.0, 5));
        journal.append(0xbbbb, sampleResult(2.0, 6));
    }
    std::string text = readFile(path);
    ASSERT_GT(text.size(), 20u);
    std::ofstream(path, std::ios::trunc)
        << text.substr(0, text.size() - 20);

    // The resumed supervisor's first record must not be glued onto
    // the torn line and lost with it.
    {
        SweepJournal journal(path);
        journal.append(0xcccc, sampleResult(3.0, 7));
    }
    JournalLoadStats stats;
    auto loaded = loadJournal(path, &stats);
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.corrupt, 1u);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_DOUBLE_EQ(loaded.at(0xaaaa).seconds, 1.0);
    EXPECT_DOUBLE_EQ(loaded.at(0xcccc).seconds, 3.0);
}

TEST(Journal, SkipsMalformedMiddleLines)
{
    TempDir dir("journal_malformed");
    const std::string path = dir.file("sweep.journal");
    {
        SweepJournal journal(path);
        journal.append(0xaaaa, sampleResult(1.0, 5));
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"digest\": 42}\n";        // not a valid record
        out << "complete garbage\n";       // not even JSON
    }
    {
        // Resume-style append behind the damage still loads.
        SweepJournal journal(path);
        journal.append(0xbbbb, sampleResult(2.0, 6));
    }
    JournalLoadStats stats;
    auto loaded = loadJournal(path, &stats);
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.corrupt, 2u);
    EXPECT_EQ(loaded.size(), 2u);
}

TEST(Journal, LaterRecordWinsOnDuplicateDigest)
{
    TempDir dir("journal_dup");
    const std::string path = dir.file("sweep.journal");
    {
        SweepJournal journal(path);
        journal.append(0xcccc, sampleResult(1.0, 5));
        journal.append(0xcccc, sampleResult(1.0, 7));
    }
    auto loaded = loadJournal(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.at(0xcccc).events, 7u);
}

TEST(Journal, ParseRecordRejectsHeadersAndGarbage)
{
    EXPECT_FALSE(parseJournalRecord(
        "{\"format\":\"mcscope-journal-1\",\"model\":\"x\"}"));
    EXPECT_FALSE(parseJournalRecord("not json"));
    EXPECT_FALSE(parseJournalRecord("{\"digest\":\"zz\"}"));
    auto rec = parseJournalRecord(
        runResultToJson(0x42, sampleResult(3.0, 9)).dump());
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->first, 0x42u);
    EXPECT_DOUBLE_EQ(rec->second.seconds, 3.0);
}

TEST(Journal, PoisonedTaggedKeyReadsAsCorruptNotCrash)
{
    // Regression: a tagged-seconds key too large for int used to go
    // through std::stoi, which throws std::out_of_range straight
    // through --resume.  A poisoned entry must read as "not a
    // record" (the point is re-executed), never as a crash.
    RunResult sample = sampleResult(3.0, 9);
    std::string record = runResultToJson(0x99, sample).dump();
    const std::string needle = "\"1\":";
    const size_t pos = record.find(needle);
    ASSERT_NE(pos, std::string::npos) << record;
    record.replace(pos, needle.size(),
                   "\"99999999999999999999\":");

    EXPECT_FALSE(parseJournalRecord(record));

    // The same line inside a journal counts as corruption and the
    // well-formed neighbors still load.
    TempDir dir("journal_poisoned_tag");
    const std::string path = dir.file("sweep.journal");
    {
        SweepJournal journal(path);
        journal.append(0xaaaa, sampleResult(1.0, 5));
    }
    {
        std::ofstream out(path, std::ios::app);
        out << record << "\n";
    }
    JournalLoadStats stats;
    auto loaded = loadJournal(path, &stats);
    EXPECT_EQ(stats.records, 1u);
    EXPECT_EQ(stats.corrupt, 1u);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded.count(0xaaaa));
}

TEST(Journal, OutOfRangeCountersReadAsCorrupt)
{
    // Casting a counter outside [0, 2^64) to uint64_t is undefined
    // behaviour; such a record is corrupt, never a bogus count.
    const std::string good =
        runResultToJson(0x77, sampleResult(3.0, 9)).dump();
    ASSERT_TRUE(parseJournalRecord(good));
    auto poisoned = [&](const std::string &from, const std::string &to) {
        std::string line = good;
        const size_t pos = line.find(from);
        EXPECT_NE(pos, std::string::npos) << from;
        return line.replace(pos, from.size(), to);
    };
    for (const char *events : {"1e300", "-1", "18446744073709551616"})
        EXPECT_FALSE(parseJournalRecord(poisoned(
            "\"events\":9", std::string("\"events\":") + events)))
            << events;
    EXPECT_FALSE(parseJournalRecord(
        poisoned("\"calqueue_ops\":0", "\"calqueue_ops\":1e300")));
    EXPECT_FALSE(parseJournalRecord(poisoned(
        "\"incremental_solves\":0", "\"incremental_solves\":-1")));
    EXPECT_TRUE(parseJournalRecord(
        poisoned("\"events\":9", "\"events\":18446744073709549568")));

    RunResult audited = sampleResult(3.0, 9);
    audited.audited = true;
    audited.auditDigest = 0xfeed;
    audited.auditChecks = 4;
    std::string line = runResultToJson(0x78, audited).dump();
    ASSERT_TRUE(parseJournalRecord(line));
    const size_t pos = line.find("\"audit_checks\":4");
    ASSERT_NE(pos, std::string::npos) << line;
    EXPECT_FALSE(parseJournalRecord(
        line.replace(pos, 16, "\"audit_checks\":1e300")));

    // NaN has no JSON spelling, so it can only arrive in a document.
    JsonValue doc = runResultToJson(0x79, sampleResult(3.0, 9));
    ASSERT_TRUE(parseRunResult(doc, 0x79));
    doc.set("events", JsonValue::number(std::nan("")));
    EXPECT_FALSE(parseRunResult(doc, 0x79));
}

/** Lines in a file, the header included. */
size_t
lineCount(const std::string &path)
{
    const std::string text = readFile(path);
    return static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
}

/**
 * What one concurrent appender writes: 100 points every appender
 * shares, with the same results, then 20 of its own.
 */
void
appendOverlapping(SweepJournal &journal, uint64_t own)
{
    for (uint64_t d = 1; d <= 100; ++d)
        journal.append(d, sampleResult(static_cast<double>(d), d));
    for (uint64_t d = 0; d < 20; ++d)
        journal.append(own + d, sampleResult(0.5, own + d));
}

/** Every appender's points are there, once each, and nothing is torn. */
void
expectAllAppendedOnce(const std::string &path)
{
    JournalLoadStats stats;
    auto loaded = loadJournal(path, &stats);
    EXPECT_EQ(stats.corrupt, 0u);
    EXPECT_EQ(stats.records, 140u);
    ASSERT_EQ(loaded.size(), 140u);
    for (uint64_t d = 1; d <= 100; ++d)
        EXPECT_DOUBLE_EQ(loaded.at(d).seconds, static_cast<double>(d));
    for (uint64_t d = 0; d < 20; ++d) {
        EXPECT_TRUE(loaded.count(0x1000 + d));
        EXPECT_TRUE(loaded.count(0x2000 + d));
    }
    // The header, then each distinct record once.
    EXPECT_EQ(lineCount(path), 141u);
}

TEST(Journal, TwoHandlesAppendFromTwoThreads)
{
    TempDir dir("journal_threads");
    const std::string path = dir.file("sweep.journal");
    SweepJournal a(path);
    SweepJournal b(path);
    std::thread ta([&] { appendOverlapping(a, 0x1000); });
    std::thread tb([&] { appendOverlapping(b, 0x2000); });
    ta.join();
    tb.join();
    EXPECT_EQ(a.appended() + b.appended(), 140u);
    expectAllAppendedOnce(path);
}

TEST(Journal, TwoProcessesAppendOverlappingDigests)
{
    TempDir dir("journal_processes");
    const std::string path = dir.file("sweep.journal");
    pid_t kids[2];
    for (int k = 0; k < 2; ++k) {
        // The child only appends and _exits: it execs nothing, so no
        // descriptor can leak.
        // MCSCOPE_LINT_ALLOW(FD-1): a test child that never execs.
        kids[k] = ::fork();
        ASSERT_GE(kids[k], 0);
        if (kids[k] == 0) {
            {
                SweepJournal journal(path);
                appendOverlapping(journal, 0x1000u * (k + 1));
            }
            ::_exit(0);
        }
    }
    for (pid_t kid : kids) {
        int status = 0;
        ASSERT_EQ(::waitpid(kid, &status, 0), kid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    expectAllAppendedOnce(path);
}

TEST(Journal, KilledAppenderLeavesNothingBehind)
{
    TempDir dir("journal_killed");
    const std::string path = dir.file("sweep.journal");
    // The child only appends and dies: it execs nothing, so no
    // descriptor can leak.
    // MCSCOPE_LINT_ALLOW(FD-1): a test child that never execs.
    const pid_t kid = ::fork();
    ASSERT_GE(kid, 0);
    if (kid == 0) {
        SweepJournal journal(path);
        journal.append(0x1, sampleResult(1.0, 1));
        // Die holding the append lock, as a writer killed mid-append
        // would.
        const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
        if (fd < 0 || ::flock(fd, LOCK_EX) != 0)
            ::_exit(1);
        ::raise(SIGKILL);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(kid, &status, 0), kid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    // No lock or pid file beside the journal, and the kernel dropped
    // the dead writer's lock: the next appender goes straight on.
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir.path()))
        names.push_back(entry.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>{"sweep.journal"});
    {
        SweepJournal journal(path);
        journal.append(0x2, sampleResult(2.0, 2));
    }
    EXPECT_EQ(loadJournal(path).size(), 2u);
}

/** The one-point plan the executor tests run. */
SweepPlan
onePointPlan()
{
    std::string error;
    std::optional<SweepPlan> plan = SweepPlan::fromJson(
        *parseJson(R"({"machine": "dmz", "workloads": ["nas-ep-b"],
                       "ranks": [2], "options": [0]})"),
        &error);
    EXPECT_TRUE(plan.has_value()) << error;
    return std::move(*plan);
}

TEST(Journal, CorruptLaterRecordIsResimulatedNotFallenBackFrom)
{
    TempDir dir("journal_corrupt_later");
    const std::string path = dir.file("sweep.journal");
    const SweepPlan plan = onePointPlan();
    const uint64_t digest = plan.digests()[0];
    {
        SweepJournal journal(path);
        journal.append(digest, sampleResult(1.0, 5));
    }
    // A later record for the same point, corrupt.
    std::string later = runResultToJson(digest, sampleResult(2.0, 6)).dump();
    const size_t pos = later.find("\"events\":6");
    ASSERT_NE(pos, std::string::npos) << later;
    later.replace(pos, 10, "\"events\":1e300");
    std::ofstream(path, std::ios::app) << later << "\n";

    // --resume: the point is not served from the earlier record; it
    // is left to run (no shards here, so it stays pending).
    ShardOptions opts;
    opts.shards = 0;
    opts.resumeFrom = path;
    opts.journalPath = path;
    ::testing::internal::CaptureStderr();
    ShardExecutor ex(plan, opts);
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(ex.finished());
    EXPECT_TRUE(ex.drainCompletions().empty());
    EXPECT_NE(warnings.find("corrupt or stale; re-simulating"),
              std::string::npos)
        << warnings;
}

TEST(ShardWorker, ManifestWithOutOfRangeIndexIsRejected)
{
    // Casting a number outside uint64_t's range is undefined
    // behaviour; the worker refuses the manifest instead of running
    // the point under a garbage index.
    const SweepPlan plan = onePointPlan();
    for (double index : {1e300, -1.0}) {
        JsonValue point = JsonValue::object();
        point.set("index", JsonValue::number(index));
        point.set("spec", plan.specs()[0].toJson());
        JsonValue points = JsonValue::array();
        points.append(std::move(point));
        JsonValue manifest = JsonValue::object();
        manifest.set("format", JsonValue::str("mcscope-shard-1"));
        manifest.set("points", std::move(points));

        int in[2], out[2];
        ASSERT_EQ(::pipe(in), 0);
        ASSERT_EQ(::pipe(out), 0);
        ASSERT_TRUE(writeFrame(in[1], manifest.dump()));
        ::close(in[1]);
        ::testing::internal::CaptureStderr();
        const int rc = runFramedShardWorker(in[0], out[1]);
        const std::string warnings =
            ::testing::internal::GetCapturedStderr();
        ::close(in[0]);
        ::close(out[1]);
        EXPECT_EQ(rc, 2) << index;
        EXPECT_NE(warnings.find("malformed manifest point"),
                  std::string::npos)
            << warnings;
        bool eof = false;
        EXPECT_FALSE(readFrame(out[0], &eof)) << "a point ran at " << index;
        EXPECT_TRUE(eof);
        ::close(out[0]);
    }
}

TEST(ShardWorker, AuditedManifestReportsDisagreeingCachedRecord)
{
    // The worker's cache holds a record with the right digest and the
    // wrong number.  An audited manifest must re-simulate the hit and
    // report the disagreement, never answer with the cached number.
    TempDir dir("worker_audit");
    const SweepPlan plan = onePointPlan();
    ResultCache(dir.path()).store(plan.digests()[0],
                                  sampleResult(12345.0, 5));
    JsonValue point = JsonValue::object();
    point.set("index", JsonValue::number(0));
    point.set("spec", plan.specs()[0].toJson());
    JsonValue points = JsonValue::array();
    points.append(std::move(point));
    JsonValue manifest = JsonValue::object();
    manifest.set("format", JsonValue::str("mcscope-shard-1"));
    manifest.set("audit", JsonValue::boolean(true));
    manifest.set("cache_dir", JsonValue::str(dir.path()));
    manifest.set("points", std::move(points));

    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(writeFrame(sv[1], manifest.dump()));
    ::shutdown(sv[1], SHUT_WR);
    EXPECT_EQ(runFramedShardWorker(sv[0], sv[0]), 0);
    ::close(sv[0]);

    std::optional<std::string> frame = readFrame(sv[1]);
    ASSERT_TRUE(frame);
    std::optional<JsonValue> rec = parseJson(*frame);
    ASSERT_TRUE(rec) << *frame;
    EXPECT_FALSE(rec->find("result")) << *frame;
    const JsonValue *why = rec->find("audit_failure");
    ASSERT_TRUE(why && why->isString()) << *frame;
    EXPECT_NE(why->asString().find("disagrees with fresh simulation"),
              std::string::npos)
        << *frame;
    frame = readFrame(sv[1]); // the done frame: nothing served cached
    ASSERT_TRUE(frame);
    EXPECT_NE(frame->find("\"cache_hits\":0"), std::string::npos)
        << *frame;
    ::close(sv[1]);

    // The suspect record is left as it is, not stored over.
    std::optional<ResultCache::Hit> kept =
        ResultCache(dir.path()).lookup(plan.digests()[0]);
    ASSERT_TRUE(kept);
    EXPECT_EQ(kept->result.seconds, 12345.0);
}

TEST(ShardExecutor, AuditFailureIsAGapThatIsNotRetried)
{
    const SweepPlan plan = onePointPlan();
    ShardOptions opts;
    opts.shards = 0; // one fake remote worker
    opts.backoffSeconds = 0.0;
    ShardExecutor ex(plan, opts);
    std::vector<pollfd> no_fds;
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
    ex.attachRemote(sv[0], "fake");
    ex.pollOnce(10, no_fds);
    ASSERT_TRUE(readFrame(sv[1])); // the manifest
    ASSERT_TRUE(writeFrame(sv[1], R"({"index":0,"audit_failure":"cache )"
                                  R"(entry disagrees with fresh simulation"})"));
    ASSERT_TRUE(writeFrame(sv[1], R"({"done":true,"cache_hits":0})"));
    ::testing::internal::CaptureStderr();
    for (int k = 0; k < 20 && !ex.finished(); ++k)
        ex.pollOnce(10, no_fds);
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    ::close(sv[1]);
    ASSERT_TRUE(ex.finished());
    EXPECT_NE(warnings.find("failed audit validation on fake"),
              std::string::npos)
        << warnings;
    PlanResults got = ex.take();
    EXPECT_FALSE(got.bySpec[0].valid);
    EXPECT_EQ(got.shard.gaps, 1u);
    EXPECT_EQ(got.shard.auditFailures, 1u);
    EXPECT_EQ(got.shard.retries, 0u);
    EXPECT_EQ(got.shard.executed, 0u);
    EXPECT_NE(got.shard.summary().find("1 audit failures"),
              std::string::npos)
        << got.shard.summary();
}

TEST(ShardExecutor, OutOfRangeRecordNumbersAreIgnored)
{
    const SweepPlan plan = onePointPlan();
    ShardOptions opts;
    opts.shards = 0; // fake remote workers only
    opts.backoffSeconds = 0.0;
    ShardExecutor ex(plan, opts);
    std::vector<pollfd> no_fds;
    RunResult result = sampleResult(1.0, 5);
    const std::string record =
        runResultToJson(ex.digests()[0], result).dump();

    // One fake remote worker takes the manifest and answers point 0
    // under `index`, then reports `cache_hits`.
    auto serve = [&](const char *index, const char *cache_hits) {
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv),
                  0);
        ex.attachRemote(sv[0], "fake");
        ex.pollOnce(10, no_fds);
        ASSERT_TRUE(readFrame(sv[1])); // the manifest
        ASSERT_TRUE(writeFrame(sv[1], std::string("{\"index\":") + index +
                                          ",\"result\":" + record + "}"));
        ASSERT_TRUE(writeFrame(sv[1], std::string("{\"done\":true,"
                                                  "\"cache_hits\":") +
                                          cache_hits + "}"));
        for (int k = 0; k < 20 && !ex.finished(); ++k)
            ex.pollOnce(10, no_fds);
        ::close(sv[1]);
    };

    // A record index that does not fit size_t names no point.
    ::testing::internal::CaptureStderr();
    serve("1e300", "0");
    std::string warnings = ::testing::internal::GetCapturedStderr();
    ASSERT_FALSE(ex.finished());
    EXPECT_NE(warnings.find("malformed worker record"), std::string::npos)
        << warnings;

    // A cache-hit count that does not fit uint64_t counts nothing.
    ::testing::internal::CaptureStderr();
    serve("0", "-1");
    ::testing::internal::GetCapturedStderr();
    ASSERT_TRUE(ex.finished());
    PlanResults got = ex.take();
    EXPECT_EQ(got.shard.workerCacheHits, 0u);
    EXPECT_EQ(got.bySpec[0].seconds, 1.0);
}

TEST(ShardRunStats, DoneFrameStatsKeepTheirBytesAndRoundTrip)
{
    ShardRunStats s;
    s.journaled = 1;
    s.executed = 2;
    s.retries = 3;
    s.crashes = 4;
    s.timeouts = 5;
    s.gaps = 6;
    s.auditFailures = 7;
    s.workerCacheHits = 8;
    // The "stats" object of serve's done frame; other submit clients
    // read these exact keys.
    EXPECT_EQ(s.toJson().dump(),
              R"({"journaled":1,"executed":2,"retries":3,"crashes":4,)"
              R"("timeouts":5,"gaps":6,"audit_failures":7,)"
              R"("worker_cache_hits":8})");
    EXPECT_EQ(ShardRunStats::fromJson(s.toJson()).summary(), s.summary());

    // Missing and malformed counters read as 0.
    std::optional<JsonValue> partial =
        parseJson(R"({"executed":-1,"gaps":"x","retries":9})");
    ASSERT_TRUE(partial);
    ShardRunStats got = ShardRunStats::fromJson(*partial);
    EXPECT_EQ(got.retries, 9u);
    EXPECT_EQ(got.executed + got.gaps + got.journaled, 0u);
}

TEST(FaultPlan, ParsesGrammar)
{
    std::string error;
    auto empty = parseFaultPlan("", &error);
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->empty());

    auto plan = parseFaultPlan("crash:3,hang:17", &error);
    ASSERT_TRUE(plan.has_value());
    ASSERT_EQ(plan->size(), 2u);
    EXPECT_EQ((*plan)[0].kind, FaultSpec::Kind::Crash);
    EXPECT_EQ((*plan)[0].point, 3u);
    EXPECT_EQ((*plan)[1].kind, FaultSpec::Kind::Hang);
    EXPECT_EQ((*plan)[1].point, 17u);

    // Whitespace and case are forgiven; that is what humans type.
    auto spaced = parseFaultPlan(" Crash : 4 ", &error);
    ASSERT_TRUE(spaced.has_value());
    EXPECT_EQ((*spaced)[0].point, 4u);
}

TEST(FaultPlan, RejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(parseFaultPlan("crash", &error));
    EXPECT_NE(error.find("kind:point"), std::string::npos);
    EXPECT_FALSE(parseFaultPlan("explode:3", &error));
    EXPECT_NE(error.find("unknown fault kind"), std::string::npos);
    EXPECT_FALSE(parseFaultPlan("crash:", &error));
    EXPECT_FALSE(parseFaultPlan("crash:x", &error));
    EXPECT_FALSE(parseFaultPlan("crash:3,,", &error));
    EXPECT_FALSE(parseFaultPlan("crash:-1", &error));
}

TEST(DigestHex, RoundTripsAndRejects)
{
    EXPECT_EQ(digestHex(0x0123456789abcdefULL), "0123456789abcdef");
    auto parsed = parseDigestHex("0123456789abcdef");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, 0x0123456789abcdefULL);
    EXPECT_FALSE(parseDigestHex("123"));             // short
    EXPECT_FALSE(parseDigestHex("0123456789abcdeg")); // non-hex
    EXPECT_FALSE(parseDigestHex("0123456789ABCDEF")); // upper-case
}

} // namespace
