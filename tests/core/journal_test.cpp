/**
 * @file
 * Write-ahead journal tests: append/load round trips, corrupt-tail
 * tolerance, the one-supervisor lock, and the fault-injection
 * grammar.
 */

#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/journal.hh"
#include "core/runner.hh"
#include "util/json.hh"

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

TEST(JournalDeathTest, SecondSupervisorRefusesLiveJournal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    TempDir dir("journal_lock");
    const std::string path = dir.file("sweep.journal");
    SweepJournal held(path);
    // fatal() exits with code 1 after printing the refusal; the lock
    // holder above is this very process, which is certainly alive.
    EXPECT_EXIT({ SweepJournal second(path); },
                ::testing::ExitedWithCode(1),
                "locked by a live supervisor");
}

TEST(Journal, StaleLockFromDeadPidIsReplaced)
{
    TempDir dir("journal_stale");
    const std::string path = dir.file("sweep.journal");
    // A pid that cannot be alive: pid_max on Linux caps below 2^22
    // by default, and 999999999 far exceeds any configured maximum.
    std::ofstream(path + ".lock") << 999999999 << "\n";
    {
        SweepJournal journal(path);
        journal.append(0x1, sampleResult(1.0, 1));
    }
    EXPECT_EQ(loadJournal(path).size(), 1u);
    EXPECT_FALSE(std::filesystem::exists(path + ".lock"));
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
