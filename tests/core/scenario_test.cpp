/**
 * @file
 * Scenario pipeline tests: spec JSON round-trips, digest stability
 * and sensitivity, pinned canonical texts and digests, plan
 * deduplication and plan-digest parity across every executor, the
 * result cache's correctness guarantees (poisoned entries
 * re-simulated, cached == fresh bit-for-bit), and the rules of its
 * record file (a later record wins, identical records are written
 * once, torn tails are sealed, old per-digest files are ignored).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/journal.hh"
#include "core/plan.hh"
#include "core/registry.hh"
#include "core/runner.hh"
#include "core/scenario.hh"
#include "kernels/stream.hh"
#include "machine/registry.hh"
#include "sim/audit.hh"
#include "util/fdio.hh"
#include "util/rng.hh"

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

  private:
    std::string path_;
};

ScenarioSpec
randomSpec(Rng &rng)
{
    static const char *kWorkloads[] = {"stream", "nas-cg-b", "nas-ft-b",
                                       "hpcc-fft", "dgemm-acml"};
    static const char *kMachines[] = {"tiger", "dmz", "longs"};
    std::vector<NumactlOption> options = table5Options();

    ScenarioSpec s;
    s.workload = kWorkloads[rng.below(std::size(kWorkloads))];
    s.machinePreset = kMachines[rng.below(std::size(kMachines))];
    s.machine = configByName(s.machinePreset);
    s.option = options[rng.below(options.size())];
    s.ranks = 1 << rng.below(4);
    s.impl = rng.below(2) ? MpiImpl::Lam : MpiImpl::OpenMpi;
    s.sublayer = rng.below(2) ? SubLayer::SysV : SubLayer::USysV;
    s.latencyNoise = 1.0 + 0.25 * static_cast<double>(rng.below(3));
    s.canonicalize();
    return s;
}

/** The lines of the result store under `dir`, without their '\n'. */
std::vector<std::string>
storeLines(const std::string &dir)
{
    std::string text;
    EXPECT_TRUE(readWholeFile(dir + "/results.jsonl", text));
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

/** Replace the result store under `dir` with `lines`. */
void
writeStoreLines(const std::string &dir,
                const std::vector<std::string> &lines,
                bool final_newline = true)
{
    std::ofstream out(dir + "/results.jsonl", std::ios::trunc);
    for (size_t i = 0; i < lines.size(); ++i) {
        out << lines[i];
        if (final_newline || i + 1 < lines.size())
            out << "\n";
    }
}

/** A valid result with three events. */
RunResult
sampleRun(double seconds)
{
    RunResult r;
    r.valid = true;
    r.seconds = seconds;
    r.taggedSeconds[1] = seconds / 2;
    r.events = 3;
    return r;
}

/** One-point plan for a cheap, cacheable registry workload. */
SweepPlan
tinyPlan()
{
    SweepAxes axes;
    axes.machinePreset = "dmz";
    axes.workloads = {"nas-ep-b"};
    axes.rankCounts = {2};
    axes.options = {table5Options().front()};
    return SweepPlan::expand(axes);
}

} // namespace

TEST(ScenarioSpec, RoundTripsThroughJson)
{
    Rng rng(42);
    for (int i = 0; i < 50; ++i) {
        ScenarioSpec s = randomSpec(rng);
        auto doc = parseJson(s.toJson().dump(2));
        ASSERT_TRUE(doc.has_value());
        std::string error;
        auto back = parseScenarioSpec(*doc, &error);
        ASSERT_TRUE(back.has_value()) << error;
        EXPECT_TRUE(s == *back)
            << s.canonicalText() << "\n != \n" << back->canonicalText();
        EXPECT_EQ(s.digest(), back->digest());
    }
}

TEST(ScenarioSpec, DigestIgnoresJsonKeyOrder)
{
    const char *forward = R"({"workload": "nas-cg-b", "machine": "dmz",
        "ranks": 4, "impl": "lam", "sublayer": "sysv",
        "option": "localalloc", "latency_noise": 1.25})";
    const char *shuffled = R"({"latency_noise": 1.25,
        "option": "localalloc", "sublayer": "sysv", "impl": "lam",
        "ranks": 4, "machine": "dmz", "workload": "nas-cg-b"})";
    std::string error;
    auto a = parseScenarioSpec(*parseJson(forward), &error);
    ASSERT_TRUE(a.has_value()) << error;
    auto b = parseScenarioSpec(*parseJson(shuffled), &error);
    ASSERT_TRUE(b.has_value()) << error;
    EXPECT_EQ(a->canonicalText(), b->canonicalText());
    EXPECT_EQ(a->digest(), b->digest());
}

TEST(ScenarioSpec, PresetAndInlineMachineDigestEqually)
{
    ScenarioSpec preset;
    preset.workload = "stream";
    preset.machinePreset = "longs";
    preset.machine = configByName("longs");
    preset.canonicalize();

    // The same machine spelled inline must name the same experiment.
    ScenarioSpec inline_machine = preset;
    inline_machine.machinePreset.clear();
    inline_machine.canonicalize();

    EXPECT_TRUE(preset == inline_machine);
    EXPECT_EQ(preset.digest(), inline_machine.digest());
}

TEST(ScenarioSpec, DigestSeparatesDifferentExperiments)
{
    Rng rng(7);
    ScenarioSpec base = randomSpec(rng);

    ScenarioSpec ranks = base;
    ranks.ranks = base.ranks * 2;
    EXPECT_NE(base.digest(), ranks.digest());

    ScenarioSpec noise = base;
    noise.latencyNoise = base.latencyNoise + 0.5;
    EXPECT_NE(base.digest(), noise.digest());

    ScenarioSpec workload = base;
    workload.workload =
        base.workload == "stream" ? "dgemm-acml" : "stream";
    EXPECT_NE(base.digest(), workload.digest());
}

TEST(ScenarioSpec, CoherenceBlockRoundTripsAndSeparatesDigests)
{
    ScenarioSpec legacy;
    legacy.workload = "stream";
    legacy.machine = configByName("longs");
    legacy.canonicalize();

    // Coherence overrides must drop the preset token, or
    // canonicalize() snaps the machine back to the preset definition
    // (this is why the CLI clears machinePreset for --coherence).
    ScenarioSpec snoopy = legacy;
    snoopy.machinePreset.clear();
    snoopy.machine.coherence.mode = CoherenceMode::Snoopy;
    snoopy.canonicalize();
    ScenarioSpec directory = legacy;
    directory.machinePreset.clear();
    directory.machine.coherence.mode = CoherenceMode::Directory;
    directory.canonicalize();

    // The coherence block survives the JSON round trip...
    for (const ScenarioSpec *s : {&legacy, &snoopy, &directory}) {
        auto doc = parseJson(s->toJson().dump(2));
        ASSERT_TRUE(doc.has_value());
        std::string error;
        auto back = parseScenarioSpec(*doc, &error);
        ASSERT_TRUE(back.has_value()) << error;
        EXPECT_TRUE(*s == *back) << s->canonicalText();
        EXPECT_EQ(s->digest(), back->digest());
    }

    // ...and names a different experiment per mode and per size.
    EXPECT_NE(legacy.digest(), snoopy.digest());
    EXPECT_NE(legacy.digest(), directory.digest());
    EXPECT_NE(snoopy.digest(), directory.digest());

    ScenarioSpec small_dir = directory;
    small_dir.machinePreset.clear();
    small_dir.machine.coherence.directoryEntries = 4096.0;
    small_dir.canonicalize();
    EXPECT_NE(directory.digest(), small_dir.digest());
}

TEST(ScenarioSpec, ParserRejectsNonIntegralCounts)
{
    std::string error;
    auto bad = parseScenarioSpec(
        *parseJson(R"({"workload": "stream",
                       "machine": {"sockets": 2.7}})"),
        &error);
    EXPECT_FALSE(bad.has_value());
    EXPECT_NE(error.find("must be an integer"), std::string::npos)
        << error;
}

TEST(ScenarioSpec, ParserRejectsBadHtLinks)
{
    std::string error;
    auto self = parseScenarioSpec(
        *parseJson(R"({"workload": "stream", "machine":
            {"sockets": 2, "ht_links": [[0, 0]]}})"),
        &error);
    EXPECT_FALSE(self.has_value());
    EXPECT_NE(error.find("self-link"), std::string::npos) << error;

    error.clear();
    auto dup = parseScenarioSpec(
        *parseJson(R"({"workload": "stream", "machine":
            {"sockets": 2, "ht_links": [[0, 1], [1, 0]]}})"),
        &error);
    EXPECT_FALSE(dup.has_value());
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(ScenarioSpec, ParserRejectsOutOfRangeNumbers)
{
    // Casting a double outside int's range is undefined behaviour;
    // such a spec is rejected, never run with a garbage count.
    std::string error;
    EXPECT_FALSE(parseScenarioSpec(
        *parseJson(R"({"workload": "stream", "ranks": 1e300})"), &error));
    EXPECT_NE(error.find("ranks must be a positive number"),
              std::string::npos)
        << error;

    error.clear();
    EXPECT_FALSE(parseScenarioSpec(
        *parseJson(R"({"workload": "stream", "option": -1e300})"),
        &error));
    EXPECT_NE(error.find("option index -1e+300 out of range"),
              std::string::npos)
        << error;
}

TEST(ScenarioSpec, ParserRejectsBadCoherenceBlocks)
{
    std::string error;
    auto bad_key = parseScenarioSpec(
        *parseJson(R"({"workload": "stream", "machine":
            {"coherence": {"mode": "snoopy", "probes": 4}}})"),
        &error);
    EXPECT_FALSE(bad_key.has_value());
    EXPECT_NE(error.find("machine.coherence"), std::string::npos)
        << error;

    error.clear();
    auto bad_mode = parseScenarioSpec(
        *parseJson(R"({"workload": "stream", "machine":
            {"coherence": {"mode": "mesi"}}})"),
        &error);
    EXPECT_FALSE(bad_mode.has_value());
    EXPECT_NE(error.find("must be one of"), std::string::npos) << error;
}

TEST(SweepPlan, FromJsonDirectoryEntriesAxis)
{
    auto doc = parseJson(R"({"machine": "longs",
        "workloads": ["stream"], "ranks": [4],
        "options": ["localalloc"],
        "directory_entries": [4096, 65536]})");
    ASSERT_TRUE(doc.has_value());
    std::string error;
    auto plan = SweepPlan::fromJson(*doc, &error);
    ASSERT_TRUE(plan.has_value()) << error;
    ASSERT_EQ(plan->specs().size(), 2u);
    for (const ScenarioSpec &s : plan->specs()) {
        // Variants are inline machines in Directory mode, distinctly
        // digested by their directory size.
        EXPECT_TRUE(s.machinePreset.empty());
        EXPECT_EQ(s.machine.coherence.mode, CoherenceMode::Directory);
    }
    EXPECT_EQ(plan->specs()[0].machine.coherence.directoryEntries,
              4096.0);
    EXPECT_EQ(plan->specs()[1].machine.coherence.directoryEntries,
              65536.0);
    EXPECT_NE(plan->specs()[0].digest(), plan->specs()[1].digest());

    error.clear();
    auto bad = SweepPlan::fromJson(
        *parseJson(R"({"workloads": ["stream"],
                       "directory_entries": [0]})"),
        &error);
    EXPECT_FALSE(bad.has_value());
    EXPECT_NE(error.find("directory_entries"), std::string::npos)
        << error;
}

TEST(ScenarioSpec, ParserRejectsUnknownKeysAndWorkloads)
{
    std::string error;
    auto typo = parseScenarioSpec(
        *parseJson(R"({"workload": "stream", "rank": 4})"), &error);
    EXPECT_FALSE(typo.has_value());
    EXPECT_NE(error.find("rank"), std::string::npos);

    error.clear();
    auto unknown = parseScenarioSpec(
        *parseJson(R"({"workload": "streem"})"), &error);
    EXPECT_FALSE(unknown.has_value());
    EXPECT_NE(error.find("stream"), std::string::npos)
        << "error should suggest the nearest name: " << error;
}

TEST(ScenarioSpec, ResolveOptionSpec)
{
    std::vector<NumactlOption> options = table5Options();
    auto by_index = resolveOptionSpec("0");
    ASSERT_TRUE(by_index.has_value());
    EXPECT_EQ(by_index->label, options[0].label);

    auto by_label = resolveOptionSpec("localalloc");
    ASSERT_TRUE(by_label.has_value());
    EXPECT_EQ(by_label->policy, MemPolicy::LocalAlloc);

    EXPECT_FALSE(resolveOptionSpec("no-such-option").has_value());
    EXPECT_FALSE(resolveOptionSpec("99").has_value());
}

TEST(SweepPlan, DeduplicatesRepeatedPoints)
{
    Rng rng(3);
    ScenarioSpec a = randomSpec(rng);
    ScenarioSpec b = randomSpec(rng);
    while (b == a)
        b = randomSpec(rng);

    SweepPlan plan = SweepPlan::fromSpecs({a, b, a, a, b});
    EXPECT_EQ(plan.pointCount(), 5u);
    EXPECT_EQ(plan.specs().size(), 2u);
    EXPECT_EQ(plan.specIndex(0), plan.specIndex(2));
    EXPECT_EQ(plan.specIndex(1), plan.specIndex(4));
    EXPECT_TRUE(plan.pointSpec(3) == a);
}

TEST(SweepPlan, FromJsonDeduplicatesAxes)
{
    auto doc = parseJson(R"({"machine": "dmz",
        "workloads": ["nas-ep-b", "nas-ep-b"], "ranks": [2, 2]})");
    ASSERT_TRUE(doc.has_value());
    std::string error;
    auto plan = SweepPlan::fromJson(*doc, &error);
    ASSERT_TRUE(plan.has_value()) << error;
    // 2 workloads x 2 ranks x 6 options = 24 grid points, but only
    // one distinct (workload, rank) pair survives deduplication.
    EXPECT_EQ(plan->pointCount(), 24u);
    EXPECT_EQ(plan->specs().size(), 6u);
}

TEST(SweepPlan, FromJsonRejectsUnknownKeysAndWorkloads)
{
    std::string error;
    auto bad_key = SweepPlan::fromJson(
        *parseJson(R"({"workloads": ["stream"], "rank": [2]})"), &error);
    EXPECT_FALSE(bad_key.has_value());

    error.clear();
    auto bad_workload = SweepPlan::fromJson(
        *parseJson(R"({"workloads": ["streem"]})"), &error);
    EXPECT_FALSE(bad_workload.has_value());
    EXPECT_NE(error.find("stream"), std::string::npos) << error;
}

TEST(SweepPlan, FromJsonRejectsOutOfRangeNumbers)
{
    std::string error;
    EXPECT_FALSE(SweepPlan::fromJson(
        *parseJson(R"({"workloads": ["stream"], "ranks": [2, 1e300]})"),
        &error));
    EXPECT_NE(error.find("ranks entries must be positive numbers"),
              std::string::npos)
        << error;

    error.clear();
    EXPECT_FALSE(SweepPlan::fromJson(
        *parseJson(R"({"workloads": ["stream"], "options": [1e300]})"),
        &error));
    EXPECT_NE(error.find("unknown option"), std::string::npos) << error;
}

TEST(SweepPlan, FromJsonRejectsGridsAboveThePointLimit)
{
    auto repeated = [](const std::string &item, int count) {
        std::string out = "[";
        for (int i = 0; i < count; ++i)
            out += (i ? ", " : "") + item;
        return out + "]";
    };
    // ~25 KB naming 10^12 points is refused before anything expands.
    std::string error;
    EXPECT_FALSE(SweepPlan::fromJson(
        *parseJson("{\"machine\": \"dmz\", \"directory_entries\": " +
                   repeated("2", 1000) +
                   ", \"workloads\": " + repeated("\"stream\"", 1000) +
                   ", \"ranks\": " + repeated("2", 1000) +
                   ", \"options\": " + repeated("0", 1000) + "}"),
        &error));
    EXPECT_NE(error.find("more than " + std::to_string(kMaxPlanPoints) +
                         " grid points"),
              std::string::npos)
        << error;

    // Defaulted axes count too: longs defaults to 4 rank counts and 6
    // options, so 2731 workloads name 65544 points, just over the limit.
    error.clear();
    EXPECT_FALSE(SweepPlan::fromJson(
        *parseJson("{\"machine\": \"longs\", \"workloads\": " +
                   repeated("\"stream\"", 2731) + "}"),
        &error));
    EXPECT_NE(error.find("grid points"), std::string::npos) << error;
}

TEST(SweepPlanDeathTest, ExpandRejectsUnknownWorkloadWithHint)
{
    SweepAxes axes;
    axes.workloads = {"nas-cg-b", "streem"};
    EXPECT_DEATH(SweepPlan::expand(axes),
                 "unknown workload 'streem'; did you mean 'stream'");
}

TEST(ResultCache, EntryJsonRoundTrips)
{
    RunResult r;
    r.valid = true;
    r.seconds = 3.14159265358979;
    r.taggedSeconds[2] = 1.25;
    r.taggedSeconds[7] = 0.5;
    r.events = 1234;
    r.audited = true;
    r.auditDigest = 0xdeadbeefcafe1234ULL;
    r.auditChecks = 99;

    const uint64_t digest = 0x0123456789abcdefULL;
    JsonValue doc = runResultToJson(digest, r);
    auto back = parseRunResult(doc, digest);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->valid, r.valid);
    EXPECT_EQ(back->seconds, r.seconds); // bit-for-bit
    EXPECT_EQ(back->taggedSeconds, r.taggedSeconds);
    EXPECT_EQ(back->events, r.events);
    EXPECT_EQ(back->audited, r.audited);
    EXPECT_EQ(back->auditDigest, r.auditDigest);
    EXPECT_EQ(back->auditChecks, r.auditChecks);

    // The same entry under a different expected digest is a stale or
    // misfiled entry and must be rejected.
    EXPECT_FALSE(parseRunResult(doc, digest + 1).has_value());
}

TEST(ResultCache, EntryParserRejectsNonsense)
{
    RunResult r;
    r.valid = true;
    r.seconds = 1.0;
    const uint64_t digest = 42;

    JsonValue negative = runResultToJson(digest, r);
    negative.set("seconds", JsonValue::number(-1.0));
    EXPECT_FALSE(parseRunResult(negative, digest).has_value());

    JsonValue missing = runResultToJson(digest, r);
    JsonValue stripped = JsonValue::object();
    for (const auto &member : missing.members()) {
        if (member.first != "seconds")
            stripped.set(member.first, member.second);
    }
    EXPECT_FALSE(parseRunResult(stripped, digest).has_value());
}

TEST(Runner, MemoryCacheServesSecondRun)
{
    SweepPlan plan = tinyPlan();
    ResultCache cache;
    RunnerOptions opts;
    opts.cache = &cache;

    PlanResults first = runPlan(plan, opts);
    EXPECT_EQ(first.stats.misses, 1u);
    EXPECT_EQ(first.stats.simulations, 1u);
    ASSERT_TRUE(first.bySpec[0].valid);

    PlanResults second = runPlan(plan, opts);
    EXPECT_EQ(second.stats.memoryHits, 1u);
    if (!auditRequestedByEnv()) {
        EXPECT_EQ(second.stats.simulations, 0u);
    }
    EXPECT_EQ(second.bySpec[0].seconds, first.bySpec[0].seconds);
    EXPECT_EQ(second.bySpec[0].taggedSeconds,
              first.bySpec[0].taggedSeconds);
}

TEST(Runner, DiskCacheSharesResultsAcrossInstances)
{
    TempDir dir("disk_cache");
    SweepPlan plan = tinyPlan();

    ResultCache writer(dir.path());
    RunnerOptions write_opts;
    write_opts.cache = &writer;
    PlanResults first = runPlan(plan, write_opts);
    EXPECT_EQ(first.stats.simulations, 1u);

    // A fresh cache instance (a new process, in effect) finds the
    // entry on disk and reproduces the result bit-for-bit.
    ResultCache reader(dir.path());
    RunnerOptions read_opts;
    read_opts.cache = &reader;
    PlanResults second = runPlan(plan, read_opts);
    EXPECT_EQ(second.stats.diskHits, 1u);
    if (!auditRequestedByEnv()) {
        EXPECT_EQ(second.stats.simulations, 0u);
    }
    EXPECT_EQ(second.bySpec[0].seconds, first.bySpec[0].seconds);
    EXPECT_EQ(second.bySpec[0].events, first.bySpec[0].events);
}

TEST(Runner, PoisonedDiskEntryIsDetectedAndResimulated)
{
    TempDir dir("poisoned");
    SweepPlan plan = tinyPlan();

    {
        ResultCache writer(dir.path());
        RunnerOptions opts;
        opts.cache = &writer;
        runPlan(plan, opts);
    }

    // Garble the record line, digest prefix intact, as a bad disk
    // would: the index still files it, the parse must reject it.
    std::vector<std::string> lines = storeLines(dir.path());
    ASSERT_EQ(lines.size(), 2u); // header + one record
    lines[1] = lines[1].substr(0, lines[1].size() / 2) + "#garbage";
    writeStoreLines(dir.path(), lines);

    ResultCache reader(dir.path());
    RunnerOptions opts;
    opts.cache = &reader;
    PlanResults recovered = runPlan(plan, opts);
    EXPECT_EQ(recovered.stats.corrupt, 1u);
    EXPECT_EQ(recovered.stats.hits(), 0u);
    EXPECT_EQ(recovered.stats.simulations, 1u);

    // The re-simulated result matches an uncached run exactly.
    RunnerOptions fresh_opts;
    fresh_opts.noCache = true;
    PlanResults fresh = runPlan(plan, fresh_opts);
    EXPECT_EQ(recovered.bySpec[0].seconds, fresh.bySpec[0].seconds);

    // ...and its record, appended after the bad one, now wins.
    ResultCache later(dir.path());
    auto hit = later.lookup(plan.digest(0, *makeWorkload("nas-ep-b")));
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->fromDisk);
    EXPECT_EQ(hit->result.seconds, fresh.bySpec[0].seconds);
    EXPECT_EQ(later.stats().corrupt, 0u);
}

TEST(Runner, MisfiledEntryIsRejectedByDigest)
{
    TempDir dir("misfiled");
    SweepPlan plan = tinyPlan();

    {
        ResultCache writer(dir.path());
        RunnerOptions opts;
        opts.cache = &writer;
        runPlan(plan, opts);
    }

    // A line that the index files under another spec's digest but
    // whose record names this spec (a second "digest" key replaces
    // the first when parsed): valid JSON naming the wrong experiment,
    // so the embedded digest check must reject it.
    SweepAxes axes = plan.axes();
    axes.rankCounts = {4};
    SweepPlan other_plan = SweepPlan::expand(axes);
    const uint64_t other =
        other_plan.digest(0, *makeWorkload(other_plan.specs()[0].workload));
    std::vector<std::string> lines = storeLines(dir.path());
    ASSERT_EQ(lines.size(), 2u);
    lines.push_back("{\"digest\":\"" + digestHex(other) + "\"," +
                    lines[1].substr(1));
    writeStoreLines(dir.path(), lines);

    ResultCache reader(dir.path());
    RunnerOptions opts;
    opts.cache = &reader;
    PlanResults result = runPlan(other_plan, opts);
    EXPECT_EQ(result.stats.corrupt, 1u);
    EXPECT_EQ(result.stats.simulations, 1u);
    EXPECT_NE(result.bySpec[0].seconds, 0.0);
}

TEST(ResultStore, LaterRecordWins)
{
    TempDir dir("store_later");
    const uint64_t digest = 0xa11ce;
    {
        ResultCache first(dir.path());
        first.store(digest, sampleRun(1.0));
    }
    {
        ResultCache second(dir.path());
        second.store(digest, sampleRun(2.0));
    }
    EXPECT_EQ(storeLines(dir.path()).size(), 3u);
    ResultCache reader(dir.path());
    auto hit = reader.lookup(digest);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->fromDisk);
    EXPECT_EQ(hit->result.seconds, 2.0);
}

TEST(ResultStore, IdenticalRecordIsWrittenOnce)
{
    TempDir dir("store_identical");
    ResultCache a(dir.path());
    ResultCache b(dir.path());
    a.store(0xb0b, sampleRun(1.5));
    a.store(0xb0b, sampleRun(1.5));
    b.store(0xb0b, sampleRun(1.5)); // b learns a's record at append
    EXPECT_EQ(storeLines(dir.path()).size(), 2u);
    EXPECT_EQ(a.stats().stores, 2u);
    EXPECT_EQ(b.stats().stores, 1u);
}

TEST(ResultStore, AppendAfterTornTailIsKept)
{
    TempDir dir("store_torn");
    {
        ResultCache writer(dir.path());
        writer.store(0x1, sampleRun(1.0));
        writer.store(0x2, sampleRun(2.0));
    }
    // A writer killed mid-append leaves a torn final record.
    std::vector<std::string> lines = storeLines(dir.path());
    ASSERT_EQ(lines.size(), 3u);
    lines[2] = lines[2].substr(0, lines[2].size() - 20);
    writeStoreLines(dir.path(), lines, /*final_newline=*/false);
    {
        ResultCache writer(dir.path());
        writer.store(0x3, sampleRun(3.0));
    }
    ResultCache reader(dir.path());
    auto one = reader.lookup(0x1);
    auto three = reader.lookup(0x3);
    ASSERT_TRUE(one.has_value());
    ASSERT_TRUE(three.has_value());
    EXPECT_EQ(one->result.seconds, 1.0);
    EXPECT_EQ(three->result.seconds, 3.0);
    // The torn record is a line of its own now, and never served.
    EXPECT_FALSE(reader.lookup(0x2).has_value());
    EXPECT_EQ(reader.stats().corrupt, 1u);
}

TEST(ResultStore, PerDigestFilesReadAsMisses)
{
    // The old layout, one pretty-printed "<digest>.json" per record,
    // is not read: such a directory is a cold cache.
    TempDir dir("store_old_layout");
    const uint64_t digest = 0xc0ffee;
    std::ofstream(dir.path() + "/" + digestHex(digest) + ".json")
        << runResultToJson(digest, sampleRun(1.0)).dump(2) << "\n";
    ResultCache cache(dir.path());
    EXPECT_FALSE(cache.lookup(digest).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().corrupt, 0u);
}

TEST(ResultStore, OutOfRangeCounterIsCorrupt)
{
    TempDir dir("store_counter");
    {
        ResultCache writer(dir.path());
        writer.store(0xd1, sampleRun(1.0));
    }
    std::vector<std::string> lines = storeLines(dir.path());
    ASSERT_EQ(lines.size(), 2u);
    const size_t pos = lines[1].find("\"events\":3");
    ASSERT_NE(pos, std::string::npos) << lines[1];
    lines[1].replace(pos, 10, "\"events\":1e300");
    writeStoreLines(dir.path(), lines);

    ResultCache reader(dir.path());
    EXPECT_FALSE(reader.lookup(0xd1).has_value());
    EXPECT_EQ(reader.stats().corrupt, 1u);
}

TEST(ScenarioDigestDeathTest, UnsignedWorkloadTripsTheAssertion)
{
    /** A workload with no signature() override. */
    class Opaque : public Workload
    {
      public:
        std::string name() const override { return "opaque"; }
        void buildTasks(Machine &machine,
                        const MpiRuntime &rt) const override
        {
            inner_.buildTasks(machine, rt);
        }

      private:
        StreamWorkload inner_{1u << 16, 2};
    };

    // Every spec is digested with its registry workload, so an
    // unsigned workload is a programming error, not an uncacheable
    // point.
    Opaque opaque;
    const uint64_t text = canonicalTextDigest("{}");
    EXPECT_DEATH(finishScenarioDigest(text, opaque),
                 "'opaque' has no parameter signature");
}

TEST(Runner, AuditModeValidatesHits)
{
    SweepPlan plan = tinyPlan();
    ResultCache cache;
    RunnerOptions opts;
    opts.cache = &cache;
    opts.audit = true;

    PlanResults first = runPlan(plan, opts);
    EXPECT_TRUE(first.bySpec[0].audited);

    // The hit is re-simulated and must agree with the cached entry;
    // surviving this call *is* the assertion.
    PlanResults second = runPlan(plan, opts);
    EXPECT_EQ(second.stats.hits(), 1u);
    EXPECT_EQ(second.stats.validatedHits, 1u);
    EXPECT_EQ(second.stats.simulations, 1u);
    EXPECT_EQ(second.bySpec[0].seconds, first.bySpec[0].seconds);
}

namespace {

/** Load the shipped zoo machines (t3-4, cluster12) once per process. */
void
loadShippedMachines()
{
    MachineRegistry &reg = MachineRegistry::instance();
    if (reg.find("t3-4") == nullptr) {
        EXPECT_EQ(reg.loadDirectory(std::string(MCSCOPE_SOURCE_DIR) +
                                    "/machines"),
                  "");
    }
}

std::string
readSourceFile(const std::string &relative)
{
    std::string text;
    EXPECT_TRUE(
        readWholeFile(std::string(MCSCOPE_SOURCE_DIR) + "/" + relative, text))
        << relative;
    return text;
}

ScenarioSpec
specFromText(const std::string &text)
{
    std::string error;
    std::optional<JsonValue> doc = parseJson(text, &error);
    EXPECT_TRUE(doc.has_value()) << error;
    std::optional<ScenarioSpec> spec =
        doc ? parseScenarioSpec(*doc, &error) : std::nullopt;
    EXPECT_TRUE(spec.has_value()) << error;
    return spec.value_or(ScenarioSpec{});
}

SweepPlan
planFromText(const std::string &text, const std::string &what)
{
    std::string error;
    std::optional<JsonValue> doc = parseJson(text, &error);
    EXPECT_TRUE(doc.has_value()) << what << ": " << error;
    std::optional<SweepPlan> plan =
        doc ? SweepPlan::fromJson(*doc, &error) : std::nullopt;
    EXPECT_TRUE(plan.has_value()) << what << ": " << error;
    return plan ? std::move(*plan) : SweepPlan{};
}

/** A spec with its literal canonical text and digest. */
struct PinnedSpec
{
    const char *name;
    ScenarioSpec spec;
    const char *digest;
    const char *text;
};

std::vector<PinnedSpec>
pinnedSpecs()
{
    loadShippedMachines();
    // Table 1's Tiger, spelled out inline: collapses to the preset.
    const std::string tiger =
        R"({"coherence":{"directory_entries":65536,"directory_ways":4,"line_bytes":64,"mode":"legacy-alpha","probe_bytes":4},"coherence_alpha":0.165,"core_ghz":2.2,"cores_per_socket":1,"flops_per_cycle":2,"ht_hop_latency":6.9e-08,"ht_link_bandwidth":2000000000,"ht_links":[[0,1]],"l1_bytes":65536,"l2_bytes":1048576,"mem_bandwidth_per_socket":4100000000,"mem_latency":9.2e-08,"name":"Tiger","same_die_bandwidth_boost":1.12,"same_die_latency_factor":0.75,"sockets":2,"stream_concurrency_bytes":400})";
    const SweepPlan dirsweep = planFromText(
        readSourceFile("examples/batch_dirsweep.json"), "batch_dirsweep");
    // mpi-randomaccess, 16 ranks, Interleave, 65536 directory entries.
    const ScenarioSpec dir_variant =
        dirsweep.pointSpec(dirsweep.pointIndex(1, 0, 0, 1, 1, 1));
    return {
        {"longs_preset", specFromText(R"({"workload": "nas-cg-b", "machine": "longs", "option": "localalloc", "ranks": 8})"),
         "f36a7e6839e92205",
         R"({"impl":"openmpi","latency_noise":1,"machine":{"coherence":{"directory_entries":65536,"directory_ways":4,"line_bytes":64,"mode":"legacy-alpha","probe_bytes":4},"coherence_alpha":0.165,"core_ghz":1.8,"cores_per_socket":2,"flops_per_cycle":2,"ht_hop_latency":6.9e-08,"ht_link_bandwidth":2000000000,"ht_links":[[0,1],[4,5],[1,2],[5,6],[2,3],[6,7],[0,4],[1,5],[2,6],[3,7]],"l1_bytes":65536,"l2_bytes":1048576,"mem_bandwidth_per_socket":4100000000,"mem_latency":9.2e-08,"name":"Longs","same_die_bandwidth_boost":1.12,"same_die_latency_factor":0.75,"sockets":8,"stream_concurrency_bytes":400},"option":{"label":"One MPI + Local Alloc","policy":"localalloc","scheme":"one-per-socket"},"ranks":8,"sublayer":"usysv","workload":"nas-cg-b"})"},
        {"dmz_custom_option", specFromText(R"({"workload": "stream", "machine": "DMZ", "option": {"label": "Spread + Interleave", "scheme": "spread", "policy": "interleave"}, "ranks": 4, "impl": "lam", "sublayer": "sysv", "latency_noise": 1.25})"),
         "0bab6daa7fb93842",
         R"({"impl":"lam","latency_noise":1.25,"machine":{"coherence":{"directory_entries":65536,"directory_ways":4,"line_bytes":64,"mode":"legacy-alpha","probe_bytes":4},"coherence_alpha":0.165,"core_ghz":2.2,"cores_per_socket":2,"flops_per_cycle":2,"ht_hop_latency":6.9e-08,"ht_link_bandwidth":2000000000,"ht_links":[[0,1]],"l1_bytes":65536,"l2_bytes":1048576,"mem_bandwidth_per_socket":4100000000,"mem_latency":9.2e-08,"name":"DMZ","same_die_bandwidth_boost":1.12,"same_die_latency_factor":0.75,"sockets":2,"stream_concurrency_bytes":400},"option":{"label":"Spread + Interleave","policy":"interleave","scheme":"spread"},"ranks":4,"sublayer":"sysv","workload":"stream"})"},
        {"t3_4", specFromText(R"({"workload": "hpcc-fft", "machine": "t3-4", "option": 5, "ranks": 16})"),
         "78a8de8d8e2b18a8",
         R"({"impl":"openmpi","latency_noise":1,"machine":{"coherence":{"directory_entries":65536,"directory_ways":4,"line_bytes":64,"mode":"snoopy","probe_bytes":4},"coherence_alpha":0.165,"core_ghz":1.65,"cores_per_socket":16,"flops_per_cycle":1,"ht_hop_latency":9e-08,"ht_link_bandwidth":9600000000,"ht_links":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]],"l1_bytes":8192,"l2_bytes":393216,"mem_bandwidth_per_socket":12800000000,"mem_latency":1.5e-07,"name":"T3-4","same_die_bandwidth_boost":1.12,"same_die_latency_factor":0.75,"smt_thread_throughput":0.25,"sockets":4,"stream_concurrency_bytes":256,"threads_per_core":8},"option":{"label":"Interleave","policy":"interleave","scheme":"os-default"},"ranks":16,"sublayer":"usysv","workload":"hpcc-fft"})"},
        {"cluster12", specFromText(R"({"workload": "lammps-lj", "machine": "cluster12", "option": 0, "ranks": 16, "impl": "mpich2"})"),
         "b4d7a71fb6871b5f",
         R"({"impl":"mpich2","latency_noise":1,"machine":{"coherence":{"directory_entries":65536,"directory_ways":4,"line_bytes":64,"mode":"snoopy","probe_bytes":4},"coherence_alpha":0.165,"core_ghz":2.2,"cores_per_socket":2,"fabric_bandwidth":1250000000,"fabric_link_latency":2.5e-06,"flops_per_cycle":2,"ht_hop_latency":6.9e-08,"ht_link_bandwidth":4000000000,"ht_links":[[0,1]],"l1_bytes":65536,"l2_bytes":1048576,"mem_bandwidth_per_socket":5200000000,"mem_latency":9.5e-08,"name":"Cluster12","nodes":12,"same_die_bandwidth_boost":1.12,"same_die_latency_factor":0.75,"sockets":24,"stream_concurrency_bytes":400},"option":{"label":"Default","policy":"default","scheme":"os-default"},"ranks":16,"sublayer":"usysv","workload":"lammps-lj"})"},
        {"table1_inline", specFromText(R"({"workload": "nas-ft-b", "ranks": 2, "machine": )" + tiger + "}"),
         "190998c3f285b77a",
         R"({"impl":"openmpi","latency_noise":1,"machine":{"coherence":{"directory_entries":65536,"directory_ways":4,"line_bytes":64,"mode":"legacy-alpha","probe_bytes":4},"coherence_alpha":0.165,"core_ghz":2.2,"cores_per_socket":1,"flops_per_cycle":2,"ht_hop_latency":6.9e-08,"ht_link_bandwidth":2000000000,"ht_links":[[0,1]],"l1_bytes":65536,"l2_bytes":1048576,"mem_bandwidth_per_socket":4100000000,"mem_latency":9.2e-08,"name":"Tiger","same_die_bandwidth_boost":1.12,"same_die_latency_factor":0.75,"sockets":2,"stream_concurrency_bytes":400},"option":{"label":"","policy":"default","scheme":"os-default"},"ranks":2,"sublayer":"usysv","workload":"nas-ft-b"})"},
        {"dirsweep_variant", dir_variant,
         "a4f6255ee281cf1f",
         R"({"impl":"openmpi","latency_noise":1,"machine":{"coherence":{"directory_entries":65536,"directory_ways":4,"line_bytes":64,"mode":"directory","probe_bytes":4},"coherence_alpha":0.165,"core_ghz":1.8,"cores_per_socket":2,"flops_per_cycle":2,"ht_hop_latency":6.9e-08,"ht_link_bandwidth":2000000000,"ht_links":[[0,1],[4,5],[1,2],[5,6],[2,3],[6,7],[0,4],[1,5],[2,6],[3,7]],"l1_bytes":65536,"l2_bytes":1048576,"mem_bandwidth_per_socket":4100000000,"mem_latency":9.2e-08,"name":"Longs","same_die_bandwidth_boost":1.12,"same_die_latency_factor":0.75,"sockets":8,"stream_concurrency_bytes":400},"option":{"label":"Interleave","policy":"interleave","scheme":"os-default"},"ranks":16,"sublayer":"usysv","workload":"mpi-randomaccess"})"},
    };
}

} // namespace

TEST(ScenarioSpec, CanonicalTextAndDigestArePinned)
{
    // Every result cache file and journal record is keyed by these
    // bytes: a one-byte drift silently orphans all of them.
    for (const PinnedSpec &p : pinnedSpecs()) {
        EXPECT_EQ(p.spec.canonicalText(), p.text) << p.name;
        EXPECT_EQ(digestHex(p.spec.digest()), p.digest) << p.name;
        EXPECT_EQ(digestHex(p.spec.digestWith(
                      *makeWorkload(p.spec.workload))),
                  p.digest)
            << p.name;
        SweepPlan plan = SweepPlan::fromSpecs({p.spec});
        EXPECT_EQ(digestHex(plan.digests()[0]), p.digest) << p.name;
    }
}

TEST(SweepPlan, PlanDigestsMatchSpecDigestsOnEveryExample)
{
    loadShippedMachines();
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(
             std::string(MCSCOPE_SOURCE_DIR) + "/examples")) {
        if (e.path().extension() == ".json")
            files.push_back(e.path().filename().string());
    }
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());

    Rng rng(13);
    for (const std::string &file : files) {
        const SweepPlan plan =
            planFromText(readSourceFile("examples/" + file), file);
        const size_t n = plan.specs().size();
        ASSERT_GT(n, 0u) << file;
        std::vector<uint64_t> want(n);
        for (size_t i = 0; i < n; ++i)
            want[i] = plan.specs()[i].digest();

        // fromJson's expansion composes texts per machine variant;
        // its digests are the specs' own.
        const std::vector<uint64_t> have = plan.digests();
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(have[i], want[i]) << file << " spec " << i;

        // ... and every grid point's digest is that of the spec its
        // coordinates name, built and digested one by one.
        const SweepAxes &ax = plan.axes();
        const size_t dims[] = {ax.options.size(), ax.rankCounts.size(),
                               ax.sublayers.size(), ax.impls.size(),
                               ax.workloads.size()};
        for (size_t p = 0; p < plan.pointCount(); ++p) {
            size_t c[5]; // option, rank, sublayer, impl, workload
            size_t m = p;
            for (size_t d = 0; d < 5; ++d) {
                c[d] = m % dims[d];
                m /= dims[d];
            }
            ASSERT_EQ(plan.pointIndex(c[4], c[3], c[2], c[1], c[0], m), p);
            ScenarioSpec point;
            point.workload = ax.workloads[c[4]];
            point.machinePreset = ax.variantPreset(m);
            point.machine = ax.variantMachine(m);
            point.option = ax.options[c[0]];
            point.ranks = ax.rankCounts[c[1]];
            point.impl = ax.impls[c[3]];
            point.sublayer = ax.sublayers[c[2]];
            point.latencyNoise = ax.latencyNoise;
            EXPECT_EQ(have[plan.specIndex(p)], point.digest())
                << file << " point " << p;
        }

        // fromSpecs over the same specs, shuffled: the same digests,
        // following their specs.
        std::vector<size_t> order(n);
        for (size_t i = 0; i < n; ++i)
            order[i] = i;
        for (size_t i = n; i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        std::vector<ScenarioSpec> shuffled_specs;
        for (size_t k : order)
            shuffled_specs.push_back(plan.specs()[k]);
        const SweepPlan shuffled = SweepPlan::fromSpecs(shuffled_specs);
        ASSERT_EQ(shuffled.specs().size(), n) << file;
        const std::vector<uint64_t> shuffled_have = shuffled.digests();
        for (size_t k = 0; k < n; ++k)
            EXPECT_EQ(shuffled_have[k], want[order[k]])
                << file << " shuffled spec " << k;

        // Every executor keys results by the plan's digests.  Distinct
        // stand-in results (seconds = spec index + 1) stored under the
        // specs' own digests must come back for exactly their specs.
        std::vector<RunResult> stand_ins(n);
        TempDir dir("plan_digests");
        const std::string journal_path = dir.path() + "/sweep.journal";
        {
            SweepJournal journal(journal_path);
            for (size_t i = 0; i < n; ++i) {
                stand_ins[i].valid = true;
                stand_ins[i].seconds = static_cast<double>(i + 1);
                journal.append(want[i], stand_ins[i]);
            }
        }
        auto expectStandIns = [&](const PlanResults &got,
                                  const char *path) {
            ASSERT_EQ(got.bySpec.size(), n) << file << " " << path;
            for (size_t k = 0; k < n; ++k)
                EXPECT_EQ(got.bySpec[k].seconds,
                          static_cast<double>(order[k] + 1))
                    << file << " " << path << " spec " << k;
        };

        // runPlan (under MCSCOPE_AUDIT every hit is re-simulated and
        // must equal the cache, which stand-ins cannot).
        if (!auditRequestedByEnv()) {
            ResultCache cache;
            for (size_t i = 0; i < n; ++i)
                cache.store(want[i], stand_ins[i]);
            RunnerOptions opts;
            opts.cache = &cache;
            PlanResults got = runPlan(shuffled, opts);
            EXPECT_EQ(got.stats.misses, 0u) << file;
            EXPECT_EQ(got.stats.simulations, 0u) << file;
            expectStandIns(got, "runPlan");
        }

        // A ShardExecutor resuming from a journal: every point is a
        // journal hit, no worker runs.
        {
            ShardOptions opts;
            opts.resumeFrom = journal_path;
            ShardExecutor ex(shuffled, opts);
            EXPECT_EQ(ex.digests(), shuffled_have) << file;
            EXPECT_TRUE(ex.finished()) << file;
            PlanResults got = ex.take();
            EXPECT_EQ(got.shard.journaled, n) << file;
            expectStandIns(got, "journal resume");
        }

        // serve's dedup store: the daemon hands one store over its
        // journal to a fresh executor per batch.
        {
            ResultCache shared(std::make_unique<SweepJournal>(journal_path));
            ShardExecutor ex(shuffled, ShardOptions{}, &shared);
            EXPECT_TRUE(ex.finished()) << file;
            expectStandIns(ex.take(), "serve dedup");
        }
    }
}
