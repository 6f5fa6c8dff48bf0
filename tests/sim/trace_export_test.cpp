/**
 * @file
 * Tests for the Chrome trace exporter, the utilization timeline, and
 * the engine counters: the trace must be well-formed JSON with every
 * "B" event closed by a matching "E" on the same track, and the
 * timeline buckets must integrate to exactly the endpoint
 * utilization statistics.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.hh"
#include "core/experiment.hh"
#include "kernels/stream.hh"
#include "machine/config.hh"
#include "machine/machine.hh"
#include "sim/engine.hh"
#include "sim/task.hh"
#include "sim/trace_export.hh"

namespace mcscope {
namespace {

/**
 * Minimal recursive-descent JSON syntax checker.  Accepts exactly
 * the RFC-8259 grammar (minus surrogate-pair checking); no values
 * are materialized.  Good enough to prove the exporter's output
 * parses, without dragging a JSON library into the test image.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control character
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[pos_])))
                            return false;
                    }
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!digits())
            return false;
        if (peek() == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!digits())
                return false;
        }
        return pos_ > start;
    }

    bool digits()
    {
        size_t start = pos_;
        while (pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    bool literal(const char *word)
    {
        size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    const std::string &s_;
    size_t pos_ = 0;
};

/** Pull the value of an integer field like `"tid":12` out of a record. */
long
intField(const std::string &record, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    size_t at = record.find(needle);
    if (at == std::string::npos)
        return -1;
    return std::stol(record.substr(at + needle.size()));
}

/**
 * Check the B/E discipline: split the trace into records (the writer
 * emits one per line), and per track push on "B" and pop on "E".
 * Every track must end balanced.  Returns the total B count, -1 on a
 * violation.
 */
long
checkPairing(const std::string &json)
{
    std::map<long, long> open; // tid -> open B count
    long begins = 0;
    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
        bool is_b = line.find("\"ph\":\"B\"") != std::string::npos;
        bool is_e = line.find("\"ph\":\"E\"") != std::string::npos;
        if (!is_b && !is_e)
            continue;
        long tid = intField(line, "tid");
        if (tid < 0)
            return -1;
        if (is_b) {
            ++open[tid];
            ++begins;
        } else if (--open[tid] < 0) {
            return -1; // E without a matching B on this track
        }
    }
    for (const auto &kv : open) {
        if (kv.second != 0)
            return -1;
    }
    return begins;
}

Work
work(double amount, std::vector<ResourceId> path, int tag = 0)
{
    Work w;
    w.amount = amount;
    w.path = std::move(path);
    w.tag = tag;
    return w;
}

TEST(TraceExport, JsonEscapeRules)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(TraceExport, HandBuiltEngineProducesValidPairedTrace)
{
    std::ostringstream oss;
    Engine e;
    ResourceId r = e.addResource("mem", 10.0);
    for (int t = 0; t < 2; ++t) {
        e.addTask(TaskProgram(
            "t" + std::to_string(t),
            std::vector<Prim>{work(20.0, {r}, 3), Delay{0.5, 0},
                              work(10.0, {r}, 4)}));
    }
    {
        ChromeTraceWriter w(oss);
        w.attach(e);
        e.run();
        w.finish();
        EXPECT_GT(w.recordsWritten(), 0u);
    }
    std::string json = oss.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    // 2 tasks x 2 work flows each.
    EXPECT_EQ(checkPairing(json), 4);
    // Flow metadata survived: tag and path reach the args block.
    EXPECT_NE(json.find("flow tag 3"), std::string::npos);
    EXPECT_NE(json.find("\"path\":\"mem\""), std::string::npos);
    // Delays and task completions show up as instants.
    EXPECT_NE(json.find("delay tag"), std::string::npos);
    EXPECT_NE(json.find("task finish"), std::string::npos);
}

TEST(TraceExport, FinishIsIdempotentAndDestructorSafe)
{
    std::ostringstream oss;
    Engine e;
    ResourceId r = e.addResource("mem", 10.0);
    e.addTask(TaskProgram(
        "t0", std::vector<Prim>{work(5.0, {r})}));
    {
        ChromeTraceWriter w(oss);
        w.attach(e);
        e.run();
        w.finish();
        w.finish(); // second call must not re-emit the footer
    }             // destructor runs finish() a third time
    std::string json = oss.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_EQ(json.find("]}"), json.rfind("]}"));
}

TEST(TraceExport, FullExperimentTraceIsValidJson)
{
    StreamWorkload stream(1u << 20, 4);
    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = 4;

    Machine sim(cfg.machine);
    std::ostringstream oss;
    ChromeTraceWriter w(oss);
    w.attach(sim.engine());
    DetailedResult res = runExperimentDetailedOn(sim, cfg, stream);
    w.finish();
    ASSERT_TRUE(res.run.valid);

    std::string json = oss.str();
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_GT(checkPairing(json), 0);
    // Per-resource counter tracks and track names made it out.
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(Timeline, BucketsIntegrateToEndpointUtilization)
{
    StreamWorkload stream(1u << 20, 4);
    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = 4;
    cfg.timelineBuckets = 16;

    Machine sim(cfg.machine);
    RunResult r = runExperimentOn(sim, cfg, stream);
    ASSERT_TRUE(r.valid);

    const Engine &e = sim.engine();
    ASSERT_TRUE(e.timelineEnabled());
    ASSERT_GT(e.timelineBucketCount(), 0);
    // The rebinning policy bounds the count at 2 x target.
    EXPECT_LE(e.timelineBucketCount(), 2 * cfg.timelineBuckets);
    // Buckets tile the run: the last bucket must reach the makespan.
    EXPECT_GE(e.timelineBucketCount() * e.timelineBucketWidth(),
              e.makespan());
    for (ResourceId res = 0; res < e.resourceCount(); ++res) {
        double sum = 0.0;
        for (int b = 0; b < e.timelineBucketCount(); ++b)
            sum += e.timelineBusyTime(res, b);
        EXPECT_NEAR(sum, e.resourceUtilization(res) * e.makespan(),
                    1e-9)
            << "resource " << e.resourceName(res);
    }
}

TEST(Timeline, GatherAndCsvRoundTrip)
{
    StreamWorkload stream(1u << 20, 2);
    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = 2;
    cfg.timelineBuckets = 8;
    Machine sim(cfg.machine);
    DetailedResult res = runExperimentDetailedOn(sim, cfg, stream);
    ASSERT_TRUE(res.run.valid);
    ASSERT_TRUE(res.timeline.enabled());
    EXPECT_EQ(res.timeline.names.size(),
              static_cast<size_t>(sim.engine().resourceCount()));

    std::ostringstream oss;
    writeTimelineCsv(oss, res.timeline);
    std::istringstream lines(oss.str());
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_EQ(header.rfind("bucket_start,bucket_end,", 0), 0u);
    int rows = 0;
    for (std::string line; std::getline(lines, line);)
        ++rows;
    EXPECT_EQ(rows, res.timeline.buckets());
}

TEST(EngineStats, CountersTrackTheRun)
{
    Engine e;
    ResourceId r = e.addResource("mem", 10.0);
    for (int t = 0; t < 3; ++t) {
        e.addTask(TaskProgram(
            "t" + std::to_string(t),
            std::vector<Prim>{work(10.0, {r}), Delay{0.1, 0},
                              work(5.0, {r})}));
    }
    e.run();
    Engine::Stats s = e.stats();
    EXPECT_EQ(s.events, e.eventCount());
    EXPECT_GT(s.events, 0u);
    EXPECT_GT(s.allocatorReruns, 0u);
    EXPECT_GT(s.timeSteps, 0u);
    EXPECT_EQ(s.peakActiveFlows, 3);
}

TEST(Timeline, MustBeEnabledBeforeRun)
{
    Engine e;
    ResourceId r = e.addResource("mem", 10.0);
    e.addTask(TaskProgram(
        "t0", std::vector<Prim>{work(5.0, {r})}));
    e.run();
    EXPECT_DEATH(e.enableUtilizationTimeline(4), "before run");
}

} // namespace
} // namespace mcscope
