/**
 * @file
 * serve_journal: `mcscope serve --shards 1` with a fresh journal per
 * pass.
 *
 * Set-up parses the spec on the client side and starts the daemon
 * (until it prints "listening").  The pass submits the 2006 zoo grid
 * with its machine, workload and rank axes in seed-permuted order,
 * then resubmits it in spec-file order; the daemon serves the second
 * batch from its dedup map and exits after both.  The client speaks
 * the framed serve protocol the way `mcscope submit` does and renders
 * each batch with renderBatchResults().  Both CSVs are checked against
 * the golden CSV of the 2006 zoo grid: the resubmission byte for byte,
 * the permuted batch row by row.
 *
 * A traced pass additionally replays the pass's journal through
 * loadJournal(), SweepJournal::append() and writeFrame()/readFrame()
 * over a socketpair, which is where the daemon's journal and
 * transport time goes.
 */

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <poll.h>
#include <set>
#include <sstream>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/time.h>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "core/journal.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "core/serve.hh"
#include "util/json.hh"
#include "util/subprocess.hh"
#include "util/transport.hh"

namespace perfbench {

using namespace mcscope;
namespace fs = std::filesystem;

namespace {

/**
 * Local shard workers.  One, not two: on a 4-vCPU VM two concurrent
 * workers slow each other's points erratically (p90 point time
 * 5.9-9.4 ms against 4.7-5.9 ms with one worker, in five interleaved
 * pairs of runs) while wall_s hardly changes, because parallelism does
 * not pay at this grid's grain.
 */
constexpr const char *kShards = "1";

constexpr double kStartTimeoutSeconds = 30.0;
constexpr double kExitTimeoutSeconds = 30.0;
constexpr int kReadTimeoutSeconds = 60;

/** One submitted batch as the client saw it. */
struct Submitted
{
    PlanResults results;
    std::vector<double> pointMs; ///< worker wall time, placed points
    uint64_t journalHits = 0;
    std::string error;
};

/** `mcscope submit` without the file read: send `doc`, collect records. */
Submitted
submit(int port, const JsonValue &doc, const SweepPlan &plan,
       const std::vector<uint64_t> &digests)
{
    Submitted s;
    const size_t n = plan.specs().size();
    s.results.bySpec.assign(n, RunResult{});
    s.results.specWallSeconds.assign(n, 0.0);
    s.results.stats.points = plan.pointCount();
    s.results.stats.uniqueSpecs = n;

    std::string error;
    const int fd = tcpConnect("127.0.0.1", port, &error);
    if (fd < 0) {
        s.error = "connect: " + error;
        return s;
    }
    timeval tv{};
    tv.tv_sec = kReadTimeoutSeconds;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    JsonValue hello = JsonValue::object();
    hello.set("format", JsonValue::str(kServeFormat));
    hello.set("role", JsonValue::str("submit"));
    hello.set("spec", doc);
    if (!writeFrame(fd, hello.dump())) {
        s.error = std::string("send: ") + std::strerror(errno);
        ::close(fd);
        return s;
    }
    for (;;) {
        std::optional<std::string> frame = readFrame(fd);
        std::optional<JsonValue> msg =
            frame ? parseJson(*frame) : std::nullopt;
        if (!msg || !msg->isObject()) {
            s.error = "connection ended before the done frame";
            break;
        }
        const JsonValue *type = msg->find("type");
        const std::string kind =
            type && type->isString() ? type->asString() : "";
        if (kind == "done")
            break;
        if (kind == "error") {
            s.error = "server error: " + msg->dump();
            break;
        }
        if (kind != "record")
            continue; // gaps leave the cell invalid
        const JsonValue *point = msg->find("point");
        const JsonValue *result = msg->find("result");
        if (!point || !point->isNumber() || !result ||
            point->asNumber() < 0 || point->asNumber() >= n)
            continue;
        const size_t i = static_cast<size_t>(point->asNumber());
        std::optional<RunResult> r = parseRunResult(*result, digests[i]);
        if (!r)
            continue;
        s.results.bySpec[i] = *r;
        if (const JsonValue *hit = msg->find("journal_hit");
            hit && hit->isBool() && hit->asBool())
            ++s.journalHits;
        const JsonValue *w = msg->find("wall_seconds");
        if (w && w->isNumber()) {
            s.results.specWallSeconds[i] = w->asNumber();
            if (r->valid)
                s.pointMs.push_back(w->asNumber() * 1e3);
        }
    }
    ::close(fd);
    return s;
}

/** The spec document with its row axes in seed-permuted order. */
JsonValue
permuteRows(const JsonValue &doc, uint64_t seed)
{
    JsonValue out = JsonValue::object();
    uint64_t salt = 0;
    for (const auto &[key, value] : doc.members()) {
        ++salt;
        if (!value.isArray() || key == "options") {
            out.set(key, value);
            continue;
        }
        const std::vector<size_t> order = seededPermutation(
            value.items().size(), seed * 0x9e3779b97f4a7c15ULL + salt);
        JsonValue arr = JsonValue::array();
        for (size_t k : order)
            arr.append(value.items()[k]);
        out.set(key, std::move(arr));
    }
    return out;
}

std::string
render(const SweepPlan &plan, const PlanResults &results, Tracer *tracer,
       LayerTotals *lt)
{
    std::ostringstream csv;
    {
        ScopedSpan span(tracer, "report.render");
        renderBatchResults(plan, results, true, csv);
    }
    if (lt)
        lt->reportBytes += csv.str().size();
    return csv.str();
}

/** A started daemon and the port it listens on. */
struct Daemon
{
    std::unique_ptr<Subprocess> proc;
    int port = 0;
};

Daemon
startDaemon(const Options &opts, const std::string &journal)
{
    Daemon d;
    d.proc = std::make_unique<Subprocess>(
        std::vector<std::string>{opts.mcscopeExe, "serve", "--host",
                                 "127.0.0.1", "--port", "0", "--shards", kShards,
                                 "--journal", journal, "--max-batches", "2"},
        "");
    const std::string marker = "listening on 127.0.0.1:";
    std::string out;
    const Clock::time_point t0 = Clock::now();
    size_t at = std::string::npos;
    while ((at = out.find(marker)) == std::string::npos ||
           out.find('\n', at) == std::string::npos) {
        if (secondsSince(t0) > kStartTimeoutSeconds)
            throw std::runtime_error("serve daemon did not start listening");
        pollfd pfd{d.proc->outFd(), POLLIN, 0};
        if (pfd.fd < 0)
            throw std::runtime_error("serve daemon exited before listening: " +
                                     out);
        ::poll(&pfd, 1, 100);
        d.proc->readAvailable(out);
    }
    d.port = std::atoi(out.c_str() + at + marker.size());
    return d;
}

/** Wait for the daemon to exit on its own; false after the timeout. */
bool
awaitExit(Daemon &d)
{
    std::string sink;
    const Clock::time_point t0 = Clock::now();
    while (!d.proc->tryWait()) {
        if (secondsSince(t0) > kExitTimeoutSeconds) {
            d.proc->kill();
            d.proc->wait();
            return false;
        }
        if (d.proc->outFd() >= 0)
            d.proc->readAvailable(sink);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return d.proc->exitCode() == 0;
}

/** Checks and samples of one served pass. */
struct ServedPass
{
    double setup = 0.0;
    double wall = 0.0;
    double daemonRssMb = 0.0; ///< daemon peak after the first batch
    std::vector<double> pointMs;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;

    void check(const CsvCheck &c, const char *what)
    {
        attempted += c.points;
        failed += c.failed;
        if (!c.problem.empty())
            problems.push_back(std::string(what) + ": " + c.problem);
    }
};

/**
 * Replay the pass's journal through the journal and transport layers:
 * load it, append its records (spec order, first submit) to a new
 * journal, and round-trip each record frame over a socketpair.
 */
void
replayJournal(const std::string &journal, const std::string &dir,
              const SweepPlan &plan, const std::vector<uint64_t> &digests,
              const Submitted &first, const SweepPlan &golden_plan,
              const std::vector<uint64_t> &golden_digests,
              const std::string &golden, Tracer &tracer, LayerTotals &lt,
              ServedPass &pass)
{
    std::unordered_map<uint64_t, RunResult> records;
    {
        ScopedSpan span(&tracer, "journal.load");
        records = loadJournal(journal);
    }
    const std::set<uint64_t> unique(digests.begin(), digests.end());
    if (records.size() != unique.size())
        pass.problems.push_back(
            "journal holds " + std::to_string(records.size()) +
            " records for " + std::to_string(unique.size()) + " unique points");

    {
        SweepJournal replay(dir + "/replay.jsonl");
        std::set<uint64_t> done;
        for (uint64_t d : digests) {
            auto it = records.find(d);
            if (it == records.end() || !done.insert(d).second)
                continue;
            ScopedSpan span(&tracer, "journal.append");
            replay.append(d, it->second);
        }
        lt.journalAppends = replay.appended();
    }
    if (lt.journalAppends != unique.size())
        pass.problems.push_back("replayed " +
                                std::to_string(lt.journalAppends) +
                                " journal appends for " +
                                std::to_string(unique.size()) +
                                " unique points");

    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
        throw std::runtime_error("socketpair failed");
    for (size_t i = 0; i < plan.specs().size(); ++i) {
        JsonValue record = JsonValue::object();
        record.set("type", JsonValue::str("record"));
        record.set("point", JsonValue::number(static_cast<double>(i)));
        record.set("journal_hit", JsonValue::boolean(false));
        record.set("wall_seconds",
                   JsonValue::number(first.results.specWallSeconds[i]));
        record.set("result", runResultToJson(digests[i],
                                             first.results.bySpec[i]));
        const std::string payload = record.dump();
        std::optional<std::string> echoed;
        {
            ScopedSpan span(&tracer, "transport.frame");
            if (writeFrame(sv[0], payload))
                echoed = readFrame(sv[1]);
        }
        if (!echoed || *echoed != payload) {
            pass.problems.push_back("frame round trip altered point " +
                                    std::to_string(i));
            break;
        }
        ++lt.frames;
        lt.frameBytes += 4 + payload.size();
    }
    ::close(sv[0]);
    ::close(sv[1]);

    // The journal alone must reproduce the golden CSV.
    PlanResults from_journal;
    from_journal.bySpec.resize(golden_plan.specs().size());
    from_journal.specWallSeconds.resize(golden_plan.specs().size());
    for (size_t i = 0; i < golden_digests.size(); ++i) {
        auto it = records.find(golden_digests[i]);
        if (it != records.end())
            from_journal.bySpec[i] = it->second;
    }
    pass.check(compareBatchCsv(render(golden_plan, from_journal, nullptr,
                                      nullptr),
                               golden, true),
               "journal replay");
}

ServedPass
servePass(const Options &opts, int index, const std::string &spec_text,
          const std::string &golden, Tracer *tracer, LayerTotals *lt)
{
    ServedPass pass;
    const std::string dir = opts.workDir + "/serve-" + std::to_string(index);
    fs::create_directories(dir);
    const std::string journal = dir + "/journal.jsonl";

    // Set-up: the client's spec parsing and the daemon's start.
    const Clock::time_point t0 = Clock::now();
    std::optional<JsonValue> doc;
    {
        ScopedSpan span(tracer, "plan.parse");
        doc = parseJson(spec_text);
    }
    if (!doc)
        throw std::runtime_error("unparseable serve spec");
    const JsonValue permuted = permuteRows(*doc, opts.seed);
    const SweepPlan plan1 = parsePlan(permuted.dump(), "permuted spec", tracer);
    const SweepPlan plan2 = parsePlan(spec_text, "serve spec", tracer);
    const std::vector<uint64_t> digests1 = specDigests(plan1, tracer);
    const std::vector<uint64_t> digests2 = specDigests(plan2, tracer);
    Daemon daemon = startDaemon(opts, journal);
    pass.setup = secondsSince(t0);

    // The pass: submit, resubmit, render both.
    const Clock::time_point t1 = Clock::now();
    Submitted first, second;
    {
        ScopedSpan span(tracer, "serve.submit");
        first = submit(daemon.port, permuted, plan1, digests1);
    }
    pass.daemonRssMb = peakRssMb(std::to_string(daemon.proc->pid()));
    const std::string csv1 = render(plan1, first.results, tracer, lt);
    {
        ScopedSpan span(tracer, "serve.resubmit");
        second = submit(daemon.port, *doc, plan2, digests2);
    }
    const std::string csv2 = render(plan2, second.results, tracer, lt);
    pass.wall = secondsSince(t1);

    if (!awaitExit(daemon))
        pass.problems.push_back("serve daemon did not exit cleanly");
    for (const Submitted *s : {&first, &second}) {
        if (!s->error.empty())
            pass.problems.push_back("submit: " + s->error);
    }
    pass.check(compareBatchCsv(csv1, golden, false), "first submit");
    pass.check(compareBatchCsv(csv2, golden, true), "resubmission");
    if (second.journalHits != plan2.specs().size())
        pass.problems.push_back(
            "resubmission served " + std::to_string(second.journalHits) +
            " of " + std::to_string(plan2.specs().size()) +
            " points from the dedup map");
    pass.pointMs = first.pointMs;

    if (lt) {
        lt->specs = plan1.specs().size() + plan2.specs().size();
        lt->points = plan1.pointCount() + plan2.pointCount();
        replayJournal(journal, dir, plan1, digests1, first, plan2, digests2,
                      golden, *tracer, *lt, pass);
    }
    fs::remove_all(dir);
    return pass;
}

} // namespace

Outcome
runServeWorkload(const Options &opts, Tracer &tracer)
{
    Outcome out;
    const std::string spec_text =
        readFile(opts.benchDir + "/specs/zoo_2006.json");
    const std::string golden =
        readFile(opts.repoRoot + "/tests/golden/batch_zoo_2006.csv");

    PassSamples samples;
    std::vector<double> traced_walls;
    std::vector<LayerTotals> layers;
    double daemon_rss = 0.0;
    int index = 0;
    const Clock::time_point start = Clock::now();
    do {
        // Traced runs alternate untraced and traced passes.
        const bool traced = opts.trace && index % 2 == 1;
        const size_t mark = tracer.mark();
        LayerTotals lt;
        ServedPass p = servePass(opts, index++, spec_text, golden,
                                 traced ? &tracer : nullptr,
                                 traced ? &lt : nullptr);
        out.attempted += p.attempted;
        out.failed += p.failed;
        daemon_rss = std::max(daemon_rss, p.daemonRssMb);
        for (const std::string &problem : p.problems) {
            if (out.problems.size() < 5)
                out.problems.push_back(problem);
        }
        if (traced) {
            lt.takeTimes(tracer, mark);
            layers.push_back(lt);
            traced_walls.push_back(p.wall);
            if (layers.size() > 2)
                tracer.truncate(mark);
            continue;
        }
        samples.setups.push_back(p.setup);
        samples.addPass(p.wall, p.pointMs);
    } while (secondsSince(start) < opts.seconds ||
             (opts.trace && layers.empty()));

    if (opts.trace) {
        addLayerMetrics(out, layers, traced_walls, samples.walls);
    } else {
        // The client's and the daemon's peaks; the shard worker exits
        // with each batch and is not sampled.
        samples.report(out, std::max(peakRssMb(), daemon_rss));
    }
    return out;
}

} // namespace perfbench
