// The blocking ends of the serve protocol (DESIGN.md §14): `mcscope
// submit` and `mcscope worker --connect`.  Each talks to one daemon
// over one blocking socket, so it writes with writeFrame(); the
// daemon (serve.cc) never blocks and sends through FrameOutboxes.

#include "core/serve.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <ostream>

#include <unistd.h>

#include "core/report.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/transport.hh"

namespace mcscope {

int
runSubmit(const SubmitOptions &opts, std::ostream &out)
{
    ignoreSigpipeOnce();
    std::ifstream in(opts.specPath);
    if (!in) {
        out << "submit: cannot read '" << opts.specPath << "'\n";
        return 2;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string error;
    std::optional<JsonValue> doc = parseJson(text, &error);
    if (!doc) {
        out << "submit: " << opts.specPath << ": " << error << "\n";
        return 2;
    }
    std::optional<SweepPlan> plan = SweepPlan::fromJson(*doc, &error);
    if (!plan) {
        out << "submit: " << opts.specPath << ": " << error << "\n";
        return 2;
    }
    const size_t n = plan->specs().size();
    // The client verifies every record against its own digest of the
    // spec -- a daemon serving a different model version contributes
    // nothing silently wrong, exactly like a stale journal.
    const std::vector<uint64_t> digests = plan->digests();

    int fd = tcpConnect(opts.host, opts.port, &error);
    if (fd < 0) {
        out << "submit: cannot connect to " << opts.host << ":"
            << opts.port << ": " << error << "\n";
        return 2;
    }
    JsonValue hello = JsonValue::object();
    hello.set("format", JsonValue::str(kServeFormat));
    hello.set("role", JsonValue::str("submit"));
    hello.set("spec", std::move(*doc));
    if (!writeFrame(fd, hello.dump())) {
        out << "submit: cannot send spec: " << std::strerror(errno)
            << "\n";
        ::close(fd);
        return 2;
    }

    PlanResults results;
    results.bySpec.assign(n, RunResult{});
    results.specWallSeconds.assign(n, 0.0);
    results.stats.points = plan->pointCount();
    results.stats.uniqueSpecs = n;
    bool done = false;
    while (!done) {
        bool eof = false;
        std::optional<std::string> frame = readFrame(fd, &eof);
        if (!frame) {
            out << "submit: server closed the connection "
                << (eof ? "before the done frame" : "mid-frame")
                << "\n";
            ::close(fd);
            return 1;
        }
        std::optional<JsonValue> msg = parseJson(*frame);
        if (!msg || !msg->isObject()) {
            out << "submit: unparseable frame from server\n";
            ::close(fd);
            return 1;
        }
        const JsonValue *type = msg->find("type");
        const std::string kind =
            type && type->isString() ? type->asString() : "";
        if (kind == "error") {
            const JsonValue *m = msg->find("message");
            out << "submit: server: "
                << (m && m->isString() ? m->asString()
                                       : "unknown error")
                << "\n";
            ::close(fd);
            return 2;
        }
        if (kind == "record") {
            const JsonValue *point = msg->find("point");
            const JsonValue *result = msg->find("result");
            std::optional<size_t> index =
                point ? jsonInteger<size_t>(*point) : std::nullopt;
            if (!index || !result) {
                warn("submit: malformed record frame ignored");
                continue;
            }
            const size_t i = *index;
            if (i >= n) {
                warn("submit: record for unknown point ", i);
                continue;
            }
            std::optional<RunResult> r = parseRunResult(*result, digests[i]);
            if (!r) {
                warn("submit: record for point ", i,
                     " failed digest validation; leaving a gap");
                continue;
            }
            results.bySpec[i] = *r;
            if (const JsonValue *w = msg->find("wall_seconds");
                w && w->isNumber())
                results.specWallSeconds[i] = w->asNumber();
            continue;
        }
        if (kind == "gap")
            continue; // the cell stays an invalid RunResult
        if (kind == "done") {
            if (const JsonValue *stats = msg->find("stats");
                stats && stats->isObject())
                results.shard = ShardRunStats::fromJson(*stats);
            if (const JsonValue *w = msg->find("wall_seconds");
                w && w->isNumber())
                results.wallSeconds = w->asNumber();
            done = true;
            continue;
        }
        warn("submit: unknown frame type '", kind, "' ignored");
    }
    ::close(fd);

    if (results.shard.auditFailures) {
        out << "submit: " << results.shard.auditFailures
            << " point(s) failed audit validation\n";
        return 1;
    }
    renderBatchResults(*plan, results, opts.csv, out);
    if (opts.cacheStats)
        out << "journal: " << results.shard.summary() << "\n";
    return 0;
}

int
runConnectedWorker(const std::string &host, int port)
{
    ignoreSigpipeOnce();
    std::string error;
    int fd = tcpConnect(host, port, &error);
    if (fd < 0) {
        warn("worker: cannot connect to ", host, ":", port, ": ",
             error);
        return 2;
    }
    JsonValue hello = JsonValue::object();
    hello.set("format", JsonValue::str(kServeFormat));
    hello.set("role", JsonValue::str("worker"));
    if (!writeFrame(fd, hello.dump())) {
        warn("worker: cannot send hello: ", std::strerror(errno));
        ::close(fd);
        return 2;
    }
    const int rc = runFramedShardWorker(fd, fd);
    ::close(fd);
    return rc;
}

} // namespace mcscope
