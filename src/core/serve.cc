#include "core/serve.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/journal.hh"
#include "core/registry.hh"
#include "core/report.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/transport.hh"

namespace mcscope {

namespace {

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/**
 * Drain and discard readable bytes (used for fds whose peer should
 * not be talking: parked workers, submit clients past their hello).
 * Returns false once the peer hung up or the socket died.
 */
bool
drainIgnore(int fd)
{
    char buf[4096];
    for (;;) {
        ssize_t r = ::read(fd, buf, sizeof(buf));
        if (r > 0)
            continue;
        if (r == 0)
            return false;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        return false;
    }
}

/** Drain readable bytes into a FrameBuffer; false on EOF/error. */
bool
drainInto(int fd, FrameBuffer &frames)
{
    char buf[4096];
    for (;;) {
        ssize_t r = ::read(fd, buf, sizeof(buf));
        if (r > 0) {
            frames.append(buf, static_cast<size_t>(r));
            continue;
        }
        if (r == 0)
            return false;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        return false;
    }
}

JsonValue
errorFrame(const std::string &message)
{
    JsonValue doc = JsonValue::object();
    doc.set("format", JsonValue::str(kServeFormat));
    doc.set("type", JsonValue::str("error"));
    doc.set("message", JsonValue::str(message));
    return doc;
}

using Clock = std::chrono::steady_clock;

/** Longest sleep of an idle daemon before it re-checks its loop. */
constexpr int kIdleRecheckMs = 200;

/** A freshly accepted connection whose hello has not arrived yet. */
struct PendingPeer
{
    int fd = -1;
    FrameBuffer frames;
    Clock::time_point acceptedAt;
};

/** An idle connected worker waiting for the next batch. */
struct ParkedWorker
{
    int fd = -1;
    std::string peer;
};

/**
 * A submit client and the frames it has not taken yet.  Frames queue
 * in the outbox and leave as the socket accepts them, so the daemon
 * never blocks on a client.
 */
struct Client
{
    int fd = -1;        ///< -1 once closed or dropped
    std::string outbox; ///< encoded frames; bytes before `sent` left
    size_t sent = 0;
    Clock::time_point lastProgress; ///< socket last took bytes

    size_t unsent() const { return outbox.size() - sent; }
};

void
closeClient(Client &c)
{
    if (c.fd >= 0)
        ::close(c.fd);
    c.fd = -1;
    c.outbox.clear();
    c.sent = 0;
}

/** Queue one frame for the client (a closed client takes nothing). */
void
queueFrame(Client &c, const std::string &payload, Clock::time_point now)
{
    if (c.fd < 0)
        return;
    if (c.unsent() == 0)
        c.lastProgress = now; // the stall clock starts with a backlog
    if (!appendFrame(c.outbox, payload)) {
        warn("serve: frame too large for a submit client; dropping it");
        closeClient(c);
    }
}

/**
 * Send what the client's socket takes of its outbox, without
 * blocking.  Drops the client when its peer is gone, when it owes more
 * than kServeClientBacklogBytes, or when its socket took nothing for
 * kServeClientStallDeadline.
 */
void
flushClient(Client &c, Clock::time_point now)
{
    while (c.fd >= 0 && c.unsent() > 0) {
        const ssize_t w = ::send(c.fd, c.outbox.data() + c.sent,
                                 c.unsent(), MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w > 0) {
            c.sent += static_cast<size_t>(w);
            c.lastProgress = now;
        } else if (w < 0 && errno == EINTR) {
            continue;
        } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        } else {
            warn("serve: submit client went away with ", c.unsent(),
                 " bytes unsent");
            closeClient(c);
        }
    }
    if (c.unsent() == 0) {
        c.outbox.clear();
        c.sent = 0;
        return;
    }
    if (c.sent > c.outbox.size() / 2) {
        c.outbox.erase(0, c.sent);
        c.sent = 0;
    }
    if (c.unsent() > kServeClientBacklogBytes ||
        now - c.lastProgress > kServeClientStallDeadline) {
        warn("serve: submit client stopped reading with ", c.unsent(),
             " bytes unsent; dropping it");
        closeClient(c);
    }
}

/** One spec document queued behind the currently running batch. */
struct QueuedBatch
{
    int clientFd = -1;
    std::unique_ptr<SweepPlan> plan;
};

/** The batch currently executing. */
struct ActiveBatch
{
    std::unique_ptr<SweepPlan> plan; ///< must outlive the executor
    std::unique_ptr<ShardExecutor> ex;
    Client client; ///< closed once the submitter went away
    std::vector<bool> streamed;
};

} // namespace

int
runServe(const ServeOptions &opts, std::ostream &out)
{
    ignoreSigpipeOnce();
    std::string error;
    std::optional<TcpListener> listener =
        tcpListen(opts.host, opts.port, &error);
    if (!listener) {
        out << "serve: cannot listen on " << opts.host << ":"
            << opts.port << ": " << error << "\n";
        return 2;
    }

    // One store spans every batch: it answers resubmitted points and
    // keeps every executed one.  With --journal it is the journal, so
    // the dedup also survives a restart.
    ResultCache store(
        opts.journalPath.empty()
            ? nullptr
            : std::make_unique<SweepJournal>(opts.journalPath));

    out << "mcscope serve: listening on " << opts.host << ":"
        << listener->port << "\n";
    out.flush();

    ShardOptions shard_opts;
    shard_opts.shards = opts.shards;
    shard_opts.pointTimeoutSeconds = opts.pointTimeoutSeconds;
    shard_opts.maxRetries = opts.maxRetries;
    shard_opts.backoffSeconds = opts.backoffSeconds;
    shard_opts.audit = opts.audit;
    shard_opts.cacheDir = opts.cacheDir;

    std::vector<PendingPeer> pending;
    std::vector<ParkedWorker> parked;
    std::deque<QueuedBatch> queue;
    std::unique_ptr<ActiveBatch> active;
    std::vector<Client> closing; ///< finished batches' clients still owed bytes
    uint64_t served = 0;
    uint64_t peer_seq = 0;

    auto startNextBatch = [&]() {
        if (active || queue.empty())
            return;
        QueuedBatch next = std::move(queue.front());
        queue.pop_front();
        auto batch = std::make_unique<ActiveBatch>();
        batch->plan = std::move(next.plan);
        batch->client.fd = next.clientFd;
        batch->streamed.assign(batch->plan->specs().size(), false);
        batch->ex =
            std::make_unique<ShardExecutor>(*batch->plan, shard_opts, &store);
        // Every parked worker joins the new batch's pool.
        for (ParkedWorker &w : parked)
            batch->ex->attachRemote(w.fd, w.peer);
        parked.clear();
        active = std::move(batch);
    };

    auto finishBatch = [&](Clock::time_point now) {
        // Idle remotes outlive the batch: park them for the next one.
        for (auto &[fd, peer] : active->ex->releaseRemotes())
            parked.push_back({fd, peer});
        PlanResults results = active->ex->take();
        Client &client = active->client;
        // Gaps never produced a record frame; tell the client
        // explicitly so it can render the "-" cells.
        for (size_t i = 0; client.fd >= 0 && i < results.bySpec.size();
             ++i) {
            if (active->streamed[i])
                continue;
            JsonValue gap = JsonValue::object();
            gap.set("type", JsonValue::str("gap"));
            gap.set("point", JsonValue::number(static_cast<double>(i)));
            queueFrame(client, gap.dump(), now);
        }
        if (client.fd >= 0) {
            JsonValue stats = JsonValue::object();
            stats.set("journaled", JsonValue::number(static_cast<double>(
                                       results.shard.journaled)));
            stats.set("executed", JsonValue::number(static_cast<double>(
                                      results.shard.executed)));
            stats.set("retries", JsonValue::number(static_cast<double>(
                                     results.shard.retries)));
            stats.set("crashes", JsonValue::number(static_cast<double>(
                                     results.shard.crashes)));
            stats.set("timeouts", JsonValue::number(static_cast<double>(
                                      results.shard.timeouts)));
            stats.set("gaps", JsonValue::number(
                                  static_cast<double>(results.shard.gaps)));
            stats.set("worker_cache_hits",
                      JsonValue::number(static_cast<double>(
                          results.shard.workerCacheHits)));
            JsonValue done = JsonValue::object();
            done.set("type", JsonValue::str("done"));
            done.set("stats", std::move(stats));
            done.set("wall_seconds",
                     JsonValue::number(results.wallSeconds));
            queueFrame(client, done.dump(), now);
            // Closed once the done frame has left (flushClient).
            closing.push_back(std::move(client));
        }
        ++served;
        out << "serve: batch " << served << ": "
            << results.shard.summary() << "\n";
        out.flush();
        active.reset();
    };

    auto classifyPeer = [&](PendingPeer &peer,
                            const std::string &payload) {
        std::optional<JsonValue> doc = parseJson(payload);
        const JsonValue *fmt =
            doc && doc->isObject() ? doc->find("format") : nullptr;
        const JsonValue *role =
            doc && doc->isObject() ? doc->find("role") : nullptr;
        if (!fmt || !fmt->isString() ||
            fmt->asString() != kServeFormat || !role ||
            !role->isString()) {
            writeFrame(peer.fd, errorFrame("bad hello").dump());
            ::close(peer.fd);
            peer.fd = -1;
            return;
        }
        if (role->asString() == "worker") {
            const std::string label =
                "worker#" + std::to_string(peer_seq++);
            if (active) {
                active->ex->attachRemote(peer.fd, label);
            } else {
                parked.push_back({peer.fd, label});
            }
            peer.fd = -1; // ownership handed off
            return;
        }
        if (role->asString() == "submit") {
            const JsonValue *spec = doc->find("spec");
            std::string parse_error;
            std::optional<SweepPlan> plan;
            if (spec)
                plan = SweepPlan::fromJson(*spec, &parse_error);
            else
                parse_error = "hello carries no spec";
            if (!plan) {
                writeFrame(peer.fd,
                           errorFrame(parse_error).dump());
                ::close(peer.fd);
                peer.fd = -1;
                return;
            }
            QueuedBatch q;
            q.clientFd = peer.fd;
            q.plan = std::make_unique<SweepPlan>(std::move(*plan));
            queue.push_back(std::move(q));
            peer.fd = -1; // ownership handed off
            return;
        }
        writeFrame(peer.fd,
                   errorFrame("unknown role '" + role->asString() +
                              "'")
                       .dump());
        ::close(peer.fd);
        peer.fd = -1;
    };

    enum class Kind { Listener, Pending, Parked, Client, Closing };
    struct PollRef
    {
        Kind kind;
        size_t index;
    };
    std::vector<pollfd> fds;
    std::vector<PollRef> refs;

    for (;;) {
        if (opts.maxBatches > 0 && served >= opts.maxBatches &&
            !active && closing.empty())
            break;
        startNextBatch();

        // One poll(2) per iteration: the daemon's fds here, and with a
        // batch running the executor appends its worker channels to
        // the same set.  It sleeps until something is ready, the
        // nearest deadline, or the idle re-check.
        Clock::time_point now = Clock::now();
        int timeout_ms = kIdleRecheckMs;
        auto considerDeadline = [&](Clock::time_point when) {
            timeout_ms = pollTimeoutBefore(timeout_ms, now, when);
        };
        auto watch = [&](int fd, short events, Kind kind, size_t i) {
            fds.push_back({fd, events, 0});
            refs.push_back({kind, i});
        };
        fds.clear();
        refs.clear();
        watch(listener->fd, POLLIN, Kind::Listener, 0);
        for (size_t i = 0; i < pending.size(); ++i) {
            watch(pending[i].fd, POLLIN, Kind::Pending, i);
            considerDeadline(pending[i].acceptedAt + kServeHelloDeadline);
        }
        for (size_t i = 0; i < parked.size(); ++i)
            watch(parked[i].fd, POLLIN, Kind::Parked, i);
        if (active && active->client.fd >= 0) {
            const Client &c = active->client;
            watch(c.fd, c.unsent() > 0 ? POLLIN | POLLOUT : POLLIN,
                  Kind::Client, 0);
            if (c.unsent() > 0)
                considerDeadline(c.lastProgress +
                                 kServeClientStallDeadline);
        }
        for (size_t i = 0; i < closing.size(); ++i) {
            watch(closing[i].fd, POLLOUT, Kind::Closing, i);
            considerDeadline(closing[i].lastProgress +
                             kServeClientStallDeadline);
        }
        if (active)
            active->ex->pollOnce(timeout_ms, fds);
        else
            ::poll(fds.data(), fds.size(), timeout_ms);

        for (size_t k = 0; k < fds.size(); ++k) {
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            switch (refs[k].kind) {
              case Kind::Listener: {
                int fd = tcpAccept(listener->fd);
                if (fd >= 0) {
                    setNonBlocking(fd);
                    PendingPeer peer;
                    peer.fd = fd;
                    peer.acceptedAt = Clock::now();
                    pending.push_back(std::move(peer));
                }
                break;
              }
              case Kind::Pending: {
                PendingPeer &peer = pending[refs[k].index];
                const bool open = drainInto(peer.fd, peer.frames);
                if (std::optional<std::string> hello =
                        peer.frames.next()) {
                    classifyPeer(peer, *hello);
                } else if (!open || peer.frames.malformed()) {
                    ::close(peer.fd);
                    peer.fd = -1;
                }
                break;
              }
              case Kind::Parked: {
                ParkedWorker &w = parked[refs[k].index];
                if (!drainIgnore(w.fd)) {
                    ::close(w.fd);
                    w.fd = -1;
                }
                break;
              }
              case Kind::Client: {
                // The submitter sends nothing after its hello; bytes
                // are discarded, EOF means it lost interest.  The
                // batch keeps running either way -- its results feed
                // the shared journal.
                if (!drainIgnore(active->client.fd))
                    closeClient(active->client);
                break;
              }
              case Kind::Closing:
                break; // flushClient below sees the error or hang-up
            }
        }
        // A peer still without a hello at the deadline is dropped.
        now = Clock::now();
        for (PendingPeer &peer : pending) {
            if (peer.fd >= 0 &&
                now - peer.acceptedAt > kServeHelloDeadline) {
                ::close(peer.fd);
                peer.fd = -1;
            }
        }
        pending.erase(std::remove_if(pending.begin(), pending.end(),
                                     [](const PendingPeer &p) {
                                         return p.fd < 0;
                                     }),
                      pending.end());
        parked.erase(std::remove_if(parked.begin(), parked.end(),
                                    [](const ParkedWorker &w) {
                                        return w.fd < 0;
                                    }),
                     parked.end());

        if (active) {
            for (const ShardExecutor::Completion &c :
                 active->ex->drainCompletions()) {
                if (active->client.fd < 0)
                    continue;
                const RunResult &r = active->ex->resultFor(c.spec);
                const uint64_t digest = active->ex->digests()[c.spec];
                JsonValue record = JsonValue::object();
                record.set("type", JsonValue::str("record"));
                record.set("point", JsonValue::number(
                                        static_cast<double>(c.spec)));
                record.set("journal_hit",
                           JsonValue::boolean(c.fromJournal));
                record.set("wall_seconds",
                           JsonValue::number(c.wallSeconds));
                record.set("result", runResultToJson(digest, r));
                queueFrame(active->client, record.dump(), now);
                active->streamed[c.spec] = true;
            }
            if (active->ex->finished())
                finishBatch(now);
            else
                flushClient(active->client, now);
        }
        for (Client &c : closing) {
            flushClient(c, now);
            if (c.unsent() == 0)
                closeClient(c); // the done frame has left
        }
        closing.erase(std::remove_if(closing.begin(), closing.end(),
                                     [](const Client &c) {
                                         return c.fd < 0;
                                     }),
                      closing.end());
    }

    for (ParkedWorker &w : parked)
        ::close(w.fd);
    for (PendingPeer &p : pending)
        ::close(p.fd);
    for (QueuedBatch &q : queue) {
        writeFrame(q.clientFd,
                   errorFrame("server shutting down").dump());
        ::close(q.clientFd);
    }
    ::close(listener->fd);
    return 0;
}

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
                stats && stats->isObject()) {
                auto num = [&](const char *key) -> uint64_t {
                    const JsonValue *v = stats->find(key);
                    return v ? jsonInteger<uint64_t>(*v).value_or(0) : 0;
                };
                results.shard.journaled = num("journaled");
                results.shard.executed = num("executed");
                results.shard.retries = num("retries");
                results.shard.crashes = num("crashes");
                results.shard.timeouts = num("timeouts");
                results.shard.gaps = num("gaps");
                results.shard.workerCacheHits =
                    num("worker_cache_hits");
            }
            if (const JsonValue *w = msg->find("wall_seconds");
                w && w->isNumber())
                results.wallSeconds = w->asNumber();
            done = true;
            continue;
        }
        warn("submit: unknown frame type '", kind, "' ignored");
    }
    ::close(fd);

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
