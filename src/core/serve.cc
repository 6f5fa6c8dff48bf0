#include "core/serve.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "core/journal.hh"
#include "core/registry.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/transport.hh"

namespace mcscope {

namespace {

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
 * The outbox of a submit client or of a refused peer.  The daemon
 * never blocks on one: frames leave as the socket takes them, and a
 * peer that stops reading is dropped (FrameOutbox).
 */
FrameOutbox
clientOutbox(int fd, const char *label)
{
    return FrameOutbox(fd, label, kServeClientBacklogBytes,
                       kServeClientStallDeadline);
}

/** One spec document queued behind the currently running batch. */
struct QueuedBatch
{
    FrameOutbox client;
    std::unique_ptr<SweepPlan> plan;
};

/** The batch currently executing. */
struct ActiveBatch
{
    std::unique_ptr<SweepPlan> plan; ///< must outlive the executor
    std::unique_ptr<ShardExecutor> ex;
    FrameOutbox client; ///< closed once the submitter went away
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
        opts.shard.journalPath.empty()
            ? nullptr
            : std::make_unique<SweepJournal>(opts.shard.journalPath));

    out << "mcscope serve: listening on " << opts.host << ":"
        << listener->port << "\n";
    out.flush();

    std::vector<PendingPeer> pending;
    std::vector<ParkedWorker> parked;
    std::deque<QueuedBatch> queue;
    std::unique_ptr<ActiveBatch> active;
    /** Finished clients and refused peers still owed their last frames. */
    std::vector<FrameOutbox> closing;
    uint64_t served = 0;
    uint64_t peer_seq = 0;

    auto startNextBatch = [&]() {
        if (active || queue.empty())
            return;
        QueuedBatch next = std::move(queue.front());
        queue.pop_front();
        auto batch = std::make_unique<ActiveBatch>();
        batch->plan = std::move(next.plan);
        batch->client = std::move(next.client);
        batch->streamed.assign(batch->plan->specs().size(), false);
        batch->ex =
            std::make_unique<ShardExecutor>(*batch->plan, opts.shard, &store);
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
        FrameOutbox &client = active->client;
        // Gaps never produced a record frame; tell the client
        // explicitly so it can render the "-" cells.
        for (size_t i = 0; client.isOpen() && i < results.bySpec.size();
             ++i) {
            if (active->streamed[i])
                continue;
            JsonValue gap = JsonValue::object();
            gap.set("type", JsonValue::str("gap"));
            gap.set("point", JsonValue::number(static_cast<double>(i)));
            client.queue(gap.dump(), now);
        }
        if (client.isOpen()) {
            JsonValue done = JsonValue::object();
            done.set("type", JsonValue::str("done"));
            done.set("stats", results.shard.toJson());
            done.set("wall_seconds",
                     JsonValue::number(results.wallSeconds));
            client.queue(done.dump(), now);
            // Closed once the done frame has left.
            closing.push_back(std::move(client));
        }
        ++served;
        out << "serve: batch " << served << ": "
            << results.shard.summary() << "\n";
        out.flush();
        active.reset();
    };

    // A refused peer gets one error frame, then the close.
    auto refuse = [&](PendingPeer &peer, const std::string &message) {
        FrameOutbox reply = clientOutbox(peer.fd, "serve: refused peer");
        peer.fd = -1; // ownership handed off
        reply.queue(errorFrame(message).dump(), Clock::now());
        closing.push_back(std::move(reply));
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
            refuse(peer, "bad hello");
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
                refuse(peer, parse_error);
                return;
            }
            QueuedBatch q;
            q.client = clientOutbox(peer.fd, "serve: submit client");
            q.plan = std::make_unique<SweepPlan>(std::move(*plan));
            queue.push_back(std::move(q));
            peer.fd = -1; // ownership handed off
            return;
        }
        refuse(peer, "unknown role '" + role->asString() + "'");
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
        Clock::time_point now = Clock::now();
        if (opts.maxBatches > 0 && served >= opts.maxBatches && !active) {
            // Done serving: queued submitters are told so, and the
            // loop runs until every owed frame has left or its peer
            // was dropped.
            for (QueuedBatch &q : queue) {
                q.client.queue(errorFrame("server shutting down").dump(),
                               now);
                closing.push_back(std::move(q.client));
            }
            queue.clear();
            if (closing.empty())
                break;
        }
        startNextBatch();

        // One poll(2) per iteration: the daemon's fds here, and with a
        // batch running the executor appends its worker channels to
        // the same set.  It sleeps until something is ready, the
        // nearest deadline, or the idle re-check.
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
        if (active && active->client.isOpen()) {
            const FrameOutbox &c = active->client;
            watch(c.fd(), c.unsent() > 0 ? POLLIN | POLLOUT : POLLIN,
                  Kind::Client, 0);
            if (c.unsent() > 0)
                considerDeadline(c.stallDeadline());
        }
        for (size_t i = 0; i < closing.size(); ++i) {
            watch(closing[i].fd(), POLLOUT, Kind::Closing, i);
            considerDeadline(closing[i].stallDeadline());
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
                std::string bytes;
                const bool open = drainFd(peer.fd, &bytes);
                peer.frames.append(bytes);
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
                // A parked worker has nothing to say; drop its bytes.
                if (!drainFd(w.fd, nullptr)) {
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
                if (!drainFd(active->client.fd(), nullptr))
                    active->client.close();
                break;
              }
              case Kind::Closing:
                break; // the flush below sees the error or hang-up
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
                if (!active->client.isOpen())
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
                active->client.queue(record.dump(), now);
                active->streamed[c.spec] = true;
            }
            if (active->ex->finished())
                finishBatch(now);
            else
                active->client.flush(now);
        }
        for (FrameOutbox &c : closing) {
            if (c.flush(now) && c.unsent() == 0)
                c.close(); // the last frame has left
        }
        closing.erase(std::remove_if(closing.begin(), closing.end(),
                                     [](const FrameOutbox &c) {
                                         return !c.isOpen();
                                     }),
                      closing.end());
    }

    for (ParkedWorker &w : parked)
        ::close(w.fd);
    for (PendingPeer &p : pending)
        ::close(p.fd);
    ::close(listener->fd);
    return 0;
}

} // namespace mcscope
