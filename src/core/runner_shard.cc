#include "core/runner.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "core/runner_internal.hh"
#include "util/logging.hh"
#include "util/subprocess.hh"
#include "util/transport.hh"

namespace mcscope {

namespace {

/** Done-frame key of every ShardRunStats counter, in frame order. */
constexpr std::pair<const char *, uint64_t ShardRunStats::*>
    kShardStatKeys[] = {
        {"journaled", &ShardRunStats::journaled},
        {"executed", &ShardRunStats::executed},
        {"retries", &ShardRunStats::retries},
        {"crashes", &ShardRunStats::crashes},
        {"timeouts", &ShardRunStats::timeouts},
        {"gaps", &ShardRunStats::gaps},
        {"audit_failures", &ShardRunStats::auditFailures},
        {"worker_cache_hits", &ShardRunStats::workerCacheHits},
};

} // namespace

JsonValue
ShardRunStats::toJson() const
{
    JsonValue out = JsonValue::object();
    for (const auto &[key, field] : kShardStatKeys)
        out.set(key, JsonValue::number(static_cast<double>(this->*field)));
    return out;
}

ShardRunStats
ShardRunStats::fromJson(const JsonValue &stats)
{
    ShardRunStats out;
    for (const auto &[key, field] : kShardStatKeys) {
        const JsonValue *v = stats.find(key);
        out.*field = v ? jsonInteger<uint64_t>(*v).value_or(0) : 0;
    }
    return out;
}

std::string
ShardRunStats::summary() const
{
    std::string out = std::to_string(journaled) + " from journal, " +
                      std::to_string(executed) + " executed, " +
                      std::to_string(gaps) + " gaps, " +
                      std::to_string(retries) + " retries (" +
                      std::to_string(crashes) + " crashes, " +
                      std::to_string(timeouts) + " timeouts)";
    if (workerCacheHits)
        out += ", " + std::to_string(workerCacheHits) +
               " worker cache hits";
    if (auditFailures)
        out += ", " + std::to_string(auditFailures) + " audit failures";
    return out;
}

/**
 * One worker channel of the sharded supervisor: either a local
 * fork/exec subprocess (proc set) or a remote TCP worker (fd set).
 * Both speak the framed manifest/record protocol, so everything past
 * the byte-moving layer is channel-agnostic.
 */
struct ShardExecutor::Impl
{
    struct Channel
    {
        std::unique_ptr<Subprocess> proc; ///< local worker, else null
        int fd = -1;      ///< remote socket (owned), else -1
        bool isRemote = false;
        std::string peer; ///< "local#N" or the remote peer label
        FrameBuffer frames;
        std::deque<size_t> owed; ///< spec indices assigned, in order
        bool busy = false; ///< manifest sent, done frame not yet seen
        bool dead = false; ///< marked for the death protocol
        bool timedOut = false;
        Clock::time_point lastProgress;
        uint64_t points = 0;
        double busySeconds = 0.0;
        uint64_t respawns = 0;
        uint64_t launches = 0;

        int readFd() const
        {
            return proc ? proc->outFd() : fd;
        }
        int writeFd() const
        {
            return proc ? proc->inFd() : fd;
        }
        bool live() const
        {
            return !dead && (proc || (isRemote && fd >= 0));
        }
        ShardSample sample(size_t shard) const
        {
            ShardSample s;
            s.shard = static_cast<int>(shard);
            s.peer = peer;
            s.remote = isRemote;
            s.points = points;
            s.busySeconds = busySeconds;
            s.respawns = respawns;
            return s;
        }
    };

    const SweepPlan &plan;
    ShardOptions opts;
    size_t n = 0;
    size_t doneCount = 0;
    PlanResults out;
    std::vector<uint64_t> digests;
    std::vector<bool> done;
    std::vector<int> retries;
    std::vector<Clock::time_point> notBefore; ///< per-point backoff gate
    std::deque<size_t> pending; ///< not done, not assigned
    std::string exe;
    Clock::time_point planStart;
    std::unique_ptr<ResultCache> ownedResume;
    std::unique_ptr<ResultCache> ownedJournal;
    ResultCache *resume = nullptr;  ///< where finished points are looked up
    ResultCache *journal = nullptr; ///< where executed points are stored
    std::vector<Completion> completions;
    std::vector<std::unique_ptr<Channel>> channels;
    std::vector<ShardSample> retiredRemotes; ///< samples of gone remotes
    size_t localCount = 0;
    size_t remoteSeq = 0;
    bool taken = false;

    Impl(const SweepPlan &p, const ShardOptions &o, ResultCache *shared)
        : plan(p), opts(o)
    {
        n = plan.specs().size();
        out.bySpec.assign(n, RunResult{});
        out.specWallSeconds.assign(n, 0.0);
        out.stats.points = plan.pointCount();
        out.stats.uniqueSpecs = n;
        done.assign(n, false);
        retries.assign(n, 0);
        notBefore.assign(n, Clock::time_point::min());

        // Content digests drive both the journal and resume matching.
        digests = plan.digests();

        if (shared) {
            resume = journal = shared;
        } else {
            if (!opts.journalPath.empty()) {
                ownedJournal = std::make_unique<ResultCache>(
                    std::make_unique<SweepJournal>(opts.journalPath));
                journal = ownedJournal.get();
            }
            if (opts.resumeFrom == opts.journalPath) {
                resume = journal; // null when neither is set
            } else if (std::error_code ec;
                       std::filesystem::exists(opts.resumeFrom, ec)) {
                // Resuming from nothing is a fresh run: a missing
                // source is not created.
                ownedResume = std::make_unique<ResultCache>(
                    std::make_unique<SweepJournal>(opts.resumeFrom));
                resume = ownedResume.get();
            }
        }

        // Points the store already vouches for complete instantly.
        for (size_t i = 0; resume && i < n; ++i) {
            std::optional<ResultCache::Hit> hit =
                resume->lookup(digests[i]);
            if (!hit)
                continue;
            out.bySpec[i] = std::move(hit->result);
            done[i] = true;
            ++doneCount;
            ++out.shard.journaled;
            completions.push_back({i, 0.0, true});
        }

        for (size_t i = 0; i < n; ++i) {
            if (!done[i])
                pending.push_back(i);
        }

        exe = opts.workerExe.empty() ? selfExecutablePath()
                                     : opts.workerExe;
        localCount = opts.shards < 0
                         ? 0
                         : static_cast<size_t>(opts.shards);
        for (size_t s = 0; s < localCount; ++s) {
            auto ch = std::make_unique<Channel>();
            ch->peer = "local#" + std::to_string(s);
            channels.push_back(std::move(ch));
        }
        planStart = Clock::now();
    }

    void spawnLocal(Channel &ch)
    {
        ch.proc = std::make_unique<Subprocess>(
            std::vector<std::string>{exe, "worker", "--framed"},
            /*stdin_data=*/std::string(),
            /*extra_env=*/std::vector<std::string>(),
            Subprocess::Stdin::Keep);
        ch.frames = FrameBuffer();
        ch.busy = false;
        ch.dead = false;
        ch.timedOut = false;
        ch.lastProgress = Clock::now();
        if (ch.launches++ > 0)
            ++ch.respawns;
    }

    /**
     * Pull up to `want` backoff-eligible points off the pending
     * queue, preserving order; gated points rotate to the back so an
     * idle channel never stalls behind a cooling-down suspect.
     */
    std::deque<size_t> takeEligible(size_t want,
                                    Clock::time_point now)
    {
        std::deque<size_t> got;
        size_t scanned = 0;
        const size_t limit = pending.size();
        while (got.size() < want && scanned < limit &&
               !pending.empty()) {
            ++scanned;
            size_t i = pending.front();
            pending.pop_front();
            if (notBefore[i] > now)
                pending.push_back(i); // still cooling down
            else
                got.push_back(i);
        }
        return got;
    }

    /** Hand a manifest to an idle live channel; false = send failed. */
    bool sendManifest(Channel &ch, std::deque<size_t> points)
    {
        const std::string manifest =
            encodeShardManifest(plan, points, opts);
        ch.owed = std::move(points);
        ch.busy = true;
        ch.lastProgress = Clock::now();
        if (!writeFrame(ch.writeFd(), manifest)) {
            warn("supervisor: cannot send manifest to ", ch.peer,
                 ": ", std::strerror(errno));
            ch.dead = true;
            return false;
        }
        return true;
    }

    /** Spawn/assign work to every idle channel that can take it. */
    void dispatch(Clock::time_point now)
    {
        if (pending.empty())
            return;
        // Local slots without a live process respawn on demand --
        // only when eligible work exists, so per-point backoff is
        // honored no matter which channel picks the suspect up.
        std::vector<Channel *> idle;
        for (auto &ch : channels) {
            if (!ch->isRemote && !ch->proc && !pending.empty() &&
                haveEligible(now))
                spawnLocal(*ch);
            if (ch->live() && !ch->busy)
                idle.push_back(ch.get());
        }
        for (size_t k = 0; k < idle.size() && !pending.empty();
             ++k) {
            const size_t share = idle.size() - k;
            const size_t want =
                (pending.size() + share - 1) / share;
            std::deque<size_t> points = takeEligible(want, now);
            if (points.empty())
                break; // everything left is cooling down
            sendManifest(*idle[k], std::move(points));
        }
    }

    bool haveEligible(Clock::time_point now) const
    {
        for (size_t i : pending) {
            if (notBefore[i] <= now)
                return true;
        }
        return false;
    }

    void handleRecordFrame(Channel &ch, const JsonValue &doc)
    {
        const JsonValue *idx = doc.find("index");
        const JsonValue *res = doc.find("result");
        const JsonValue *audit = doc.find("audit_failure");
        std::optional<size_t> index =
            idx ? jsonInteger<size_t>(*idx) : std::nullopt;
        if (!index || !(res || (audit && audit->isString()))) {
            warn("supervisor: malformed worker record ignored");
            return;
        }
        const size_t i = *index;
        if (i >= n || done[i]) {
            warn("supervisor: unexpected record for spec ", i);
            return;
        }
        std::optional<RunResult> r;
        if (res) {
            r = parseRunResult(*res, digests[i]);
            if (!r) {
                // Ignored, so the point stays owed; the channel's
                // death will trigger the retry path.
                warn("supervisor: corrupt record for spec ", i,
                     "; the point will be retried");
                return;
            }
        }
        auto it = std::find(ch.owed.begin(), ch.owed.end(), i);
        if (it == ch.owed.end()) {
            warn("supervisor: record for spec ", i,
                 " from the wrong worker ignored");
            return;
        }
        ch.owed.erase(it);
        done[i] = true;
        ++doneCount;
        ch.lastProgress = Clock::now();
        if (!r) {
            // The worker's cache disagrees with a fresh run of the
            // point.  That is deterministic, so a retry would only
            // repeat it: the point becomes a gap that fails the run.
            warn("point ", i, " failed audit validation on ", ch.peer,
                 ": ", audit->asString());
            ++out.shard.gaps;
            ++out.shard.auditFailures;
            return;
        }
        out.bySpec[i] = *r;
        double wall = 0.0;
        if (const JsonValue *w = doc.find("wall_seconds");
            w && w->isNumber())
            wall = w->asNumber();
        out.specWallSeconds[i] = wall;
        ch.busySeconds += wall;
        ++ch.points;
        ++out.shard.executed;
        // Write-ahead guarantee: the record is durable before the
        // sweep counts the point as complete.
        if (journal)
            journal->store(digests[i], *r);
        completions.push_back({i, wall, false});
    }

    void handleFrame(Channel &ch, const std::string &payload)
    {
        std::optional<JsonValue> doc = parseJson(payload);
        if (!doc || !doc->isObject()) {
            warn("supervisor: unparseable worker record ignored");
            return;
        }
        if (doc->find("done")) {
            if (const JsonValue *h = doc->find("cache_hits"))
                out.shard.workerCacheHits +=
                    jsonInteger<uint64_t>(*h).value_or(0);
            if (!ch.owed.empty()) {
                // A done frame with points still owed means the
                // worker skipped work; treat it like a death so the
                // points are requeued with retry accounting.
                warn("supervisor: worker ", ch.peer,
                     " finished a manifest with ", ch.owed.size(),
                     " point(s) still owed");
                ch.dead = true;
                return;
            }
            ch.busy = false;
            return;
        }
        handleRecordFrame(ch, *doc);
    }

    /** Drain readable bytes; false once the channel reached EOF. */
    bool drainChannel(Channel &ch)
    {
        std::string bytes;
        const bool open = ch.proc ? ch.proc->readAvailable(bytes)
                                  : ch.fd >= 0 && drainFd(ch.fd, &bytes);
        ch.frames.append(bytes);
        return open;
    }

    void processFrames(Channel &ch)
    {
        while (std::optional<std::string> f = ch.frames.next()) {
            handleFrame(ch, *f);
            if (ch.dead)
                return;
        }
        if (ch.frames.malformed()) {
            warn("supervisor: malformed frame stream from ", ch.peer);
            ch.dead = true;
        }
    }

    /**
     * A channel died (or was killed): decide between finished, retry,
     * and gap.  Workers emit records strictly in manifest order, so
     * the first still-owed point is the one that took it down.
     */
    void handleDeath(Channel &ch, Clock::time_point now)
    {
        bool clean;
        if (ch.proc) {
            ch.proc->kill();
            ch.proc->wait();
            clean = !ch.timedOut && ch.proc->exitCode() == 0;
            ch.proc.reset();
        } else {
            if (ch.fd >= 0) {
                ::close(ch.fd);
                ch.fd = -1;
            }
            // A remote that disconnects while idle is an orderly
            // departure (a worker being re-pointed elsewhere), not a
            // crash.
            clean = !ch.timedOut && ch.owed.empty();
        }
        ch.frames = FrameBuffer();
        ch.busy = false;
        ch.dead = true;
        // A worker can die uncleanly after delivering its last record
        // (e.g. SIGKILL between the final write and exit, or a
        // post-timeout salvage read draining the pipe); with no point
        // still owed there is nothing to retry.
        if (ch.owed.empty()) {
            if (!clean)
                ++out.shard.crashes;
            return;
        }
        ++out.shard.crashes;
        if (ch.timedOut)
            ++out.shard.timeouts;
        const size_t suspect = ch.owed.front();
        ++retries[suspect];
        const double delay =
            opts.backoffSeconds *
            static_cast<double>(
                1u << std::min(retries[suspect] - 1, 6));
        if (retries[suspect] > opts.maxRetries) {
            warn("point ", suspect, " (",
                 plan.specs()[suspect].canonicalText(), ") ",
                 ch.timedOut ? "hung" : "crashed", " its worker ",
                 retries[suspect],
                 " time(s); recording a gap and moving on");
            ch.owed.pop_front();
            done[suspect] = true; // stays an invalid RunResult
            ++doneCount;
            ++out.shard.gaps;
        } else {
            ++out.shard.retries;
            notBefore[suspect] =
                now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(delay));
        }
        // Requeue in front, preserving manifest order, so the suspect
        // (if retried) and its followers run next.
        for (auto it = ch.owed.rbegin(); it != ch.owed.rend(); ++it)
            pending.push_front(*it);
        ch.owed.clear();
    }

    /** Drop dead remote channels, keeping their telemetry samples. */
    void reapChannels()
    {
        for (auto it = channels.begin(); it != channels.end();) {
            Channel &ch = **it;
            if (ch.isRemote && ch.dead) {
                retireRemote(ch);
                it = channels.erase(it);
            } else {
                if (!ch.isRemote && ch.dead) {
                    // Local slots are reused: the next dispatch with
                    // eligible work respawns the subprocess.
                    ch.dead = false;
                    ch.timedOut = false;
                }
                ++it;
            }
        }
    }

    void retireRemote(const Channel &ch)
    {
        retiredRemotes.push_back(
            ch.sample(localCount + retiredRemotes.size()));
    }

    void pollOnce(int max_wait_ms, std::vector<pollfd> &fds)
    {
        Clock::time_point now = Clock::now();
        dispatch(now);

        const size_t caller_fds = fds.size();
        for (auto &ch : channels) {
            if (ch->live() && ch->readFd() >= 0)
                fds.push_back({ch->readFd(), POLLIN, 0});
        }
        // Completions nobody drained yet (the store's hits, found in
        // the constructor) and a finished plan must not wait at all.
        // Otherwise sleep until a channel or caller fd is ready, the
        // nearest watchdog or backoff deadline, or the caller's cap.
        int timeout_ms = doneCount == n || !completions.empty()
                             ? 0
                             : std::max(0, max_wait_ms);
        auto considerDeadline = [&](Clock::time_point when) {
            timeout_ms = pollTimeoutBefore(timeout_ms, now, when);
        };
        for (auto &ch : channels) {
            if (ch->live() && ch->busy &&
                opts.pointTimeoutSeconds > 0.0) {
                considerDeadline(
                    ch->lastProgress +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            opts.pointTimeoutSeconds)));
            }
        }
        for (size_t i : pending) {
            if (notBefore[i] > now)
                considerDeadline(notBefore[i]);
        }
        ::poll(fds.data(), fds.size(), timeout_ms);
        fds.resize(caller_fds);

        now = Clock::now();
        for (auto &chp : channels) {
            Channel &ch = *chp;
            if (!ch.live())
                continue;
            const bool open = drainChannel(ch);
            processFrames(ch);
            if (ch.dead || !open) {
                handleDeath(ch, now);
                continue;
            }
            if (ch.busy && opts.pointTimeoutSeconds > 0.0 &&
                std::chrono::duration<double>(now - ch.lastProgress)
                        .count() > opts.pointTimeoutSeconds) {
                // Hung: kill, salvage already-sent records, then run
                // the normal death protocol.
                ch.timedOut = true;
                if (ch.proc)
                    ch.proc->kill();
                drainChannel(ch);
                processFrames(ch);
                handleDeath(ch, now);
            }
        }
        reapChannels();
    }

    PlanResults take(SweepTelemetry *telemetry)
    {
        MCSCOPE_ASSERT(!taken, "ShardExecutor results already taken");
        taken = true;
        // Orderly shutdown: close stdin so local workers exit 0, then
        // reap; remote channels just close.
        for (auto &ch : channels) {
            if (ch->proc) {
                ch->proc->closeStdin();
                ch->proc->wait();
                // The last manifest's done frame may trail its final
                // record; read it, or its cache-hit count is lost.
                drainChannel(*ch);
                processFrames(*ch);
                ch->proc.reset();
            } else if (ch->fd >= 0) {
                ::close(ch->fd);
                ch->fd = -1;
            }
        }
        out.wallSeconds = secondsSince(planStart);

        for (size_t i = 0; i < n; ++i)
            MCSCOPE_ASSERT(done[i], "sharded run left spec ", i,
                           " unresolved");

        out.stats.misses = out.shard.executed;
        out.stats.simulations =
            out.shard.executed -
            std::min(out.shard.executed, out.shard.workerCacheHits);

        if (telemetry)
            fillTelemetry(*telemetry);
        return std::move(out);
    }

    void fillTelemetry(SweepTelemetry &telemetry)
    {
        fillPointTelemetry(plan, out,
                           static_cast<int>(
                               std::max<size_t>(1, localCount)),
                           telemetry);
        telemetry.journaled = out.shard.journaled;
        telemetry.retries = out.shard.retries;
        telemetry.gaps = out.shard.gaps;
        telemetry.shards.clear();
        for (auto &ch : channels) {
            if (!ch->isRemote)
                telemetry.shards.push_back(
                    ch->sample(telemetry.shards.size()));
        }
        for (const ShardSample &s : retiredRemotes)
            telemetry.shards.push_back(s);
        for (auto &ch : channels) {
            if (ch->isRemote)
                telemetry.shards.push_back(
                    ch->sample(telemetry.shards.size()));
        }
    }
};

ShardExecutor::ShardExecutor(const SweepPlan &plan,
                             const ShardOptions &opts,
                             ResultCache *shared)
    : impl_(std::make_unique<Impl>(plan, opts, shared))
{
    ignoreSigpipeOnce();
}

ShardExecutor::~ShardExecutor() = default;

void
ShardExecutor::attachRemote(int fd, const std::string &peer)
{
    int flags = ::fcntl(fd, F_GETFL);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    auto ch = std::make_unique<Impl::Channel>();
    ch->fd = fd;
    ch->isRemote = true;
    ch->peer = peer.empty()
                   ? "remote#" + std::to_string(impl_->remoteSeq)
                   : peer;
    ++impl_->remoteSeq;
    ch->lastProgress = Clock::now();
    impl_->channels.push_back(std::move(ch));
}

bool
ShardExecutor::finished() const
{
    return impl_->doneCount == impl_->n;
}

void
ShardExecutor::pollOnce(int max_wait_ms, std::vector<pollfd> &fds)
{
    impl_->pollOnce(max_wait_ms, fds);
}

std::vector<ShardExecutor::Completion>
ShardExecutor::drainCompletions()
{
    std::vector<Completion> out;
    out.swap(impl_->completions);
    return out;
}

const std::vector<uint64_t> &
ShardExecutor::digests() const
{
    return impl_->digests;
}

const RunResult &
ShardExecutor::resultFor(size_t spec) const
{
    MCSCOPE_ASSERT(spec < impl_->n, "resultFor(", spec,
                   ") out of range");
    return impl_->out.bySpec[spec];
}

size_t
ShardExecutor::remoteWorkers() const
{
    size_t count = 0;
    for (const auto &ch : impl_->channels) {
        if (ch->isRemote && ch->live())
            ++count;
    }
    return count;
}

std::vector<std::pair<int, std::string>>
ShardExecutor::releaseRemotes()
{
    std::vector<std::pair<int, std::string>> released;
    for (auto it = impl_->channels.begin();
         it != impl_->channels.end();) {
        Impl::Channel &ch = **it;
        if (ch.isRemote && ch.live() && !ch.busy) {
            impl_->retireRemote(ch);
            released.emplace_back(ch.fd, ch.peer);
            ch.fd = -1; // ownership moves to the caller
            it = impl_->channels.erase(it);
        } else {
            ++it;
        }
    }
    return released;
}

PlanResults
ShardExecutor::take(SweepTelemetry *telemetry)
{
    return impl_->take(telemetry);
}

PlanResults
runPlanSharded(const SweepPlan &plan, const ShardOptions &sopts,
               SweepTelemetry *telemetry)
{
    ShardOptions opts = sopts;
    opts.shards = std::max(1, sopts.shards);
    ShardExecutor executor(plan, opts);
    std::vector<pollfd> no_fds;
    while (!executor.finished()) {
        executor.pollOnce(200, no_fds);
        // Nothing streams completions here; draining them keeps the
        // next poll from returning at once.
        executor.drainCompletions();
    }
    return executor.take(telemetry);
}

} // namespace mcscope
