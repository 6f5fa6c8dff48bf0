#include "core/runner.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "core/journal.hh"
#include "core/parallel_for.hh"
#include "core/registry.hh"
#include "sim/audit.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/subprocess.hh"
#include "util/transport.hh"

namespace mcscope {

namespace {

using Clock = std::chrono::steady_clock;

/** Format stamp on shard manifests (supervisor -> worker). */
constexpr const char *kShardManifestFormat = "mcscope-shard-1";

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

std::string
digestHex(uint64_t digest)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

std::optional<uint64_t>
parseDigestHex(std::string_view s)
{
    if (s.size() != 16)
        return std::nullopt;
    uint64_t v = 0;
    for (char c : s) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<uint64_t>(c - 'a' + 10);
        else
            return std::nullopt;
    }
    return v;
}

JsonValue
runResultToJson(uint64_t digest, const RunResult &result)
{
    JsonValue o = JsonValue::object();
    o.set("digest", JsonValue::str(digestHex(digest)));
    o.set("model_version", JsonValue::str(kScenarioModelVersion));
    o.set("valid", JsonValue::boolean(result.valid));
    o.set("seconds", JsonValue::number(result.seconds));
    JsonValue tagged = JsonValue::object();
    for (const auto &[tag, t] : result.taggedSeconds)
        tagged.set(std::to_string(tag), JsonValue::number(t));
    o.set("tagged", std::move(tagged));
    o.set("events",
          JsonValue::number(static_cast<double>(result.events)));
    o.set("incremental_solves",
          JsonValue::number(
              static_cast<double>(result.incrementalSolves)));
    o.set("full_solves",
          JsonValue::number(static_cast<double>(result.fullSolves)));
    o.set("calqueue_ops",
          JsonValue::number(static_cast<double>(result.calqueueOps)));
    o.set("calqueue_resizes",
          JsonValue::number(
              static_cast<double>(result.calqueueResizes)));
    o.set("audited", JsonValue::boolean(result.audited));
    if (result.audited) {
        o.set("audit_digest",
              JsonValue::str(digestHex(result.auditDigest)));
        o.set("audit_checks",
              JsonValue::number(
                  static_cast<double>(result.auditChecks)));
    }
    return o;
}

std::optional<RunResult>
parseRunResult(const JsonValue &doc, uint64_t expect_digest)
{
    if (!doc.isObject())
        return std::nullopt;
    const JsonValue *digest = doc.find("digest");
    if (!digest || !digest->isString())
        return std::nullopt;
    // The content address is the integrity check: an entry claiming a
    // different digest than the one we asked for is stale or
    // misfiled, never trustworthy.
    std::optional<uint64_t> d = parseDigestHex(digest->asString());
    if (!d || *d != expect_digest)
        return std::nullopt;

    const JsonValue *valid = doc.find("valid");
    const JsonValue *seconds = doc.find("seconds");
    const JsonValue *tagged = doc.find("tagged");
    const JsonValue *events = doc.find("events");
    if (!valid || !valid->isBool() || !seconds ||
        !seconds->isNumber() || !tagged || !tagged->isObject() ||
        !events || !events->isNumber())
        return std::nullopt;

    RunResult r;
    r.valid = valid->asBool();
    r.seconds = seconds->asNumber();
    if (!std::isfinite(r.seconds) || r.seconds < 0.0)
        return std::nullopt;
    for (const auto &[key, v] : tagged->members()) {
        if (!v.isNumber() || key.empty())
            return std::nullopt;
        for (char c : key) {
            if (!std::isdigit(static_cast<unsigned char>(c)))
                return std::nullopt;
        }
        // Checked parse (PARSE-1): this key comes from journal/cache
        // files and worker records, any of which can be corrupt or
        // adversarial.  std::stoi would throw std::out_of_range on a
        // huge digit string straight through --resume; a corrupt
        // entry must instead read as "not a result" so the point is
        // re-simulated.
        errno = 0;
        char *end = nullptr;
        long tag = std::strtol(key.c_str(), &end, 10);
        if (errno == ERANGE || end != key.c_str() + key.size() ||
            tag > std::numeric_limits<int>::max())
            return std::nullopt;
        r.taggedSeconds[static_cast<int>(tag)] = v.asNumber();
    }
    if (std::optional<uint64_t> e = jsonInteger<uint64_t>(*events))
        r.events = *e;
    else
        return std::nullopt;

    // Engine-counter fields arrived after the cache/journal format
    // shipped; absent fields (old entries) default to zero.
    auto optionalCounter = [&doc](const char *key,
                                  uint64_t &out) -> bool {
        const JsonValue *v = doc.find(key);
        if (!v)
            return true;
        std::optional<uint64_t> n = jsonInteger<uint64_t>(*v);
        if (n)
            out = *n;
        return n.has_value();
    };
    if (!optionalCounter("incremental_solves", r.incrementalSolves) ||
        !optionalCounter("full_solves", r.fullSolves) ||
        !optionalCounter("calqueue_ops", r.calqueueOps) ||
        !optionalCounter("calqueue_resizes", r.calqueueResizes))
        return std::nullopt;

    if (const JsonValue *audited = doc.find("audited")) {
        if (!audited->isBool())
            return std::nullopt;
        r.audited = audited->asBool();
    }
    if (r.audited) {
        const JsonValue *ad = doc.find("audit_digest");
        const JsonValue *ac = doc.find("audit_checks");
        std::optional<uint64_t> checks =
            ac ? jsonInteger<uint64_t>(*ac) : std::nullopt;
        if (!ad || !ad->isString() || !checks)
            return std::nullopt;
        r.auditChecks = *checks;
        std::optional<uint64_t> adv = parseDigestHex(ad->asString());
        if (!adv)
            return std::nullopt;
        r.auditDigest = *adv;
    }
    return r;
}

ResultCache::ResultCache(std::string dir)
{
    MCSCOPE_ASSERT(!dir.empty(), "disk cache needs a directory");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        fatal("cannot create cache directory '", dir,
              "': ", ec.message());
    }
    file_ = std::make_unique<SweepJournal>(dir + "/results.jsonl",
                                           SweepJournal::Sync::None);
}

ResultCache::ResultCache(std::unique_ptr<SweepJournal> file)
    : file_(std::move(file))
{
}

std::optional<ResultCache::Hit>
ResultCache::lookup(uint64_t digest)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(digest);
        if (it != entries_.end()) {
            ++stats_.memoryHits;
            return Hit{it->second, false};
        }
    }
    // The file lookup runs outside mu_: it must not serialize the
    // worker pool.
    bool corrupt = false;
    std::optional<RunResult> r =
        file_ ? file_->lookup(digest, &corrupt) : std::nullopt;
    std::lock_guard<std::mutex> lock(mu_);
    if (!r) {
        ++stats_.misses;
        if (corrupt)
            ++stats_.corrupt;
        return std::nullopt;
    }
    entries_.emplace(digest, *r);
    ++stats_.diskHits;
    return Hit{std::move(*r), true};
}

void
ResultCache::store(uint64_t digest, const RunResult &result)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_[digest] = result;
        ++stats_.stores;
    }
    if (file_)
        file_->append(digest, result);
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

ResultCache &
processCache()
{
    // Leaked singleton: sweeps may run during static destruction of
    // test fixtures, so the cache must outlive everything.
    static ResultCache *cache = [] {
        const char *dir = std::getenv("MCSCOPE_CACHE_DIR");
        if (dir && *dir)
            return new ResultCache(dir);
        return new ResultCache();
    }();
    return *cache;
}

double
RunnerStats::hitRate() const
{
    if (uniqueSpecs == 0)
        return 0.0;
    return 100.0 * static_cast<double>(hits()) /
           static_cast<double>(uniqueSpecs);
}

std::string
RunnerStats::summary() const
{
    std::string out = std::to_string(points) + " points (" +
                      std::to_string(uniqueSpecs) + " unique): " +
                      std::to_string(hits()) + " hits (" +
                      std::to_string(memoryHits) + " memory + " +
                      std::to_string(diskHits) + " disk), " +
                      std::to_string(misses) + " misses, " +
                      std::to_string(simulations) + " simulations, " +
                      formatFixed(hitRate(), 0) + "% cached";
    if (corrupt)
        out += ", " + std::to_string(corrupt) +
               " corrupt entries re-simulated";
    if (validatedHits)
        out += ", " + std::to_string(validatedHits) +
               " hits audit-validated";
    return out;
}

const RunResult &
PlanResults::at(const SweepPlan &plan, size_t point) const
{
    return bySpec[plan.specIndex(point)];
}

PlanResults
runPlan(const SweepPlan &plan, const RunnerOptions &opts)
{
    ResultCache &cache = opts.cache ? *opts.cache : processCache();
    const bool audit_active = opts.audit || auditRequestedByEnv();
    const size_t n = plan.specs().size();

    PlanResults out;
    out.bySpec.assign(n, RunResult{});
    out.specWallSeconds.assign(n, 0.0);
    out.stats.points = plan.pointCount();
    out.stats.uniqueSpecs = n;

    std::atomic<uint64_t> memory_hits{0}, disk_hits{0}, misses{0},
        validated{0}, simulations{0};
    const CacheStats cache_before = cache.stats();

    const Clock::time_point plan_start = Clock::now();
    parallelFor(n, opts.jobs, [&](size_t i) {
        const ScenarioSpec &spec = plan.specs()[i];
        const Clock::time_point spec_start = Clock::now();

        const std::unique_ptr<Workload> workload =
            makeWorkload(spec.workload);
        const uint64_t digest = plan.digest(i, *workload);

        std::optional<ResultCache::Hit> hit;
        if (!opts.noCache)
            hit = cache.lookup(digest);

        if (hit && !audit_active) {
            if (hit->fromDisk)
                ++disk_hits;
            else
                ++memory_hits;
            out.bySpec[i] = hit->result;
        } else {
            ExperimentConfig cfg = spec.toExperiment();
            cfg.audit = opts.audit;
            RunResult fresh = runExperiment(cfg, *workload);
            ++simulations;
            if (hit) {
                // Audit mode validates every hit end-to-end: the
                // cached numbers must equal a fresh simulation's.
                if (hit->fromDisk)
                    ++disk_hits;
                else
                    ++memory_hits;
                ++validated;
                MCSCOPE_ASSERT(
                    hit->result.valid == fresh.valid &&
                        hit->result.seconds == fresh.seconds,
                    "cache entry disagrees with fresh simulation for ",
                    spec.canonicalText(), ": cached ",
                    hit->result.seconds, " s vs fresh ", fresh.seconds,
                    " s");
                MCSCOPE_ASSERT(
                    !(hit->result.audited && fresh.audited) ||
                        hit->result.auditDigest == fresh.auditDigest,
                    "cached audit digest ",
                    digestHex(hit->result.auditDigest),
                    " != fresh audit digest ",
                    digestHex(fresh.auditDigest), " for ",
                    spec.canonicalText());
            } else {
                ++misses;
            }
            if (!opts.noCache)
                cache.store(digest, fresh);
            out.bySpec[i] = fresh;
        }
        out.specWallSeconds[i] = secondsSince(spec_start);
    });
    out.wallSeconds = secondsSince(plan_start);

    out.stats.memoryHits = memory_hits.load();
    out.stats.diskHits = disk_hits.load();
    out.stats.misses = misses.load();
    out.stats.validatedHits = validated.load();
    out.stats.simulations = simulations.load();
    out.stats.corrupt = cache.stats().corrupt - cache_before.corrupt;

    if (SweepTelemetry *telemetry = opts.telemetry) {
        telemetry->jobs = opts.jobs < 1 ? 1 : opts.jobs;
        telemetry->wallSeconds = out.wallSeconds;
        telemetry->points.assign(plan.pointCount(), {});
        for (size_t p = 0; p < plan.pointCount(); ++p) {
            const size_t si = plan.specIndex(p);
            const ScenarioSpec &spec = plan.specs()[si];
            const RunResult &r = out.bySpec[si];
            GridPointSample &sample = telemetry->points[p];
            sample.ranks = spec.ranks;
            sample.label = spec.option.label;
            sample.valid = r.valid;
            sample.wallSeconds = out.specWallSeconds[si];
            sample.simSeconds = r.valid ? r.seconds : 0.0;
            sample.events = r.events;
            sample.incrementalSolves = r.incrementalSolves;
            sample.fullSolves = r.fullSolves;
            sample.memoHits = r.memoHits;
            sample.calqueueOps = r.calqueueOps;
            sample.calqueueResizes = r.calqueueResizes;
        }
    }
    return out;
}

std::optional<std::vector<FaultSpec>>
parseFaultPlan(const std::string &text, std::string *error)
{
    std::vector<FaultSpec> out;
    if (trim(text).empty())
        return out;
    for (const std::string &part : split(text, ',')) {
        std::string p = trim(part);
        size_t colon = p.find(':');
        if (colon == std::string::npos) {
            if (error)
                *error = "expected kind:point in '" + p + "'";
            return std::nullopt;
        }
        FaultSpec f;
        std::string kind = toLower(trim(p.substr(0, colon)));
        if (kind == "crash") {
            f.kind = FaultSpec::Kind::Crash;
        } else if (kind == "hang") {
            f.kind = FaultSpec::Kind::Hang;
        } else {
            if (error)
                *error = "unknown fault kind '" + kind +
                         "' (expected crash or hang)";
            return std::nullopt;
        }
        std::string idx = trim(p.substr(colon + 1));
        if (idx.empty() ||
            !std::all_of(idx.begin(), idx.end(), [](char c) {
                return std::isdigit(static_cast<unsigned char>(c));
            })) {
            if (error)
                *error = "bad fault point '" + idx + "'";
            return std::nullopt;
        }
        errno = 0;
        char *end = nullptr;
        unsigned long long v = std::strtoull(idx.c_str(), &end, 10);
        if (errno == ERANGE || end != idx.c_str() + idx.size()) {
            if (error)
                *error = "bad fault point '" + idx + "'";
            return std::nullopt;
        }
        f.point = v;
        out.push_back(f);
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
    return out;
}

namespace {

/** One decoded shard-manifest point. */
struct ManifestPoint
{
    uint64_t index = 0;
    ScenarioSpec spec;
};

/** One decoded mcscope-shard-1 manifest. */
struct ShardManifest
{
    bool audit = false;
    std::string cacheDir;
    std::vector<ManifestPoint> points;
};

/** Decode a manifest document; nullopt + `error` on any defect. */
std::optional<ShardManifest>
parseShardManifest(const JsonValue &doc, std::string *error)
{
    if (!doc.isObject()) {
        *error = "manifest is not an object";
        return std::nullopt;
    }
    const JsonValue *fmt = doc.find("format");
    if (!fmt || !fmt->isString() ||
        fmt->asString() != kShardManifestFormat) {
        *error = std::string("manifest is not ") + kShardManifestFormat;
        return std::nullopt;
    }
    ShardManifest m;
    if (const JsonValue *a = doc.find("audit"); a && a->isBool())
        m.audit = a->asBool();
    if (const JsonValue *c = doc.find("cache_dir");
        c && c->isString())
        m.cacheDir = c->asString();
    const JsonValue *points = doc.find("points");
    if (!points || !points->isArray()) {
        *error = "manifest has no points array";
        return std::nullopt;
    }
    for (const JsonValue &p : points->items()) {
        const JsonValue *idx = p.find("index");
        const JsonValue *spec_doc = p.find("spec");
        std::optional<uint64_t> index =
            idx ? jsonInteger<uint64_t>(*idx) : std::nullopt;
        if (!index || !spec_doc) {
            *error = "malformed manifest point";
            return std::nullopt;
        }
        ManifestPoint pt;
        pt.index = *index;
        std::string spec_error;
        std::optional<ScenarioSpec> spec =
            parseScenarioSpec(*spec_doc, &spec_error);
        if (!spec) {
            *error = "bad spec for point " +
                     std::to_string(pt.index) + ": " + spec_error;
            return std::nullopt;
        }
        pt.spec = std::move(*spec);
        m.points.push_back(std::move(pt));
    }
    return m;
}

/**
 * Worker-process execution state shared across manifests: the fault
 * plan (parsed once) and the disk cache (recreated only when a
 * manifest names a different directory, so a long-lived framed worker
 * keeps its warm in-memory tier between manifests).
 */
class ShardWorkerContext
{
  public:
    bool loadFaults(std::string *error)
    {
        if (const char *env = std::getenv("MCSCOPE_FAULT_INJECT")) {
            std::optional<std::vector<FaultSpec>> parsed =
                parseFaultPlan(env, error);
            if (!parsed)
                return false;
            faults_ = *parsed;
        }
        return true;
    }

    void setCacheDir(const std::string &dir)
    {
        if (dir == cacheDir_)
            return;
        cacheDir_ = dir;
        cache_ = dir.empty() ? nullptr
                             : std::make_unique<ResultCache>(dir);
    }

    /**
     * Execute one point (fault hooks first, cache in front unless
     * auditing) and build its record document.  May not return at all
     * when a crash/hang fault matches -- that is the point.
     */
    JsonValue executePoint(const ManifestPoint &pt, bool audit)
    {
        // Deterministic fault injection: die or stall exactly when
        // told to, *before* the point's record exists, so the
        // supervisor's recovery path sees a genuinely lost point.
        for (const FaultSpec &f : faults_) {
            if (f.point != pt.index)
                continue;
            if (f.kind == FaultSpec::Kind::Crash) {
                ::raise(SIGKILL);
            } else {
                for (;;)
                    ::sleep(3600); // until the watchdog kills us
            }
        }

        std::unique_ptr<Workload> workload =
            makeWorkload(pt.spec.workload);
        const uint64_t digest = pt.spec.digestWith(*workload);
        const Clock::time_point start = Clock::now();
        RunResult result;
        bool hit = false;
        // Audit mode always simulates (the auditor must see the run);
        // plain mode may serve the point from the shared disk cache.
        if (cache_ && !audit) {
            if (std::optional<ResultCache::Hit> h =
                    cache_->lookup(digest)) {
                result = h->result;
                hit = true;
                ++cacheHits_;
            }
        }
        if (!hit) {
            ExperimentConfig cfg = pt.spec.toExperiment();
            cfg.audit = audit;
            result = runExperiment(cfg, *workload);
            if (cache_)
                cache_->store(digest, result);
        }

        JsonValue rec = JsonValue::object();
        rec.set("index",
                JsonValue::number(static_cast<double>(pt.index)));
        rec.set("wall_seconds",
                JsonValue::number(secondsSince(start)));
        rec.set("result", runResultToJson(digest, result));
        return rec;
    }

    /** Per-manifest cache-hit counter (reset on read). */
    uint64_t takeCacheHits()
    {
        uint64_t n = cacheHits_;
        cacheHits_ = 0;
        return n;
    }

  private:
    std::vector<FaultSpec> faults_;
    std::unique_ptr<ResultCache> cache_;
    std::string cacheDir_;
    uint64_t cacheHits_ = 0;
};

/** The per-manifest trailer record. */
JsonValue
doneRecord(uint64_t cache_hits)
{
    JsonValue done = JsonValue::object();
    done.set("done", JsonValue::boolean(true));
    done.set("cache_hits",
             JsonValue::number(static_cast<double>(cache_hits)));
    return done;
}

} // namespace

int
runFramedShardWorker(int in_fd, int out_fd)
{
    ignoreSigpipeOnce();
    std::string error;
    ShardWorkerContext ctx;
    if (!ctx.loadFaults(&error)) {
        warn("worker: bad MCSCOPE_FAULT_INJECT: ", error);
        return 2;
    }
    for (;;) {
        bool eof = false;
        std::optional<std::string> frame = readFrame(in_fd, &eof);
        if (!frame) {
            if (eof)
                return 0; // orderly shutdown at a frame boundary
            warn("worker: torn or malformed manifest stream");
            return 2;
        }
        std::optional<JsonValue> doc = parseJson(*frame, &error);
        std::optional<ShardManifest> manifest;
        if (doc)
            manifest = parseShardManifest(*doc, &error);
        if (!manifest) {
            warn("worker: malformed shard manifest: ", error);
            return 2;
        }
        ctx.setCacheDir(manifest->cacheDir);
        for (const ManifestPoint &pt : manifest->points) {
            if (!writeFrame(
                    out_fd,
                    ctx.executePoint(pt, manifest->audit).dump()))
                return 2; // supervisor hung up
        }
        if (!writeFrame(out_fd,
                        doneRecord(ctx.takeCacheHits()).dump()))
            return 2;
    }
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

    std::string buildManifest(const std::deque<size_t> &queue) const
    {
        JsonValue doc = JsonValue::object();
        doc.set("format", JsonValue::str(kShardManifestFormat));
        doc.set("audit", JsonValue::boolean(opts.audit));
        if (!opts.cacheDir.empty())
            doc.set("cache_dir", JsonValue::str(opts.cacheDir));
        JsonValue pts = JsonValue::array();
        for (size_t i : queue) {
            JsonValue p = JsonValue::object();
            p.set("index",
                  JsonValue::number(static_cast<double>(i)));
            p.set("spec", plan.specs()[i].toJson());
            pts.append(std::move(p));
        }
        doc.set("points", std::move(pts));
        return doc.dump();
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
        const std::string manifest = buildManifest(points);
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
        std::optional<size_t> index =
            idx ? jsonInteger<size_t>(*idx) : std::nullopt;
        if (!index || !res) {
            warn("supervisor: malformed worker record ignored");
            return;
        }
        const size_t i = *index;
        if (i >= n || done[i]) {
            warn("supervisor: unexpected record for spec ", i);
            return;
        }
        std::optional<RunResult> r = parseRunResult(*res, digests[i]);
        if (!r) {
            // Ignored, so the point stays owed; the channel's death
            // will trigger the retry path.
            warn("supervisor: corrupt record for spec ", i,
                 "; the point will be retried");
            return;
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
        out.bySpec[i] = *r;
        double wall = 0.0;
        if (const JsonValue *w = doc.find("wall_seconds");
            w && w->isNumber())
            wall = w->asNumber();
        out.specWallSeconds[i] = wall;
        ch.busySeconds += wall;
        ++ch.points;
        ch.lastProgress = Clock::now();
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
        if (ch.proc) {
            std::string bytes;
            const bool open = ch.proc->readAvailable(bytes);
            ch.frames.append(bytes);
            return open;
        }
        if (ch.fd < 0)
            return false;
        char chunk[4096];
        for (;;) {
            ssize_t r = ::read(ch.fd, chunk, sizeof(chunk));
            if (r > 0) {
                ch.frames.append(chunk, static_cast<size_t>(r));
                continue;
            }
            if (r == 0)
                return false;
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            return false; // dead socket
        }
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
        ShardSample sample;
        sample.shard = static_cast<int>(localCount +
                                        retiredRemotes.size());
        sample.peer = ch.peer;
        sample.remote = true;
        sample.points = ch.points;
        sample.busySeconds = ch.busySeconds;
        sample.respawns = ch.respawns;
        retiredRemotes.push_back(sample);
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
        telemetry.jobs = static_cast<int>(
            std::max<size_t>(1, localCount));
        telemetry.wallSeconds = out.wallSeconds;
        telemetry.journaled = out.shard.journaled;
        telemetry.retries = out.shard.retries;
        telemetry.gaps = out.shard.gaps;
        telemetry.points.assign(plan.pointCount(), {});
        for (size_t p = 0; p < plan.pointCount(); ++p) {
            const size_t si = plan.specIndex(p);
            const ScenarioSpec &spec = plan.specs()[si];
            const RunResult &r = out.bySpec[si];
            GridPointSample &sample = telemetry.points[p];
            sample.ranks = spec.ranks;
            sample.label = spec.option.label;
            sample.valid = r.valid;
            sample.wallSeconds = out.specWallSeconds[si];
            sample.simSeconds = r.valid ? r.seconds : 0.0;
            sample.events = r.events;
            sample.incrementalSolves = r.incrementalSolves;
            sample.fullSolves = r.fullSolves;
            sample.memoHits = r.memoHits;
            sample.calqueueOps = r.calqueueOps;
            sample.calqueueResizes = r.calqueueResizes;
        }
        telemetry.shards.clear();
        size_t shard_index = 0;
        for (auto &ch : channels) {
            if (ch->isRemote)
                continue;
            ShardSample sample;
            sample.shard = static_cast<int>(shard_index++);
            sample.peer = ch->peer;
            sample.points = ch->points;
            sample.busySeconds = ch->busySeconds;
            sample.respawns = ch->respawns;
            telemetry.shards.push_back(sample);
        }
        for (const ShardSample &s : retiredRemotes)
            telemetry.shards.push_back(s);
        for (auto &ch : channels) {
            if (!ch->isRemote)
                continue;
            ShardSample sample;
            sample.shard =
                static_cast<int>(telemetry.shards.size());
            sample.peer = ch->peer;
            sample.remote = true;
            sample.points = ch->points;
            sample.busySeconds = ch->busySeconds;
            sample.respawns = ch->respawns;
            telemetry.shards.push_back(sample);
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

OptionSweepResult
optionSweepSlice(const SweepPlan &plan, const PlanResults &results,
                 size_t w, size_t i, size_t s, int tag, size_t m)
{
    MCSCOPE_ASSERT(plan.hasAxes(),
                   "optionSweepSlice needs an axes-based plan");
    const SweepAxes &axes = plan.axes();
    OptionSweepResult out;
    out.rankCounts = axes.rankCounts;
    out.options = axes.options;
    out.seconds.assign(
        axes.rankCounts.size(),
        std::vector<double>(axes.options.size(), 0.0));
    for (size_t r = 0; r < axes.rankCounts.size(); ++r) {
        for (size_t o = 0; o < axes.options.size(); ++o) {
            const RunResult &res =
                results.at(plan, plan.pointIndex(w, i, s, r, o, m));
            if (!res.valid) {
                out.seconds[r][o] =
                    std::numeric_limits<double>::quiet_NaN();
            } else {
                out.seconds[r][o] =
                    tag < 0 ? res.seconds : res.tagged(tag);
            }
        }
    }
    return out;
}

namespace {

/** One registry workload on one inline machine, OpenMPI over USysV. */
SweepAxes
singleWorkloadAxes(const MachineConfig &machine,
                   const std::vector<int> &rank_counts,
                   const std::string &workload)
{
    SweepAxes axes;
    axes.machinePreset.clear();
    axes.machine = machine;
    axes.workloads = {workload};
    axes.rankCounts = rank_counts;
    return axes;
}

} // namespace

OptionSweepResult
sweepOptions(const MachineConfig &machine,
             const std::vector<int> &rank_counts,
             const std::string &workload, int tag)
{
    if (rank_counts.empty()) {
        OptionSweepResult out;
        out.options = table5Options();
        return out;
    }
    SweepPlan plan = SweepPlan::expand(
        singleWorkloadAxes(machine, rank_counts, workload));
    return optionSweepSlice(plan, runPlan(plan, RunnerOptions{}), 0, 0,
                            0, tag);
}

std::vector<double>
defaultScalingTimes(const MachineConfig &machine,
                    const std::vector<int> &rank_counts,
                    const std::string &workload, int tag)
{
    std::vector<double> out;
    if (rank_counts.empty())
        return out;
    SweepAxes axes = singleWorkloadAxes(machine, rank_counts, workload);
    axes.options = {table5Options().front()}; // Default
    SweepPlan plan = SweepPlan::expand(axes);
    const OptionSweepResult sweep = optionSweepSlice(
        plan, runPlan(plan, RunnerOptions{}), 0, 0, 0, tag);
    for (size_t r = 0; r < rank_counts.size(); ++r) {
        MCSCOPE_ASSERT(!std::isnan(sweep.seconds[r][0]),
                       "default placement rejected ", rank_counts[r],
                       " ranks on ", machine.name);
        out.push_back(sweep.seconds[r][0]);
    }
    return out;
}

} // namespace mcscope
